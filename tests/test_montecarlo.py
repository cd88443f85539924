"""Simulation engine: counter-based streams, reproducibility, statistics.

A run's records are the rows of the CSV that `simulate` writes with the
hidden state revealed.  The distributional checks pin exact counts for
fixed seeds (frozen from the implementation once, then held); the
statistical checks use generous sigma windows so they stay deterministic.
"""

from __future__ import annotations

import csv
import json
import math
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import genmodels
from bell_lab import montecarlo
from bell_lab.model import (
    JOINT_OUTCOMES,
    BellLabError,
    InvalidModelError,
    Scenario,
    Setting,
    UnknownIdError,
    behavior,
)
from bell_lab.montecarlo import (
    DRAWS_PER_TRIAL,
    FixedSequencePolicy,
    SLOT_OUTCOME,
    SLOT_STATE,
    UniformSettingPolicy,
    simulate,
)
from bell_lab.specio import load_theory, parse_theory
from reference_sampler import (
    GAMMA,
    MASK64,
    MUL1,
    MUL2,
    read_records,
    reference_csv,
    reference_run,
    reference_summary,
    stream_uniform,
    trial_uniform,
)


def run_records(model, trials, seed, policy=None):
    """The statistics of one `simulate` run and its records, read back from
    the CSV it writes with the hidden state revealed."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "records.csv"
        stats = simulate(model, trials, seed, policy=policy, csv_path=path, reveal_hidden=True)
        return stats, read_records(path)


def records_of(model, trials, seed, policy=None):
    return run_records(model, trials, seed, policy)[1]


def count_keys(scenario) -> list[tuple[str, str, int, int]]:
    """The keys (a, b, A, B) of the count tensor's cells, in its order."""
    return [(a, b, A, B)
            for a in scenario.alice_ids() for b in scenario.bob_ids() for A, B in JOINT_OUTCOMES]


def count_tensor(scenario, counts) -> np.ndarray:
    """Counts keyed (a, b, A, B) as the tensor C[a, b, A, B] that the
    summary reads."""
    cells = [counts.get(key, 0) for key in count_keys(scenario)]
    return np.array(cells, dtype=np.int64).reshape(len(scenario.alice_ids()), -1, 2, 2)


def observed_counts(scenario, tensor) -> dict:
    """The nonzero counts of `tensor` keyed (a, b, A, B), in declaration
    order: the dict the summary used to be given."""
    return {key: n for key, n in zip(count_keys(scenario), tensor.ravel().tolist()) if n}


def read_rows(path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


class TestStream:
    """The scalar SplitMix64 stream of the reference sampler; the engine
    is held to it in TestVectorisedStream."""

    def test_pure_function_of_seed_and_position(self):
        assert stream_uniform(1, 0) == stream_uniform(1, 0)
        assert stream_uniform(1, 0) != stream_uniform(2, 0)
        assert stream_uniform(1, 0) != stream_uniform(1, 1)

    def test_values_in_unit_interval(self):
        for pos in range(2000):
            u = stream_uniform(123, pos)
            assert 0.0 <= u < 1.0

    def test_random_access_equals_sequential(self):
        seq = [stream_uniform(9, p) for p in range(100)]
        shuffled_positions = list(range(99, -1, -1))
        assert [stream_uniform(9, p) for p in shuffled_positions] == seq[::-1]

    def test_trial_uniform_layout(self):
        assert trial_uniform(5, 3, SLOT_STATE) == stream_uniform(5, 3 * DRAWS_PER_TRIAL)
        assert trial_uniform(5, 3, SLOT_OUTCOME) == stream_uniform(5, 3 * DRAWS_PER_TRIAL + 3)
        with pytest.raises(ValueError):
            trial_uniform(5, 3, DRAWS_PER_TRIAL)

    def test_uniformity_rough(self):
        n = 20000
        mean = sum(stream_uniform(1234, p) for p in range(n)) / n
        assert abs(mean - 0.5) < 4 * (1 / math.sqrt(12 * n))


class TestRunExperiment:
    def test_records_are_bit_reproducible(self, singlet_chsh):
        first = run_records(singlet_chsh, 500, seed=77)
        second = run_records(singlet_chsh, 500, seed=77)
        assert first == second

    def test_different_seeds_differ(self, singlet_chsh):
        assert records_of(singlet_chsh, 200, seed=1) != records_of(singlet_chsh, 200, seed=2)

    def test_trial_indices_are_in_order(self, singlet_chsh):
        records = records_of(singlet_chsh, 50, seed=3)
        assert [r.trial for r in records] == list(range(50))

    def test_trial_count_must_be_positive(self, singlet_chsh):
        for trials in (0, -1):
            with pytest.raises(BellLabError, match="trial count must be positive"):
                simulate(singlet_chsh, trials, seed=1)

    @pytest.mark.parametrize("bad", [
        {"trials": True}, {"trials": 10.0}, {"trials": "10"},
        {"seed": True}, {"seed": 1.5}, {"seed": None},
        {"policy": [("a1", "b1")]}, {"policy": "uniform"},
        {"chsh_roles": ("a1", "a2", "b1")}, {"chsh_roles": ("a1", "a2", "b1", "b2", "b1")},
    ])
    def test_a_bad_argument_raises_before_the_csv_is_opened(self, singlet_chsh, tmp_path, bad):
        out = tmp_path / "records.csv"
        with pytest.raises(BellLabError):
            simulate(singlet_chsh, **{"trials": 10, "seed": 1, **bad}, csv_path=out)
        assert not out.exists()

    def test_numpy_integers_are_taken_as_ints(self, singlet_chsh):
        stats = simulate(singlet_chsh, np.int64(50), seed=np.uint8(7))
        assert (type(stats.trials), type(stats.seed)) == (int, int)
        assert json.dumps(stats.to_dict()) == json.dumps(simulate(singlet_chsh, 50, seed=7).to_dict())

    @pytest.mark.parametrize("seed", [-1, -(2**64), 2**64, 2**70])
    def test_a_seed_outside_64_bits_is_refused_before_the_csv(self, singlet_chsh, tmp_path, seed):
        """A seed is a 64-bit word: -1 is not read as 2^64 - 1."""
        out = tmp_path / "records.csv"
        with pytest.raises(BellLabError, match=r"seed must be in \[0, 2\^64\)"):
            simulate(singlet_chsh, 10, seed=seed, csv_path=out)
        assert not out.exists()

    def test_both_ends_of_the_seed_range_are_taken(self, singlet_chsh):
        for seed in (0, 2**64 - 1):
            stats, records = run_records(singlet_chsh, 20, seed)
            assert stats.seed == seed
            assert records == reference_run(singlet_chsh, 20, seed, UniformSettingPolicy())
        top = simulate(singlet_chsh, 50, seed=np.uint64(2**64 - 1))
        assert type(top.seed) is int
        assert json.dumps(top.to_dict()) == json.dumps(simulate(singlet_chsh, 50, seed=2**64 - 1).to_dict())

    def test_invalid_model_rejected(self, fixtures_dir):
        model = load_theory(fixtures_dir / "bad_sum.json")
        with pytest.raises(InvalidModelError):
            simulate(model, 10, seed=1)

    def test_fixed_sequence_policy_cycles(self, singlet_chsh):
        policy = FixedSequencePolicy(pairs=(("a1", "b1"), ("a2", "b2")))
        records = records_of(singlet_chsh, 6, seed=4, policy=policy)
        assert [(r.a_id, r.b_id) for r in records] == [
            ("a1", "b1"), ("a2", "b2"), ("a1", "b1"), ("a2", "b2"), ("a1", "b1"), ("a2", "b2"),
        ]

    def test_fixed_sequence_rejects_unknown_ids(self, singlet_chsh):
        for pair in (("a1", "zz"), ("zz", "b1")):
            policy = FixedSequencePolicy(pairs=(("a1", "b1"), pair))
            with pytest.raises(UnknownIdError):
                simulate(singlet_chsh, 5, seed=4, policy=policy)

    def test_empty_fixed_sequence_rejected(self):
        with pytest.raises(BellLabError):
            FixedSequencePolicy(pairs=())

    def test_fixed_sequence_rejects_a_pair_that_is_not_two_ids(self):
        for pairs in ((("a1",),), (("a1", "b1", "x"),), ("a1b1",)):
            with pytest.raises(BellLabError, match="two setting ids"):
                FixedSequencePolicy(pairs=pairs)

    def test_fixed_sequence_rejects_pairs_that_are_not_a_sequence(self):
        with pytest.raises(BellLabError, match="must be a tuple of setting-id pairs"):
            FixedSequencePolicy(pairs=5)

    def test_fixed_sequence_from_a_list_is_the_tuple_built_policy(self):
        pairs = [("a1", "b1"), ("a2", "b2")]
        from_list, from_tuple = FixedSequencePolicy(pairs=pairs), FixedSequencePolicy(pairs=tuple(pairs))
        assert from_list == from_tuple and hash(from_list) == hash(from_tuple)
        assert from_list.pairs == tuple(pairs) and len({from_list, from_tuple}) == 1

    def test_policy_change_keeps_state_draws(self, singlet_chsh):
        uniform = records_of(singlet_chsh, 100, seed=11)
        fixed = records_of(
            singlet_chsh, 100, seed=11, policy=FixedSequencePolicy(pairs=(("a1", "b1"),))
        )
        # same slot layout: the hidden state sequence is untouched by policy
        assert [r.state_id for r in uniform] == [r.state_id for r in fixed]

    def test_uniform_policy_spreads_settings(self, singlet_chsh):
        records = records_of(singlet_chsh, 4000, seed=12, policy=UniformSettingPolicy())
        pair_counts = Counter((r.a_id, r.b_id) for r in records)
        assert set(pair_counts) == set(singlet_chsh.scenario.pairs())
        for n in pair_counts.values():
            assert abs(n - 1000) < 4 * math.sqrt(1000 * 0.75)

    def test_outcome_frequencies_track_the_kernel(self, fixtures_dir):
        model = load_theory(fixtures_dir / "two_state.json")
        records = records_of(model, 20000, seed=13)
        table = behavior(model)
        counts = Counter((r.outcome_a, r.outcome_b) for r in records)
        for (A, B), n in counts.items():
            expected = float(table.cell("n1", "n1").prob(A, B))
            se = math.sqrt(expected * (1 - expected) / 20000)
            assert abs(n / 20000 - expected) < 5 * max(se, 1e-9)


class TestSummarize:
    def test_correlator_estimates_and_errors(self, singlet_chsh):
        stats = simulate(singlet_chsh, 20000, seed=21)
        table = behavior(singlet_chsh)
        for pair, est in stats.correlators.items():
            from bell_lab.harness import correlator

            truth = float(correlator(table, *pair))
            assert est.std_error > 0
            assert abs(est.value - truth) < 5 * est.std_error

    def test_chsh_roles_default_to_declaration_order(self, singlet_chsh):
        stats = simulate(singlet_chsh, 2000, seed=22)
        assert stats.chsh_roles == ("a1", "a2", "b1", "b2")
        assert stats.chsh is not None

    def test_explicit_roles_pick_up_the_violation(self, singlet_chsh):
        stats = simulate(singlet_chsh, 40000, seed=23, chsh_roles=("a2", "a1", "b1", "b2"))
        assert abs(stats.chsh.value) > 2.5
        se_manual = math.sqrt(
            sum(stats.correlators[p].std_error ** 2 for p in [
                ("a2", "b1"), ("a2", "b2"), ("a1", "b1"), ("a1", "b2"),
            ])
        )
        assert stats.chsh.std_error == pytest.approx(se_manual)

    def test_counts_total_to_trials(self, singlet_chsh):
        stats = simulate(singlet_chsh, 3000, seed=24)
        assert sum(stats.counts.values()) == 3000
        assert sum(stats.pair_counts.values()) == 3000
        assert stats.trials == 3000

    def test_missing_pairs_drop_chsh(self, singlet_chsh):
        policy = FixedSequencePolicy(pairs=(("a1", "b1"),))
        stats = simulate(singlet_chsh, 100, seed=25, policy=policy)
        assert stats.chsh is None
        assert stats.chsh_roles is None
        assert list(stats.correlators) == [("a1", "b1")]

    def test_signal_deltas_have_errors_and_stay_small(self, singlet_chsh):
        stats = simulate(singlet_chsh, 30000, seed=26)
        assert stats.signal_deltas
        for d in stats.signal_deltas:
            assert d.std_error > 0
            assert d.delta < 4 * d.std_error

    def test_empty_records_rejected(self, singlet_chsh, tmp_path):
        # a run of no trials is refused before its CSV is opened
        out = tmp_path / "records.csv"
        out.write_bytes(b"kept")
        with pytest.raises(BellLabError):
            simulate(singlet_chsh, 0, seed=1, csv_path=out)
        assert out.read_bytes() == b"kept"

    def test_summary_never_mentions_hidden_states(self, singlet_chsh, tmp_path):
        doc = simulate(singlet_chsh, 500, seed=27, csv_path=tmp_path / "r.csv",
                       reveal_hidden=True).to_dict()
        assert "psi" not in json.dumps(doc)

    def test_to_dict_shape(self, singlet_chsh):
        doc = simulate(singlet_chsh, 500, seed=28).to_dict()
        assert doc["trials"] == 500
        assert doc["seed"] == 28
        assert set(doc) == {
            "trials", "seed", "counts", "pair_counts", "correlators",
            "chsh", "chsh_roles", "signal_deltas",
        }


class TestCsvExport:
    def test_observable_columns_only_by_default(self, singlet_chsh, tmp_path):
        out = tmp_path / "records.csv"
        simulate(singlet_chsh, 20, seed=31, csv_path=out)
        rows = read_rows(out)
        assert rows[0] == ["trial", "a", "b", "A", "B"]
        assert len(rows) == 21
        assert all(len(row) == 5 for row in rows)
        assert "psi" not in out.read_text(encoding="utf-8")

    def test_reveal_hidden_adds_lambda_column(self, singlet_chsh, tmp_path):
        out = tmp_path / "records.csv"
        simulate(singlet_chsh, 5, seed=32, csv_path=out, reveal_hidden=True)
        rows = read_rows(out)
        assert rows[0] == ["trial", "a", "b", "A", "B", "lambda"]
        assert rows[1][5] == "psi"

    def test_round_trip_values(self, singlet_chsh, tmp_path):
        records = records_of(singlet_chsh, 10, seed=33)
        out = tmp_path / "records.csv"
        simulate(singlet_chsh, 10, seed=33, csv_path=out)
        rows = read_rows(out)[1:]
        assert len(rows) == len(records)
        for rec, row in zip(records, rows):
            assert row == [str(rec.trial), rec.a_id, rec.b_id, str(rec.outcome_a), str(rec.outcome_b)]

    @pytest.mark.parametrize("reveal", [False, True])
    @pytest.mark.parametrize("chunk", [777, 4096, montecarlo._CHUNK])
    def test_trial_ids_past_999_and_9999_at_any_chunk_size(self, fixtures_dir, tmp_path, monkeypatch,
                                                           chunk, reveal):
        """12,345 trials cross 999 -> 1000 and 9999 -> 10000, in chunks that
        do not end at multiples of 1000: the CSV is the reference writer's."""
        model = load_theory(fixtures_dir / "eight_pattern.json")
        out = tmp_path / "records.csv"
        monkeypatch.setattr(montecarlo, "_CHUNK", chunk)
        simulate(model, 12_345, seed=5, csv_path=out, reveal_hidden=reveal)
        records = reference_run(model, 12_345, 5, UniformSettingPolicy())
        assert out.read_bytes() == reference_csv(records, reveal_hidden=reveal)

    @settings(max_examples=200, deadline=None)
    @given(start=st.one_of(st.integers(0, 3000), st.integers(0, 10**15)), length=st.integers(1, 2500))
    @example(start=0, length=1)
    @example(start=990, length=20)
    @example(start=9_990, length=1_020)
    @example(start=999_999, length=1)
    def test_trial_ids_are_the_str_of_each_index(self, start, length):
        heads, digits = montecarlo._trial_ids(start, start + length)
        assert list(map(str.__add__, heads, digits)) == list(map(str, range(start, start + length)))


class TestPhysicsOfTheRun:
    def test_forced_equal_axes_never_agree(self, singlet_equal_axes):
        policy = FixedSequencePolicy(pairs=(("n1", "n1"), ("n2", "n2")))
        records = records_of(singlet_equal_axes, 20000, seed=7, policy=policy)
        assert len(records) == 20000
        assert all(r.outcome_a != r.outcome_b for r in records)

    def test_deterministic_model_replays_its_instructions(self, fixtures_dir):
        model = load_theory(fixtures_dir / "eight_pattern.json")
        records = records_of(model, 5000, seed=41)
        for rec in records:
            dist = model.kernel.cell(rec.state_id, rec.a_id, rec.b_id)
            assert dist.prob(rec.outcome_a, rec.outcome_b) == 1


# ---------------------------------------------------------------------------
# the vectorised engine against the scalar definitions


def _unxorshift(y: int, shift: int) -> int:
    x = y
    for _ in range(64 // shift + 1):
        x = y ^ (x >> shift)
    return x


def seed_for_word(word: int, position: int) -> int:
    """The seed whose SplitMix64 word at `position` is `word` (the
    finalizer is a bijection, so it inverts step by step)."""
    z = _unxorshift(word, 31)
    z = z * pow(MUL2, -1, 1 << 64) & MASK64
    z = _unxorshift(z, 27)
    z = z * pow(MUL1, -1, 1 << 64) & MASK64
    z = _unxorshift(z, 30)
    return (z - (position + 1) * GAMMA) & MASK64


@st.composite
def halfway_words(draw) -> int:
    """Words exactly halfway between two float64 neighbours, where the
    uint64 -> float64 conversion must round half to even."""
    bits = draw(st.integers(55, 64))
    spacing = 1 << (bits - 53)
    return (1 << (bits - 1)) + draw(st.integers(0, 2**52 - 1)) * spacing + spacing // 2


#: 64-bit words, weighted towards those at and above 2^63 and those whose
#: conversion to float64 rounds, up to 1.0 at the top.
WORDS = st.one_of(
    st.integers(0, MASK64),
    st.integers(2**63, MASK64),
    st.integers(MASK64 - 2**12, MASK64),
    st.integers(0, 2**12),
    halfway_words(),
)


class TestVectorisedStream:
    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.one_of(st.integers(0, MASK64), st.integers(2**63, MASK64)),
        positions=st.lists(st.integers(0, 2**62), min_size=1, max_size=8),
    )
    def test_equals_scalar_stream(self, seed, positions):
        words = montecarlo._stream_words(seed, np.array(positions, dtype=np.uint64))
        assert words.dtype == np.uint64
        u = montecarlo._stream_uniforms(seed, np.array(positions, dtype=np.uint64))
        assert u.tolist() == [stream_uniform(seed, p) for p in positions]

    @settings(max_examples=300, deadline=None)
    @given(word=WORDS, position=st.integers(0, 2**62))
    def test_every_word_converts_like_the_scalar_stream(self, word, position):
        seed = seed_for_word(word, position)
        words = montecarlo._stream_words(seed, np.array([position], dtype=np.uint64))
        assert words.dtype == np.uint64
        assert int(words[0]) == word
        u = montecarlo._stream_uniforms(seed, np.array([position], dtype=np.uint64))
        assert u.tolist() == [stream_uniform(seed, position)]
        assert 0.0 <= u[0] <= 1.0

    def test_top_words_round_to_one(self):
        seed = seed_for_word(MASK64, 5)
        assert stream_uniform(seed, 5) == 1.0
        assert montecarlo._stream_uniforms(seed, np.array([5], dtype=np.uint64))[0] == 1.0


@st.composite
def simulation_inputs(draw):
    """(model, trials, seed, policy); about a third of the seeds force one
    draw of the run to an extreme word, so the clamps are reached."""
    model = draw(st.one_of(genmodels.arbitrary_models(), genmodels.decimal_models()))
    trials = draw(st.integers(1, 40))
    if draw(st.booleans()):
        pairs = st.tuples(st.sampled_from(model.scenario.alice_ids()),
                          st.sampled_from(model.scenario.bob_ids()))
        policy = FixedSequencePolicy(pairs=tuple(draw(st.lists(pairs, min_size=1, max_size=5))))
    else:
        policy = UniformSettingPolicy()
    if draw(st.integers(0, 2)) == 0:
        position = draw(st.integers(0, trials - 1)) * DRAWS_PER_TRIAL + draw(st.integers(0, 3))
        seed = seed_for_word(draw(WORDS), position)
    else:
        seed = draw(st.one_of(st.integers(0, MASK64), st.integers(2**63, MASK64)))
    return model, trials, seed, policy


def _run_outputs(model, trials, seed, policy, reveal):
    """Statistics and CSV bytes of one run."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "records.csv"
        stats = simulate(model, trials, seed, policy=policy, csv_path=path, reveal_hidden=reveal)
        return stats, path.read_bytes()


def _edge_model():
    """Exact 3x2 model whose cumulative tables hold dyadic values (so a
    draw can equal one exactly) and end in zero-probability outcomes."""
    half = {"++": "1/2", "+-": "1/2", "-+": 0, "--": 0}
    quarter = {"++": 0, "+-": "1/4", "-+": "1/4", "--": "1/2"}
    pairs = [f"{a}|{b}" for a in ("a1", "a2", "a3") for b in ("b1", "b2")]
    return parse_theory(json.dumps({
        "name": "edge draws",
        "scenario": {"alice_settings": [{"id": a} for a in ("a1", "a2", "a3")],
                     "bob_settings": [{"id": b} for b in ("b1", "b2")]},
        "ensemble": [{"id": "s1", "weight": "1/4"}, {"id": "s2", "weight": "3/4"}],
        "kernel": {"s1": {p: half for p in pairs},
                   "s2": {p: (quarter if i % 2 else half) for i, p in enumerate(pairs)}},
    }))


class TestVectorisedRun:
    def test_edge_draws_pick_like_the_scalar_sampler(self):
        """Every slot of a trial forced to the words where a pick can go
        wrong: 0, draws equal to a cumulative value, setting boundaries
        k/n, and the top words that round to 1.0."""
        model = _edge_model()
        words = {0, 1, MASK64, MASK64 - 2**10, MASK64 - 2**11}
        words |= {int(c * 2**64) for c in (0.25, 0.5, 0.75)}
        words |= {k * 2**64 // n + d for n in (2, 3) for k in range(1, n) for d in (-1, 0, 1, 2048)}
        policies = (UniformSettingPolicy(), FixedSequencePolicy(pairs=(("a3", "b2"), ("a1", "b1"))))
        for policy in policies:
            for slot in range(DRAWS_PER_TRIAL):
                for word in words:
                    seed = seed_for_word(word, 2 * DRAWS_PER_TRIAL + slot)
                    assert records_of(model, 3, seed, policy) == reference_run(
                        model, 3, seed, policy
                    ), (policy, slot, word)

    @settings(max_examples=120, deadline=None)
    @given(simulation_inputs())
    def test_records_equal_the_scalar_reference_sampler(self, case):
        model, trials, seed, policy = case
        assert records_of(model, trials, seed, policy) == reference_run(model, trials, seed, policy)

    @settings(max_examples=60, deadline=None)
    @given(simulation_inputs(), st.booleans(), st.data())
    def test_chunk_size_never_changes_records_stats_or_csv(self, case, reveal, data):
        """The CSV is the reference records as the reference writer writes
        them, the statistics are those of the records' counts, and neither
        depends on the chunk size."""
        model, trials, seed, policy = case
        records = reference_run(model, trials, seed, policy)
        stats, csv_bytes = _run_outputs(model, trials, seed, policy, reveal)
        assert csv_bytes == reference_csv(records, reveal_hidden=reveal)
        counts = Counter((r.a_id, r.b_id, r.outcome_a, r.outcome_b) for r in records)
        tensor = count_tensor(model.scenario, counts)
        assert stats == montecarlo._summarize_counts(tensor, trials, model.scenario, None, seed)
        chunk = data.draw(st.integers(1, trials), label="chunk")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(montecarlo, "_CHUNK", chunk)
            assert _run_outputs(model, trials, seed, policy, reveal) == (stats, csv_bytes)


def _scenario(na: int, nb: int, shared: bool = False) -> Scenario:
    """na x nb settings named a1.. and b1.., or s1.. on both wings."""
    alice, bob = ("s", "s") if shared else ("a", "b")
    return Scenario(tuple(Setting(f"{alice}{i + 1}") for i in range(na)),
                    tuple(Setting(f"{bob}{j + 1}") for j in range(nb)))


@st.composite
def count_summaries(draw):
    """(scenario, C, roles): a 1x1 to 3x3 count tensor with zero cells and
    whole pairs left unobserved, and CHSH roles that are None or drawn from
    the scenario's ids (so often naming an unobserved pair)."""
    na, nb = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    scenario = _scenario(na, nb, draw(st.booleans()))
    cell = st.one_of(st.just(0), st.integers(1, 60), st.integers(1, 2**40))
    tensor = np.array(draw(st.lists(cell, min_size=na * nb * 4, max_size=na * nb * 4)),
                      dtype=np.int64).reshape(na, nb, 2, 2)
    seen = draw(st.lists(st.booleans(), min_size=na * nb, max_size=na * nb))
    tensor = tensor * np.array(seen, dtype=np.int64).reshape(na, nb, 1, 1)
    a_ids, b_ids = st.sampled_from(scenario.alice_ids()), st.sampled_from(scenario.bob_ids())
    roles = draw(st.one_of(st.none(), st.tuples(a_ids, a_ids, b_ids, b_ids)))
    return scenario, tensor, roles


_FULL_2X2 = np.array([[[[7, 1], [2, 5]], [[0, 3], [4, 0]]],
                      [[[1, 6], [6, 1]], [[2**40, 3], [1, 9]]]], dtype=np.int64)


class TestSummaryFromTensor:
    @settings(max_examples=300, deadline=None)
    @given(case=count_summaries(), seed=st.one_of(st.none(), st.integers(0, 2**64 - 1)))
    # 2x2 with every pair seen: default roles, and given roles
    @example(case=(_scenario(2, 2), _FULL_2X2, None), seed=1)
    @example(case=(_scenario(2, 2), _FULL_2X2, ("a2", "a1", "b1", "b2")), seed=2)
    # given roles on a pair never seen
    @example(case=(_scenario(2, 2), _FULL_2X2 * np.array([1, 0]).reshape(1, 2, 1, 1),
                   ("a1", "a2", "b1", "b2")), seed=3)
    def test_summary_equals_the_dict_walk(self, case, seed):
        """The tensor summary gives the old dict walk's statistics and the
        same JSON bytes, for every shape, count and choice of roles."""
        scenario, tensor, roles = case
        trials = int(tensor.sum())
        got = montecarlo._summarize_counts(tensor, trials, scenario, roles, seed)
        want = reference_summary(observed_counts(scenario, tensor), trials, scenario, roles, seed)
        assert got == want
        assert json.dumps(got.to_dict()).encode() == json.dumps(want.to_dict()).encode()

    def test_unknown_role_ids_are_refused_before_the_csv(self, singlet_chsh, tmp_path):
        out = tmp_path / "records.csv"
        for roles in (("zz", "a2", "b1", "b2"), ("a1", "a2", "b1", "zz")):
            with pytest.raises(UnknownIdError, match="zz"):
                simulate(singlet_chsh, 10, seed=1, chsh_roles=roles, csv_path=out)
        assert not out.exists()
