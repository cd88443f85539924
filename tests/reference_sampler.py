"""The scalar per-trial sampler and CSV writer, kept as a test oracle.

This is the Monte Carlo loop as it was before the engine was vectorised:
the SplitMix64 stream one word at a time in Python ints, one
`trial_uniform` call per draw, `bisect_right` on Python lists of
cumulative sums, and one `csv.writer` row per record.  Tests hold the
records that `bell_lab.montecarlo.simulate` writes to CSV to these,
draw for draw and byte for byte.

`reference_summary` is the summary as it was before it read the count
tensor: it walks a dict of the observed counts keyed (a, b, A, B) and
writes out its own CHSH sum.  Tests hold the tensor summary to it.
"""

from __future__ import annotations

import csv
import io
import math
from bisect import bisect_right
from typing import NamedTuple

from bell_lab.model import JOINT_OUTCOMES, Scenario, TheoryModel
from bell_lab.montecarlo import (
    DRAWS_PER_TRIAL,
    SLOT_ALICE,
    SLOT_BOB,
    SLOT_OUTCOME,
    SLOT_STATE,
    Estimate,
    ExperimentStats,
    FixedSequencePolicy,
    NoSignalingDelta,
    SettingPolicy,
)

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
MUL1 = 0xBF58476D1CE4E5B9
MUL2 = 0x94D049BB133111EB


def _mix64(z: int) -> int:
    """SplitMix64 finalizer: a bijective avalanche on 64-bit words."""
    z = (z ^ (z >> 30)) * MUL1 & MASK64
    z = (z ^ (z >> 27)) * MUL2 & MASK64
    return z ^ (z >> 31)


def stream_uniform(seed: int, position: int) -> float:
    """The SplitMix64 output at `position`, mapped into [0, 1]."""
    state = (seed + (position + 1) * GAMMA) & MASK64
    return _mix64(state) / 2.0**64


def trial_uniform(seed: int, trial: int, slot: int) -> float:
    if not 0 <= slot < DRAWS_PER_TRIAL:
        raise ValueError(f"slot must be in [0, {DRAWS_PER_TRIAL}), got {slot}")
    return stream_uniform(seed, trial * DRAWS_PER_TRIAL + slot)


class Record(NamedTuple):
    """One trial: the hidden state, the settings and the outcome pair."""

    trial: int
    state_id: str
    a_id: str
    b_id: str
    outcome_a: int
    outcome_b: int


def _cumulative(values: list[float]) -> list[float]:
    total = 0.0
    out = []
    for v in values:
        total += max(0.0, v)
        out.append(total)
    return out


def _pick(cum: list[float], u: float) -> int:
    return min(bisect_right(cum, u), len(cum) - 1)


def reference_run(
    model: TheoryModel, trials: int, seed: int, policy: SettingPolicy
) -> list[Record]:
    seed &= MASK64
    state_ids = model.ensemble.state_ids()
    state_cum = _cumulative([float(e.weight) for e in model.ensemble.entries])
    alice_ids = model.scenario.alice_ids()
    bob_ids = model.scenario.bob_ids()
    outcome_cum = {
        key: _cumulative([float(p) for p in dist.values()])
        for key, dist in model.kernel.cells.items()
    }
    records = []
    for index in range(trials):
        state = state_ids[_pick(state_cum, trial_uniform(seed, index, SLOT_STATE))]
        if isinstance(policy, FixedSequencePolicy):
            a_id, b_id = policy.pairs[index % len(policy.pairs)]
        else:
            ua = trial_uniform(seed, index, SLOT_ALICE)
            ub = trial_uniform(seed, index, SLOT_BOB)
            a_id = alice_ids[min(int(ua * len(alice_ids)), len(alice_ids) - 1)]
            b_id = bob_ids[min(int(ub * len(bob_ids)), len(bob_ids) - 1)]
        cum = outcome_cum[(state, a_id, b_id)]
        outcome_a, outcome_b = JOINT_OUTCOMES[_pick(cum, trial_uniform(seed, index, SLOT_OUTCOME))]
        records.append(Record(index, state, a_id, b_id, outcome_a, outcome_b))
    return records


def reference_csv(records: list[Record], reveal_hidden: bool = False) -> bytes:
    """The CSV of `records`: observable columns `trial,a,b,A,B`, plus the
    hidden-state column `lambda` only when revealed."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["trial", "a", "b", "A", "B"] + (["lambda"] if reveal_hidden else []))
    for rec in records:
        row = [rec.trial, rec.a_id, rec.b_id, rec.outcome_a, rec.outcome_b]
        writer.writerow(row + ([rec.state_id] if reveal_hidden else []))
    return buf.getvalue().encode("utf-8")


def read_records(path) -> list[Record]:
    """The records of a CSV written with the hidden-state column revealed."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["trial", "a", "b", "A", "B", "lambda"], rows[0]
    return [Record(int(t), s, a, b, int(A), int(B)) for t, a, b, A, B, s in rows[1:]]


def reference_summary(
    counts: dict[tuple[str, str, int, int], int],
    trials: int,
    scenario: Scenario,
    chsh_roles: tuple[str, str, str, str] | None,
    seed: int | None,
) -> ExperimentStats:
    """Aggregate counts keyed (a, b, A, B) into estimates; sees outcomes and
    settings only.  `chsh_roles` defaults to declaration order (a1, a2, b1,
    b2) when the scenario is two-by-two and all four pairs were observed."""
    pair_counts: dict[tuple[str, str], int] = {}
    for (a, b, _, _), n in counts.items():
        pair_counts[(a, b)] = pair_counts.get((a, b), 0) + n

    correlators: dict[tuple[str, str], Estimate] = {}
    for pair in scenario.pairs():
        n = pair_counts.get(pair, 0)
        if n == 0:
            continue
        a, b = pair
        e_sum = sum(A * B * counts.get((a, b, A, B), 0) for A, B in JOINT_OUTCOMES)
        est = e_sum / n
        se = math.sqrt(max(0.0, 1.0 - est * est) / n)
        correlators[pair] = Estimate(value=est, std_error=se)

    if chsh_roles is None and len(scenario.alice_settings) == 2 and len(scenario.bob_settings) == 2:
        a1, a2 = scenario.alice_ids()
        b1, b2 = scenario.bob_ids()
        chsh_roles = (a1, a2, b1, b2)
    chsh_est: Estimate | None = None
    if chsh_roles is not None:
        a, a2, b, b2 = chsh_roles
        needed = [(a, b), (a, b2), (a2, b), (a2, b2)]
        if all(pair in correlators for pair in needed):
            value = (
                correlators[(a, b)].value
                + correlators[(a, b2)].value
                + correlators[(a2, b)].value
                - correlators[(a2, b2)].value
            )
            se = math.sqrt(sum(correlators[p].std_error ** 2 for p in needed))
            chsh_est = Estimate(value=value, std_error=se)
        else:
            chsh_roles = None

    def marginal(side: str, own: str, far: str, outcome: int) -> tuple[float, float] | None:
        pair = (own, far) if side == "alice" else (far, own)
        n = pair_counts.get(pair, 0)
        if n == 0:
            return None
        if side == "alice":
            hits = sum(counts.get((own, far, outcome, B), 0) for B in (+1, -1))
        else:
            hits = sum(counts.get((far, own, A, outcome), 0) for A in (+1, -1))
        p = hits / n
        return p, math.sqrt(p * (1.0 - p) / n)

    deltas: list[NoSignalingDelta] = []
    for side, own, outcome, far, later in scenario.far_pairs():
        first = marginal(side, own, far, outcome)
        second = marginal(side, own, later, outcome)
        if first is None or second is None:
            continue
        (p1, se1), (p2, se2) = first, second
        deltas.append(
            NoSignalingDelta(
                side=side,
                outcome=outcome,
                own_setting=own,
                far_pair=(far, later),
                delta=abs(p1 - p2),
                std_error=math.sqrt(se1 * se1 + se2 * se2),
            )
        )

    return ExperimentStats(
        trials=trials,
        seed=seed,
        counts=counts,
        pair_counts=pair_counts,
        correlators=correlators,
        chsh=chsh_est,
        chsh_roles=chsh_roles,
        signal_deltas=tuple(deltas),
    )
