"""EPRB run simulation with counter-based, splittable random streams.

Every random draw is a pure function of (seed, trial, slot): the stream is
the SplitMix64 sequence evaluated at position trial*4 + slot, so trial i
can be generated without generating trials 0..i-1.  `simulate` is the one
engine: it evaluates the stream in numpy uint64 over fixed-size chunks of
trials, tallies each chunk into counts, and optionally writes each chunk's
rows to CSV.  The CSV rows are the run's records; they depend only on
(seed, trial, slot), never on the chunking, and only one chunk is alive at
a time, so memory is flat in the trial count.

The sampler's tables are running sums over the model's kernel tensor
(`TheoryModel.tensor`), as floats: one over the weights, one over each
cell's four outcomes.

Slots: 0 = hidden state, 1 = Alice setting, 2 = Bob setting, 3 = outcome
pair.  Fixed-sequence setting policies leave slots 1 and 2 unused but
reserved, so switching policy never shifts the other draws.

The summary reads the run's count tensor C[a, b, A, B] with integer sums.
Its CHSH estimate is the one CHSH form of `harness`; the roles default to
declaration order on a two-by-two scenario, and an unknown role id is
refused before any record is written.

Statistics deliberately see only observables: hidden-state ids stay out of
the summary and out of the CSV unless explicitly revealed.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .harness import CHSH_SIGNS, _chsh_form
from .model import (
    BellLabError,
    JOINT_OUTCOMES,
    OUTCOMES,
    Scenario,
    TheoryModel,
    require_valid,
)

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB

#: Trials generated per numpy chunk: bounds a run's memory, never its records.
_CHUNK = 1 << 16

DRAWS_PER_TRIAL = 4
SLOT_STATE, SLOT_ALICE, SLOT_BOB, SLOT_OUTCOME = range(DRAWS_PER_TRIAL)


def _stream_words(seed: int, positions: np.ndarray) -> np.ndarray:
    """The SplitMix64 words at uint64 `positions`, before they are scaled
    into [0, 1].  Every operand is np.uint64: under NumPy 1.x a uint64
    scalar meeting a Python int promotes to float64."""
    u64 = np.uint64
    with np.errstate(over="ignore"):
        z = u64(seed & _MASK64) + (positions + u64(1)) * u64(_GAMMA)
        z = (z ^ (z >> u64(30))) * u64(_MUL1)
        z = (z ^ (z >> u64(27))) * u64(_MUL2)
        return z ^ (z >> u64(31))


def _stream_uniforms(seed: int, positions: np.ndarray) -> np.ndarray:
    """The stream at `positions` as word / 2^64; the top words round to 1.0."""
    return _stream_words(seed, positions).astype(np.float64) / 2.0**64


@dataclass(frozen=True)
class UniformSettingPolicy:
    """Each wing picks independently and uniformly among its settings."""


@dataclass(frozen=True)
class FixedSequencePolicy:
    """Deterministic setting pairs, cycled over trials."""

    pairs: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        if not self.pairs:
            raise BellLabError("fixed-sequence policy needs at least one pair")


SettingPolicy = UniformSettingPolicy | FixedSequencePolicy


class _Sampler:
    """One model's cumulative tables as arrays; generates trials in chunks."""

    def __init__(self, model: TheoryModel, trials: int, policy: SettingPolicy | None,
                 tol: float | None):
        if trials <= 0:
            raise BellLabError(f"trial count must be positive, got {trials}")
        require_valid(model, tol)
        self.trials = trials
        self.scenario = scen = model.scenario
        self.state_ids = model.ensemble.state_ids()
        self.alice_ids = scen.alice_ids()
        self.bob_ids = scen.bob_ids()
        # running sums in order; a decimal cell may dip below 0 within the
        # tolerance and counts as 0.  outcome_cum[state, a, b] is the
        # cumulative table of one kernel cell
        kt = model.tensor
        self.state_cum = np.cumsum(kt.w.astype(float))
        cells = kt.as_float().reshape(len(kt.w), len(self.alice_ids), len(self.bob_ids), 4)
        self.outcome_cum = np.cumsum(np.maximum(cells, 0.0), axis=-1)
        self.sequence = None
        if isinstance(policy, FixedSequencePolicy):
            self.sequence = tuple(map(np.array, scen.pair_indices(policy.pairs)))

    def chunks(self, seed: int) -> Iterator[tuple]:
        """Per chunk of at most `_CHUNK` trials: the first trial, then the
        state, Alice setting, Bob setting and joint outcome index arrays."""
        for start in range(0, self.trials, _CHUNK):
            yield (start, *self._chunk(seed, start, min(start + _CHUNK, self.trials)))

    def _chunk(self, seed: int, start: int, stop: int) -> tuple[np.ndarray, ...]:
        t = np.arange(start, stop, dtype=np.uint64)
        base = t * np.uint64(DRAWS_PER_TRIAL)

        def draw(slot: int) -> np.ndarray:
            return _stream_uniforms(seed, base + np.uint64(slot))

        # each pick is bisect_right on a cumulative table, clamped to the
        # last index (a draw of 1.0, or a table summing to less than 1)
        state = np.searchsorted(self.state_cum, draw(SLOT_STATE), side="right")
        state = np.minimum(state, len(self.state_ids) - 1)
        if self.sequence is None:
            n_a, n_b = len(self.alice_ids), len(self.bob_ids)
            a = np.minimum((draw(SLOT_ALICE) * n_a).astype(np.int64), n_a - 1)
            b = np.minimum((draw(SLOT_BOB) * n_b).astype(np.int64), n_b - 1)
        else:
            k = (t % np.uint64(len(self.sequence[0]))).astype(np.intp)
            a, b = self.sequence[0][k], self.sequence[1][k]
        joint = (self.outcome_cum[state, a, b] <= draw(SLOT_OUTCOME)[:, None]).sum(axis=1)
        return state, a, b, np.minimum(joint, len(JOINT_OUTCOMES) - 1)


class Estimate(NamedTuple):
    """A value and its standard error; equals the tuple (value, std_error)
    and iterates over it."""

    value: float
    std_error: float

    def to_dict(self) -> dict:
        return {"value": self.value, "std_error": self.std_error}


class NoSignalingDelta(NamedTuple):
    """Observed shift of one wing's marginal across a far-setting pair;
    equals and iterates as the plain tuple of its fields."""

    side: str
    outcome: int
    own_setting: str
    far_pair: tuple[str, str]
    delta: float
    std_error: float

    def to_dict(self) -> dict:
        return {
            "side": self.side,
            "outcome": self.outcome,
            "own_setting": self.own_setting,
            "far_pair": list(self.far_pair),
            "delta": self.delta,
            "std_error": self.std_error,
        }


class ExperimentStats(NamedTuple):
    """Observable summary of a simulated run.

    Correlator standard errors use the plug-in binomial form
    sqrt((1 - E^2)/n); the CHSH error adds the four in quadrature.  Setting
    pairs never observed are simply absent.  Equals and iterates as the
    plain tuple of its fields.
    """

    trials: int
    seed: int | None
    counts: dict[tuple[str, str, int, int], int]
    pair_counts: dict[tuple[str, str], int]
    correlators: dict[tuple[str, str], Estimate]
    chsh: Estimate | None
    chsh_roles: tuple[str, str, str, str] | None
    signal_deltas: tuple[NoSignalingDelta, ...]

    def to_dict(self) -> dict:
        return {
            "trials": self.trials,
            "seed": self.seed,
            "counts": {
                f"{a}|{b}|{'+' if A > 0 else '-'}{'+' if B > 0 else '-'}": n
                for (a, b, A, B), n in self.counts.items()
            },
            "pair_counts": {f"{a}|{b}": n for (a, b), n in self.pair_counts.items()},
            "correlators": {f"{a}|{b}": e.to_dict() for (a, b), e in self.correlators.items()},
            "chsh": self.chsh.to_dict() if self.chsh else None,
            "chsh_roles": list(self.chsh_roles) if self.chsh_roles else None,
            "signal_deltas": [d.to_dict() for d in self.signal_deltas],
        }


def _summarize_counts(
    counts: np.ndarray,
    trials: int,
    scenario: Scenario,
    chsh_roles: tuple[str, str, str, str] | None,
    seed: int | None,
) -> ExperimentStats:
    """Estimates from the count tensor C[a, b, A, B] (declaration order,
    outcome index 0 is +1); sees outcomes and settings only.  `chsh_roles`
    defaults to `Scenario.default_chsh_roles` and is dropped unless all four
    of its pairs were observed."""
    a_ids, b_ids = scenario.alice_ids(), scenario.bob_ids()
    totals = counts.sum(axis=(2, 3)).tolist()
    e_sums = (counts[..., 0, 0] - counts[..., 0, 1] - counts[..., 1, 0] + counts[..., 1, 1]).tolist()
    # hits[side][a][b][outcome index]: the own wing's marginal counts
    hits = {"alice": counts.sum(axis=3).tolist(), "bob": counts.sum(axis=2).tolist()}
    pair_counts: dict[tuple[str, str], int] = {}
    correlators: dict[tuple[str, str], Estimate] = {}
    # (side, own, far, outcome) -> the own marginal and its standard error
    marginals: dict[tuple[str, str, str, int], tuple[float, float]] = {}
    for (i, a), (j, b) in itertools.product(enumerate(a_ids), enumerate(b_ids)):
        if not (n := totals[i][j]):
            continue
        est = e_sums[i][j] / n
        pair_counts[(a, b)] = n
        correlators[(a, b)] = Estimate(value=est, std_error=math.sqrt(max(0.0, 1.0 - est * est) / n))
        for k, outcome in enumerate(OUTCOMES):
            for side, own, far in (("alice", a, b), ("bob", b, a)):
                p = hits[side][i][j][k] / n
                marginals[(side, own, far, outcome)] = p, math.sqrt(p * (1.0 - p) / n)

    if chsh_roles is None:
        chsh_roles = scenario.default_chsh_roles()
    chsh_est: Estimate | None = None
    if chsh_roles is not None:
        a, a2, b, b2 = chsh_roles
        needed = [(a, b), (a, b2), (a2, b), (a2, b2)]
        if all(pair in correlators for pair in needed):
            value = _chsh_form(CHSH_SIGNS, lambda x, y: correlators[(x, y)].value, *chsh_roles)
            se = math.sqrt(sum(correlators[p].std_error ** 2 for p in needed))
            chsh_est = Estimate(value=value, std_error=se)
        else:
            chsh_roles = None

    deltas = []
    for side, own, outcome, far, later in scenario.far_pairs():
        first, second = (marginals.get((side, own, f, outcome)) for f in (far, later))
        if first is not None and second is not None:
            (p1, se1), (p2, se2) = first, second
            deltas.append(NoSignalingDelta(
                side=side, outcome=outcome, own_setting=own, far_pair=(far, later),
                delta=abs(p1 - p2), std_error=math.sqrt(se1 * se1 + se2 * se2)))
    observed = zip(itertools.product(a_ids, b_ids, JOINT_OUTCOMES), counts.ravel().tolist())
    return ExperimentStats(
        trials=trials, seed=seed, counts={(a, b, *ab): n for (a, b, ab), n in observed if n},
        pair_counts=pair_counts, correlators=correlators, chsh=chsh_est, chsh_roles=chsh_roles,
        signal_deltas=tuple(deltas))


def _csv_cells(*values: object) -> str:
    """`values` as csv.writer quotes them within a row, each after a comma."""
    buf = io.StringIO()
    csv.writer(buf).writerow(("", *values))
    return buf.getvalue()[: -len("\r\n")]


def simulate(
    model: TheoryModel,
    trials: int,
    seed: int,
    policy: SettingPolicy | None = None,
    chsh_roles: tuple[str, str, str, str] | None = None,
    csv_path=None,
    reveal_hidden: bool = False,
    tol: float | None = None,
) -> ExperimentStats:
    """Simulate `trials` EPRB rounds; bit-identical for identical inputs.

    Returns the observable statistics.  With `csv_path`, also writes the
    run's records, one row `trial,a,b,A,B` per trial; `reveal_hidden` adds
    the hidden-state column `lambda`.  The model must be valid at `tol`
    (default: exact for rational models, 1e-9 otherwise).  Only one chunk
    of trials is alive at a time.
    """
    sampler = _Sampler(model, trials, policy, tol)
    if chsh_roles is not None:  # an unknown role id fails before the CSV is opened
        sampler.scenario.pair_indices(zip(chsh_roles[:2], chsh_roles[2:]))
    keys = itertools.product(sampler.alice_ids, sampler.bob_ids, JOINT_OUTCOMES)
    tails = np.array([_csv_cells(a, b, *ab) for a, b, ab in keys], dtype=object)
    lambdas = np.array([_csv_cells(s) + "\r\n" for s in sampler.state_ids], dtype=object)
    counts = np.zeros((len(sampler.alice_ids), len(sampler.bob_ids), 2, 2), dtype=np.int64)
    with (open(csv_path, "w", newline="", encoding="utf-8") if csv_path is not None
          else contextlib.nullcontext()) as sink:
        if sink is not None:
            sink.write("trial,a,b,A,B,lambda\r\n" if reveal_hidden else "trial,a,b,A,B\r\n")
        for start, state, a, b, joint in sampler.chunks(seed):
            code = (a * len(sampler.bob_ids) + b) * len(JOINT_OUTCOMES) + joint
            counts += np.bincount(code, minlength=counts.size).reshape(counts.shape)
            if sink is not None:
                ends = lambdas[state].tolist() if reveal_hidden else itertools.repeat("\r\n")
                trial_ids = map(str, range(start, start + len(code)))
                sink.write("".join(map("".join, zip(trial_ids, tails[code].tolist(), ends))))
    return _summarize_counts(counts, trials, sampler.scenario, chsh_roles, seed)
