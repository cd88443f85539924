"""EPRB run simulation with counter-based, splittable random streams.

Every random draw is a pure function of (seed, trial, slot), with the
seed a 64-bit word: the stream is the SplitMix64 sequence evaluated at
position trial*4 + slot, so trial i can be generated without generating
trials 0..i-1.  `simulate` is the one engine function over the model: it
checks every argument, then evaluates the stream in numpy uint64 over
fixed-size chunks of trials, tallies each chunk into counts, and
optionally writes each chunk's rows to CSV.  The CSV rows are the run's
records; they depend only on (seed, trial, slot), never on the chunking,
and only one chunk is alive at a time, so memory is flat in the trial
count.  A chunk's rows are one join of one list of four pieces per
trial, none made by a `str()` per trial: the id in two (`_trial_ids`),
then the row's cells and its line end, both precomputed.

The draws pick from running sums over the model's kernel tensor
(`TheoryModel.tensor`), as floats (`_tables`): one over the weights, one
over each cell's four outcomes.

Slots: 0 = hidden state, 1 = Alice setting, 2 = Bob setting, 3 = outcome
pair.  Fixed-sequence setting policies leave slots 1 and 2 unused but
reserved, so switching policy never shifts the other draws.

The summary reads the run's count tensor C[a, b, A, B] with integer sums.
Its CHSH estimate is the one CHSH form of `model`; the roles default to
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
import operator
import os
from typing import NamedTuple

import numpy as np

from .model import (
    BellLabError,
    CHSH_SIGNS,
    JOINT_OUTCOMES,
    OUTCOMES,
    Record,
    Scenario,
    TheoryModel,
    _chsh_form,
    axis_pairs,
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
        z = u64(seed) + (positions + u64(1)) * u64(_GAMMA)
        z = (z ^ (z >> u64(30))) * u64(_MUL1)
        z = (z ^ (z >> u64(27))) * u64(_MUL2)
        return z ^ (z >> u64(31))


def _stream_uniforms(seed: int, positions: np.ndarray) -> np.ndarray:
    """The stream at `positions` as word / 2^64; the top words round to 1.0."""
    return _stream_words(seed, positions).astype(np.float64) / 2.0**64


class UniformSettingPolicy(Record):
    """Each wing picks independently and uniformly among its settings."""


class FixedSequencePolicy(Record):
    """Deterministic setting pairs, cycled over trials."""

    pairs: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        # a list is stored as a tuple: hashable, and equal to the tuple-built policy
        object.__setattr__(self, "pairs", tuple(axis_pairs(self.pairs)))
        if not self.pairs:
            raise BellLabError("fixed-sequence policy needs at least one pair")


SettingPolicy = UniformSettingPolicy | FixedSequencePolicy


def _tables(model: TheoryModel) -> tuple[np.ndarray, np.ndarray]:
    """The cumulative tables, as floats: `state_cum[state]` over the
    weights and `outcome_cum[state, a, b]` over one kernel cell's four
    outcomes.  A decimal cell may dip below 0 within the tolerance and
    counts as 0."""
    kt = model.tensor
    cells = np.maximum(np.array(kt.as_float()).T.reshape(*kt.shape, 4), 0.0)
    return np.cumsum(list(map(float, kt.w))), np.cumsum(cells, axis=-1)


def _integer(value: object, what: str) -> int:
    """`value` as a Python int: an int or a numpy integer, never a bool."""
    if not isinstance(value, bool):
        with contextlib.suppress(TypeError):
            return operator.index(value)
    raise BellLabError(f"{what} must be an int, got {value!r}")


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
        return {**self._asdict(), "far_pair": list(self.far_pair)}


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
            **self._asdict(),
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


#: the last three digits of a trial id: as written below 1000, else zero-padded
_DIGITS = (tuple(map(str, range(1000))), tuple(f"{i:03d}" for i in range(1000)))


def _trial_ids(start: int, stop: int) -> tuple[list[str], list[str]]:
    """The ids str(i) of trials start..stop-1 as two pieces each: str(i //
    1000), made once per block of 1000 ("" below 1000), and the last three digits."""
    heads, digits = [], []
    for block in range(start // 1000, (stop - 1) // 1000 + 1):
        lo, hi = max(start - 1000 * block, 0), min(stop - 1000 * block, 1000)
        heads += [str(block) if block else ""] * (hi - lo)
        digits += _DIGITS[block > 0][lo:hi]
    return heads, digits


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
    (default: exact for rational models, 1e-9 otherwise).  `trials` and
    `seed` are ints (a numpy integer is taken, a bool refused), `policy`
    is None or one of the two policies, `chsh_roles` names four settings,
    and `csv_path` is a str, bytes or os.PathLike path; a bad argument
    raises BellLabError before the CSV is opened.  Only one chunk of
    trials is alive at a time.
    """
    if (trials := _integer(trials, "trial count")) <= 0:
        raise BellLabError(f"trial count must be positive, got {trials}")
    if not 0 <= (seed := _integer(seed, "seed")) <= _MASK64:
        raise BellLabError(f"seed must be in [0, 2^64), got {seed}")
    require_valid(model, tol)
    scen = model.scenario
    if not isinstance(policy, (type(None), UniformSettingPolicy, FixedSequencePolicy)):
        raise BellLabError(f"policy must be None or a setting policy, got {policy!r}")
    fixed = isinstance(policy, FixedSequencePolicy)
    sequence = tuple(map(np.array, scen.pair_indices(policy.pairs))) if fixed else None
    if chsh_roles is not None:  # a bad role fails before the CSV is opened
        if not isinstance(chsh_roles, (tuple, list)) or len(chsh_roles) != 4:
            raise BellLabError(f"chsh_roles must name four settings (a, a', b, b'), got {chsh_roles!r}")
        scen.pair_indices(zip(chsh_roles[:2], chsh_roles[2:]))
    state_cum, outcome_cum = _tables(model)
    n_s, n_a, n_b = outcome_cum.shape[:3]
    keys = itertools.product(scen.alice_ids(), scen.bob_ids(), JOINT_OUTCOMES)
    tails = np.array([_csv_cells(a, b, *ab) for a, b, ab in keys], dtype=object)
    lambdas = np.array([_csv_cells(s) + "\r\n" for s in model.ensemble.state_ids()], dtype=object)
    counts = np.zeros((n_a, n_b, 2, 2), dtype=np.int64)
    try:  # os.fspath refuses an int, which open() would take as a file descriptor
        sink = None if csv_path is None else open(os.fspath(csv_path), "w", newline="", encoding="utf-8")
    except (TypeError, ValueError) as exc:  # not a path, a NUL byte, or text the file system cannot encode
        raise BellLabError(f"csv_path must be a path, got {csv_path!r}: {exc}") from exc
    with contextlib.nullcontext() if sink is None else sink:
        if sink is not None:
            sink.write("trial,a,b,A,B,lambda\r\n" if reveal_hidden else "trial,a,b,A,B\r\n")
        for start in range(0, trials, _CHUNK):
            # no index array outlives the draws: only the picks stay alive while a chunk is written
            trial = lambda: np.arange(start, min(start + _CHUNK, trials), dtype=np.uint64)
            draw = lambda slot: _stream_uniforms(seed, trial() * np.uint64(DRAWS_PER_TRIAL) + np.uint64(slot))
            # each pick is bisect_right on a cumulative table, clamped to the
            # last index (a draw of 1.0, or a table summing to less than 1)
            state = np.minimum(np.searchsorted(state_cum, draw(SLOT_STATE), side="right"), n_s - 1)
            if sequence is None:
                a = np.minimum((draw(SLOT_ALICE) * n_a).astype(np.int64), n_a - 1)
                b = np.minimum((draw(SLOT_BOB) * n_b).astype(np.int64), n_b - 1)
            else:
                a, b = (pick[(trial() % np.uint64(len(pick))).astype(np.intp)] for pick in sequence)
            joint = (outcome_cum[state, a, b] <= draw(SLOT_OUTCOME)[:, None]).sum(axis=1)
            code = (a * n_b + b) * len(JOINT_OUTCOMES) + np.minimum(joint, len(JOINT_OUTCOMES) - 1)
            counts += np.bincount(code, minlength=counts.size).reshape(counts.shape)
            if sink is not None:
                rows = [""] * (4 * len(code))
                rows[0::4], rows[1::4] = _trial_ids(start, start + len(code))
                rows[2::4] = tails[code].tolist()
                rows[3::4] = lambdas[state].tolist() if reveal_hidden else ["\r\n"] * len(code)
                sink.write("".join(rows))
    return _summarize_counts(counts, trials, scen, chsh_roles, seed)
