"""Audits for Bell Locality, Signal Locality, and perfect anti-correlation.

Bell Locality is checked at the hidden-state level in two equivalent forms:
the conditional form (each wing's outcome probability conditioned on the far
wing's setting, or setting and outcome, must match its own-setting marginal)
and the factorized form (each joint cell must equal the product of the two
own-setting marginals).  Signal Locality is checked at the observable level:
each wing's marginal must not move when the far setting changes.

The scalar `worst_residual` scores only the factorized form, as the largest
absolute difference between a joint cell and the matching product of
marginals.  That choice of metric is this tool's, not a standard one, and
reports say so.  Conditional-form failures still appear as violations; for
strictly positive kernels the two forms agree on the verdict.

The hidden-state audits read the kernel tensor's `scaled` values: the
integer form `N = K * D[state]` of an exact kernel, else the model's own
`K[state, a, b, A, B]`.  Each locality form is one array expression over
them and their marginals, and only the decide step differs: with the
tolerance written as its exact ratio p / q, an integer check is an
inequality between cross-multiplied Python ints, which decides as the
Fraction comparison with the float tolerance does.  The anti-correlation
audit compares the slices at `[:, a, b, +, +]` and `[:, a, b, -, -]` with
the per-state bound `at_most(t)`.  Fractions are built only for the
values a report lists.  The signal audit reads the behavior table.

The locality report keeps its failing checks as columns.  Its rows
(`LocalityViolation`, a NamedTuple) are zipped from them on first read,
without a Python call per row; the CLI writes JSON from the columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import compress, islice, repeat
from operator import sub
from typing import Iterator, NamedTuple

import numpy as np

from .model import (
    BehaviorTable,
    BellLabError,
    JOINT_OUTCOMES,
    KernelTensor,
    OUTCOMES,
    Prob,
    Scenario,
    TheoryModel,
    behavior,
    format_probability,
    require_valid,
    resolve_tolerance,
)

RESIDUAL_METRIC = "max absolute difference between joint cells and products of marginals"

_AXIS_MATCH_TOL = 1e-12


class EqualAxisError(BellLabError):
    """No equal-axis pairs were declared and none could be auto-detected."""


class LocalityViolation(NamedTuple):
    """One cell where a locality equation fails.

    `form` is "factorization" (joint vs product of marginals) or
    "conditional-alice"/"conditional-bob" (far-setting or far-outcome
    dependence of the named wing's marginal; the far outcome slot is None
    when only the far setting was varied).  A row is a tuple of its nine
    fields, so it is immutable, iterable and indexable, and equals the
    plain tuple of its fields.
    """

    form: str
    state_id: str
    a_id: str
    b_id: str
    outcome_a: int | None
    outcome_b: int | None
    lhs: Prob
    rhs: Prob
    residual: Prob

    def to_dict(self) -> dict:
        return {
            "form": self.form,
            "state": self.state_id,
            "a": self.a_id,
            "b": self.b_id,
            "outcome_a": self.outcome_a,
            "outcome_b": self.outcome_b,
            "lhs": format_probability(self.lhs),
            "rhs": format_probability(self.rhs),
            "residual": format_probability(self.residual),
        }


@dataclass(frozen=True)
class LocalityReport:
    """Outcome of the Bell Locality audit, its failing checks as columns:
    the state, a, b and `SLOTS` index lists (`failing`) of the `ids`, and
    the lhs, rhs and residual lists (`values`).  `violations` is built on
    first read, and `rows(n)` zips only the first n.

    `worst_residual` is the maximum residual among factorization-form
    violations only (0 when there are none); conditional-form entries are
    listed but scored separately, so the scalar always means the same thing.
    """

    ids: tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...]]
    failing: tuple[list[int], list[int], list[int], list[int]]
    values: tuple[list[Prob], list[Prob], list[Prob]]
    worst_residual: Prob
    tolerance: float

    @property
    def bell_local(self) -> bool:
        return not self.failing[0]

    @property
    def verdict(self) -> str:
        return "BellLocal" if self.bell_local else "NotBellLocal"

    def rows(self, stop: int | None = None) -> Iterator[LocalityViolation]:
        (states, a_ids, b_ids), (s, a, b, k) = self.ids, self.failing
        columns = (map(_FORMS.__getitem__, k), map(states.__getitem__, s),
                   map(a_ids.__getitem__, a), map(b_ids.__getitem__, b),
                   map(_OUTCOMES_A.__getitem__, k), map(_OUTCOMES_B.__getitem__, k), *self.values)
        # tuple.__new__ is what LocalityViolation._make calls, without a
        # Python frame per row
        return islice(map(tuple.__new__, repeat(LocalityViolation), zip(*columns)), stop)

    @cached_property
    def violations(self) -> tuple[LocalityViolation, ...]:
        return tuple(self.rows())

    def to_dict(self, as_columns: bool = False) -> dict:
        """With `as_columns`, the report itself stands for its rows, which
        `cli.emit_json`'s encoder hook writes from the columns."""
        return {
            "verdict": self.verdict,
            "worst_residual": format_probability(self.worst_residual),
            "residual_metric": RESIDUAL_METRIC,
            "tolerance": self.tolerance,
            "violations": self if as_columns else [v.to_dict() for v in self.violations],
        }


#: (form, A, B) of the 16 checks on one (state, a, b) cell, in report
#: order: the far-setting forms, the far-outcome forms per joint outcome,
#: then factorization
SLOTS = (
    [("conditional-alice", A, None) for A in OUTCOMES]
    + [("conditional-bob", None, B) for B in OUTCOMES]
    + [(form, A, B) for A, B in JOINT_OUTCOMES for form in ("conditional-alice", "conditional-bob")]
    + [("factorization", A, B) for A, B in JOINT_OUTCOMES]
)
_FORMS, _OUTCOMES_A, _OUTCOMES_B = zip(*SLOTS)
_FACTORIZATION = tuple(form == "factorization" for form in _FORMS)


def _by_slot(setting_a, setting_b, outcome_a, outcome_b, joint) -> np.ndarray:
    """Stack one array per form on a last axis in `SLOTS` order: the
    far-setting forms at [state, a, b, outcome], the far-outcome forms and
    factorization at [state, a, b, A, B]."""
    cells = joint.shape[:3]
    pairs = np.stack([outcome_a, outcome_b], axis=-1).reshape(*cells, 8)
    return np.concatenate([setting_a, setting_b, pairs, joint.reshape(*cells, 4)], -1)


def _setting_live(shape: tuple[int, int, int]) -> tuple[np.ndarray, np.ndarray]:
    """A far-setting form skips the reference far setting."""
    S, na, nb = shape
    return (np.broadcast_to((np.arange(nb) > 0)[:, None], (S, na, nb, 2)),
            np.broadcast_to((np.arange(na) > 0)[:, None, None], (S, na, nb, 2)))


def _checks(kt: KernelTensor, t: float):
    """The 16 checks of every cell on the kernel's `scaled` values: `bad`
    at [state, a, b, slot] and the lhs, rhs and residual lists of the bad
    cells.  Only deciding depends on D: without one, Python's operators
    divide and subtract the model's own values; with one, each side is a
    ratio of ints, lhs = Ln / Ld and rhs = Rn / Rd, which with t = p / q
    fails when |Ln Rd - Rn Ld| q > p Ld Rd, and a Fraction is built only
    for a cell that fails."""
    X, D = kt.scaled
    Ma = X[..., 0] + X[..., 1]        # P(A | a, b) at [state, a, b, A]
    Mb = X[..., 0, :] + X[..., 1, :]  # P(B | a, b) at [state, a, b, B]
    own_a = np.broadcast_to(Ma[:, :, :1, :, None], X.shape)  # P(A | a, first b)
    own_b = np.broadcast_to(Mb[:, :1, :, None, :], X.shape)  # P(B | first a, b)
    given_b = np.broadcast_to(Mb[..., None, :], X.shape)     # P(B | a, b)
    given_a = np.broadcast_to(Ma[..., :, None], X.shape)     # P(A | a, b)
    bound = kt.at_most(t)[:, None, None, None, None]
    alice_live, bob_live = given_b > bound, given_a > bound
    live = _by_slot(*_setting_live(X.shape[:3]), alice_live, bob_live, np.ones(X.shape, dtype=bool))
    Rn = _by_slot(own_a[..., 0], own_b[..., 0, :], own_a, own_b, own_a * own_b)
    if D is None:
        quotient = lambda given, alive: np.divide(X, given, out=np.empty(X.shape, dtype=object), where=alive)
        lhs = _by_slot(Ma, Mb, quotient(given_b, alice_live), quotient(given_a, bob_live), X)
        resid = np.subtract(lhs, Rn, out=np.empty(lhs.shape, dtype=object), where=live)
        np.abs(resid, out=resid, where=live)
        bad = np.greater(resid, t, out=np.zeros(live.shape, dtype=bool), where=live)
        return bad, lhs[bad].tolist(), Rn[bad].tolist(), resid[bad].tolist()
    p, q = Fraction(t).as_integer_ratio()
    D = np.broadcast_to(D[:, None, None, None, None], X.shape)
    Ln = _by_slot(Ma, Mb, X, X, X)
    Ld = _by_slot(D[..., 0], D[..., 0, :], given_b, given_a, D)
    Rd = _by_slot(D[..., 0], D[..., 0, :], D, D, D * D)
    bad = live & (np.abs(Ln * Rd - Rn * Ld) * q > p * Ld * Rd)
    lhs = list(map(Fraction, Ln[bad].tolist(), Ld[bad].tolist()))
    rhs = list(map(Fraction, Rn[bad].tolist(), Rd[bad].tolist()))
    return bad, lhs, rhs, list(map(abs, map(sub, lhs, rhs)))


def check_bell_locality(model: TheoryModel, tol: float | None = None) -> LocalityReport:
    """Audit every (state, a, b, A, B) cell for both locality forms.

    Reference marginals are taken against the first far setting in
    declaration order; far-setting dependence then surfaces as a violation
    on the cell that moved.  Conditioning on zero-probability far outcomes
    is skipped (the factorized form still covers those cells).  Each form
    is one array expression over the kernel tensor, on its integer form
    for an exact model; the 16 checks of a cell sit on its last axis, so
    violations come out in the order state, a, b, form.
    """
    t = require_valid(model, tol)
    bad, lhs, rhs, resid = _checks(model.tensor, t)
    failing = tuple(i.tolist() for i in np.nonzero(bad))
    ids = model.ensemble.state_ids(), model.scenario.alice_ids(), model.scenario.bob_ids()
    # every residual listed exceeds t >= 0, and max keeps the first of equals
    worst = max(compress(resid, map(_FACTORIZATION.__getitem__, failing[3])), default=Fraction(0))
    return LocalityReport(ids, failing, (lhs, rhs, resid), worst_residual=worst, tolerance=t)


@dataclass(frozen=True)
class SignalDelta:
    """Shift of one wing's observable marginal across a far-setting pair."""

    side: str
    outcome: int
    own_setting: str
    far_pair: tuple[str, str]
    delta: Prob

    def to_dict(self) -> dict:
        return {
            "side": self.side,
            "outcome": self.outcome,
            "own_setting": self.own_setting,
            "far_pair": list(self.far_pair),
            "delta": format_probability(self.delta),
        }


@dataclass(frozen=True)
class SignalReport:
    deltas: tuple[SignalDelta, ...]
    tolerance: float

    @property
    def max_delta(self) -> Prob:
        return max((d.delta for d in self.deltas), default=Fraction(0))

    @property
    def signal_local(self) -> bool:
        return all(d.delta <= self.tolerance for d in self.deltas)

    @property
    def verdict(self) -> str:
        return "SignalLocal" if self.signal_local else "Signalling"

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "max_delta": format_probability(self.max_delta),
            "tolerance": self.tolerance,
            "deltas": [d.to_dict() for d in self.deltas],
        }


def signal_deltas(table: BehaviorTable, tol: float | None = None) -> SignalReport:
    """Signal audit of an already-computed behavior table, at the tolerance
    `resolve_tolerance` gives the table for `tol`."""
    t = resolve_tolerance(table, tol)

    def marginal(side: str, own: str, far: str, outcome: int) -> Prob:
        if side == "alice":
            return table.cell(own, far).marginal_a(outcome)
        return table.cell(far, own).marginal_b(outcome)

    deltas = tuple(
        SignalDelta(side, outcome, own, (far, later),
                    abs(marginal(side, own, far, outcome) - marginal(side, own, later, outcome)))
        for side, own, outcome, far, later in table.scenario.far_pairs()
    )
    return SignalReport(deltas=deltas, tolerance=t)


def check_signal_locality(model: TheoryModel, tol: float | None = None) -> SignalReport:
    """Marginalize the model to its behavior, then compare far-setting marginals."""
    t = require_valid(model, tol)
    return signal_deltas(behavior(model, t), t)


def auto_equal_axes(scenario: Scenario) -> list[tuple[str, str]]:
    """Setting pairs that name one shared axis.

    A pair qualifies when both direction vectors agree within 1e-12 per
    component, or when the ids match and no vectors contradict; a shared
    id with two different vectors does not qualify.
    """
    pairs = []
    for a in scenario.alice_settings:
        for b in scenario.bob_settings:
            both = a.direction is not None and b.direction is not None
            vec_match = both and all(
                abs(x - y) <= _AXIS_MATCH_TOL for x, y in zip(a.direction, b.direction)
            )
            if vec_match or (a.id == b.id and not both):
                pairs.append((a.id, b.id))
    return pairs


@dataclass(frozen=True)
class AxisCheck:
    state_id: str
    a_id: str
    b_id: str
    same_plus: Prob
    same_minus: Prob
    ok: bool

    def to_dict(self) -> dict:
        return {
            "state": self.state_id,
            "a": self.a_id,
            "b": self.b_id,
            "p_plus_plus": format_probability(self.same_plus),
            "p_minus_minus": format_probability(self.same_minus),
            "ok": self.ok,
        }


@dataclass(frozen=True)
class AntiCorrelationReport:
    axes_checked: tuple[tuple[str, str], ...]
    checks: tuple[AxisCheck, ...]
    tolerance: float

    @property
    def holds(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def verdict(self) -> str:
        return "AntiCorrelated" if self.holds else "NotAntiCorrelated"

    def offending(self) -> tuple[AxisCheck, ...]:
        return tuple(c for c in self.checks if not c.ok)

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "axes": [list(p) for p in self.axes_checked],
            "tolerance": self.tolerance,
            "checks": [c.to_dict() for c in self.checks],
        }


def check_anticorrelation(
    model: TheoryModel,
    equal_axis_pairs: list[tuple[str, str]] | None = None,
    tol: float | None = None,
) -> AntiCorrelationReport:
    """Require zero same-outcome probability on every declared equal axis.

    Weights are strictly positive, so the per-state requirement here is
    equivalent to the observable-level one.  With `equal_axis_pairs` omitted
    the axes are auto-detected from matching direction vectors.
    """
    t = require_valid(model, tol)
    if equal_axis_pairs is None:
        equal_axis_pairs = auto_equal_axes(model.scenario)
    if not equal_axis_pairs:
        raise EqualAxisError(
            "no equal-axis pairs: declare them explicitly or give both wings matching vectors"
        )
    alice, bob = model.scenario.pair_indices(equal_axis_pairs)
    kt = model.tensor
    X = kt.scaled[0]
    pp, mm, bound = X[:, alice, bob, 0, 0], X[:, alice, bob, 1, 1], kt.at_most(t)[:, None]
    ok_rows = ((pp <= bound) & (mm <= bound)).tolist()
    shown, states = np.frompyfunc(kt.unscaled, 2, 1), np.arange(len(X))[:, None]
    pp_rows, mm_rows = shown(pp, states).tolist(), shown(mm, states).tolist()
    checks = tuple(AxisCheck(state, a_id, b_id, pp, mm, ok)
                   for state, *rows in zip(model.ensemble.state_ids(), pp_rows, mm_rows, ok_rows)
                   for (a_id, b_id), pp, mm, ok in zip(equal_axis_pairs, *rows))
    return AntiCorrelationReport(axes_checked=tuple(equal_axis_pairs), checks=checks, tolerance=t)
