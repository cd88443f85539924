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

The hidden-state audits read the model's kernel tensor (`TheoryModel.tensor`):
each locality form is one array expression over `K[state, a, b, A, B]` and
its marginals, and the anti-correlation audit reads the slices
`K[:, a, b, +, +]` and `K[:, a, b, -, -]`.  The signal audit reads the
behavior table.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .model import (
    BehaviorTable,
    BellLabError,
    JOINT_OUTCOMES,
    OUTCOMES,
    Prob,
    Scenario,
    TheoryModel,
    behavior,
    format_probability,
    require_valid,
)

RESIDUAL_METRIC = "max absolute difference between joint cells and products of marginals"

_AXIS_MATCH_TOL = 1e-12


class EqualAxisError(BellLabError):
    """No equal-axis pairs were declared and none could be auto-detected."""


@dataclass(frozen=True)
class LocalityViolation:
    """One cell where a locality equation fails.

    `form` is "factorization" (joint vs product of marginals) or
    "conditional-alice"/"conditional-bob" (far-setting or far-outcome
    dependence of the named wing's marginal; the far outcome slot is None
    when only the far setting was varied).
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
    """Outcome of the Bell Locality audit.

    `worst_residual` is the maximum residual among factorization-form
    violations only (0 when there are none); conditional-form entries are
    listed but scored separately, so the scalar always means the same thing.
    """

    violations: tuple[LocalityViolation, ...]
    worst_residual: Prob
    tolerance: float

    @property
    def bell_local(self) -> bool:
        return not self.violations

    @property
    def verdict(self) -> str:
        return "BellLocal" if self.bell_local else "NotBellLocal"

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "worst_residual": format_probability(self.worst_residual),
            "residual_metric": RESIDUAL_METRIC,
            "tolerance": self.tolerance,
            "violations": [v.to_dict() for v in self.violations],
        }


#: (form, A, B) of the 16 checks on one (state, a, b) cell, in report
#: order: the far-setting forms, the far-outcome forms per joint outcome,
#: then factorization
_SLOTS = (
    [("conditional-alice", A, None) for A in OUTCOMES]
    + [("conditional-bob", None, B) for B in OUTCOMES]
    + [(form, A, B) for A, B in JOINT_OUTCOMES for form in ("conditional-alice", "conditional-bob")]
    + [("factorization", A, B) for A, B in JOINT_OUTCOMES]
)


def check_bell_locality(model: TheoryModel, tol: float | None = None) -> LocalityReport:
    """Audit every (state, a, b, A, B) cell for both locality forms.

    Reference marginals are taken against the first far setting in
    declaration order; far-setting dependence then surfaces as a violation
    on the cell that moved.  Conditioning on zero-probability far outcomes
    is skipped (the factorized form still covers those cells).  Each form
    is one array expression over the kernel tensor; the 16 checks of a
    cell sit on its last axis, so violations come out in the order state,
    a, b, form.
    """
    t = require_valid(model, tol)
    kt = model.tensor
    K, marg_a, marg_b = kt.K, kt.alice_marginals, kt.bob_marginals
    S, na, nb = K.shape[:3]
    own_a = np.broadcast_to(marg_a[:, :, :1, :, None], K.shape)  # P(A | a, first b)
    own_b = np.broadcast_to(marg_b[:, :1, :, None, :], K.shape)  # P(B | first a, b)
    given_b = np.broadcast_to(marg_b[..., None, :], K.shape)     # P(B | a, b)
    given_a = np.broadcast_to(marg_a[..., :, None], K.shape)     # P(A | a, b)

    def conditional(denom: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        live = denom > t
        return np.divide(K, denom, out=np.empty(K.shape, dtype=object), where=live), live

    alice_lhs, alice_live = conditional(given_b)
    bob_lhs, bob_live = conditional(given_a)
    pairs = lambda x, y: np.stack([x, y], axis=-1).reshape(S, na, nb, 8)
    lhs = np.concatenate([marg_a, marg_b, pairs(alice_lhs, bob_lhs), K.reshape(S, na, nb, 4)], -1)
    rhs = np.concatenate([own_a[..., 0], own_b[..., 0, :], pairs(own_a, own_b),
                          (own_a * own_b).reshape(S, na, nb, 4)], -1)
    live = np.concatenate([  # a far-setting form skips the reference far setting
        np.broadcast_to((np.arange(nb) > 0)[:, None], (S, na, nb, 2)),
        np.broadcast_to((np.arange(na) > 0)[:, None, None], (S, na, nb, 2)),
        pairs(alice_live, bob_live),
        np.ones((S, na, nb, 4), dtype=bool),
    ], -1)
    resid = np.subtract(lhs, rhs, out=np.empty(lhs.shape, dtype=object), where=live)
    np.abs(resid, out=resid, where=live)
    bad = np.greater(resid, t, out=np.zeros(live.shape, dtype=bool), where=live)

    states, a_ids, b_ids = model.ensemble.state_ids(), model.scenario.alice_ids(), model.scenario.bob_ids()
    violations = [
        LocalityViolation(_SLOTS[k][0], states[s], a_ids[a], b_ids[b], *_SLOTS[k][1:], *values)
        for s, a, b, k, *values in zip(*(i.tolist() for i in np.nonzero(bad)),
                                       lhs[bad].tolist(), rhs[bad].tolist(), resid[bad].tolist())
    ]
    # every residual listed exceeds t >= 0, and max keeps the first of equals
    worst = max((v.residual for v in violations if v.form == "factorization"), default=Fraction(0))
    return LocalityReport(violations=tuple(violations), worst_residual=worst, tolerance=t)


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


def signal_deltas(table: BehaviorTable, tol: float = 0.0) -> SignalReport:
    """Signal audit of an already-computed behavior table."""

    def marginal(side: str, own: str, far: str, outcome: int) -> Prob:
        if side == "alice":
            return table.cell(own, far).marginal_a(outcome)
        return table.cell(far, own).marginal_b(outcome)

    deltas = tuple(
        SignalDelta(side, outcome, own, (far, later),
                    abs(marginal(side, own, far, outcome) - marginal(side, own, later, outcome)))
        for side, own, outcome, far, later in table.scenario.far_pairs()
    )
    return SignalReport(deltas=deltas, tolerance=tol)


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
    same = model.tensor.K[:, alice, bob]
    checks = [
        AxisCheck(state, a_id, b_id, pp, mm, pp <= t and mm <= t)
        for state, pp_row, mm_row in zip(
            model.ensemble.state_ids(), same[..., 0, 0].tolist(), same[..., 1, 1].tolist()
        )
        for (a_id, b_id), pp, mm in zip(equal_axis_pairs, pp_row, mm_row)
    ]
    return AntiCorrelationReport(
        axes_checked=tuple(equal_axis_pairs), checks=tuple(checks), tolerance=t
    )
