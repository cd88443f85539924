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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .model import (
    BehaviorTable,
    BellLabError,
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


def check_bell_locality(model: TheoryModel, tol: float | None = None) -> LocalityReport:
    """Audit every (state, a, b, A, B) cell for both locality forms.

    Reference marginals are taken against the first far setting in
    declaration order; far-setting dependence then surfaces as a violation
    on the cell that moved.  Conditioning on zero-probability far outcomes
    is skipped (the factorized form still covers those cells).
    """
    t = require_valid(model, tol)
    scen = model.scenario
    ref_b = scen.bob_settings[0].id
    ref_a = scen.alice_settings[0].id

    violations: list[LocalityViolation] = []
    worst: Prob = Fraction(0)

    for entry in model.ensemble.entries:
        state = entry.state_id
        own_a = {
            (a.id, A): model.kernel.cell(state, a.id, ref_b).marginal_a(A)
            for a in scen.alice_settings
            for A in OUTCOMES
        }
        own_b = {
            (b.id, B): model.kernel.cell(state, ref_a, b.id).marginal_b(B)
            for b in scen.bob_settings
            for B in OUTCOMES
        }
        for a in scen.alice_settings:
            for b in scen.bob_settings:
                dist = model.kernel.cell(state, a.id, b.id)
                if b.id != ref_b:
                    for A in OUTCOMES:
                        lhs = dist.marginal_a(A)
                        rhs = own_a[(a.id, A)]
                        resid = abs(lhs - rhs)
                        if resid > t:
                            violations.append(
                                LocalityViolation(
                                    "conditional-alice", state, a.id, b.id, A, None, lhs, rhs, resid
                                )
                            )
                if a.id != ref_a:
                    for B in OUTCOMES:
                        lhs = dist.marginal_b(B)
                        rhs = own_b[(b.id, B)]
                        resid = abs(lhs - rhs)
                        if resid > t:
                            violations.append(
                                LocalityViolation(
                                    "conditional-bob", state, a.id, b.id, None, B, lhs, rhs, resid
                                )
                            )
                for A in OUTCOMES:
                    for B in OUTCOMES:
                        denom_b = dist.marginal_b(B)
                        if denom_b > t:
                            lhs = dist.prob(A, B) / denom_b
                            rhs = own_a[(a.id, A)]
                            resid = abs(lhs - rhs)
                            if resid > t:
                                violations.append(
                                    LocalityViolation(
                                        "conditional-alice", state, a.id, b.id, A, B, lhs, rhs, resid
                                    )
                                )
                        denom_a = dist.marginal_a(A)
                        if denom_a > t:
                            lhs = dist.prob(A, B) / denom_a
                            rhs = own_b[(b.id, B)]
                            resid = abs(lhs - rhs)
                            if resid > t:
                                violations.append(
                                    LocalityViolation(
                                        "conditional-bob", state, a.id, b.id, A, B, lhs, rhs, resid
                                    )
                                )
                for A in OUTCOMES:
                    for B in OUTCOMES:
                        joint = dist.prob(A, B)
                        product = own_a[(a.id, A)] * own_b[(b.id, B)]
                        resid = abs(joint - product)
                        if resid > t:
                            violations.append(
                                LocalityViolation(
                                    "factorization", state, a.id, b.id, A, B, joint, product, resid
                                )
                            )
                            if resid > worst:
                                worst = resid
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
    for a_id, b_id in equal_axis_pairs:
        model.scenario.alice_setting(a_id)
        model.scenario.bob_setting(b_id)
    checks: list[AxisCheck] = []
    for entry in model.ensemble.entries:
        for a_id, b_id in equal_axis_pairs:
            dist = model.kernel.cell(entry.state_id, a_id, b_id)
            ok = dist.pp <= t and dist.mm <= t
            checks.append(AxisCheck(entry.state_id, a_id, b_id, dist.pp, dist.mm, ok))
    return AntiCorrelationReport(
        axes_checked=tuple(equal_axis_pairs), checks=tuple(checks), tolerance=t
    )
