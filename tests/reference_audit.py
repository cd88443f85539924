"""The per-cell dict walks of the audit chain, kept as test oracles.

These are `behavior`, `check_bell_locality`, `check_anticorrelation`,
`derive_instruction_sets`, the sampler's cumulative tables,
`conditional_marginal` and `HiddenStateEnsemble.weight_of` (here a
function) as bell_lab shipped them before the kernel became
one cached tensor: nested loops over `model.kernel.cell(state, a, b)`,
one `OutcomeDistribution` method call per probability.  Property tests
hold the tensor versions to these, value for value and type for type.
`check_bell_locality` returns the report of rows that bell_lab shipped
before the audit kept its failing checks as columns, and `class_for` is
the `ClassPartition` method that only tests called.
Nothing in the package calls them.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

import numpy as np

from bell_lab.audit import (
    RESIDUAL_METRIC,
    AntiCorrelationReport,
    AxisCheck,
    LocalityViolation,
)
from bell_lab.instructions import (Axis, ClassPartition, DerivationFailure, InstructionSet,
                                    PatternClass)
from bell_lab.model import (
    OUTCOMES,
    BehaviorTable,
    BellLabError,
    EqualAxisError,
    OutcomeDistribution,
    Prob,
    TheoryModel,
    UnknownIdError,
    auto_equal_axes,
    format_probability,
    require_valid,
    resolve_tolerance,
)
from reference_sampler import _cumulative


def behavior(model: TheoryModel, tol: float | None = None) -> BehaviorTable:
    """Ensemble-average the kernel into the observable behavior table.

    Exactness propagates: an all-rational model yields all-rational cells.
    Raises InvalidModelError if the model fails validation.
    """
    require_valid(model, tol)
    cells: dict[tuple[str, str], OutcomeDistribution] = {}
    for a in model.scenario.alice_settings:
        for b in model.scenario.bob_settings:
            acc: list[Prob] = [Fraction(0)] * 4
            for e in model.ensemble.entries:
                dist = model.kernel.cell(e.state_id, a.id, b.id)
                for i, p in enumerate(dist.values()):
                    acc[i] = acc[i] + e.weight * p
            cells[(a.id, b.id)] = OutcomeDistribution(*acc)
    return BehaviorTable(scenario=model.scenario, cells=cells)


def weight_of(model: TheoryModel, state_id: str) -> Prob:
    """The weight of one hidden state; an unknown id raises UnknownIdError."""
    for e in model.ensemble.entries:
        if e.state_id == state_id:
            return e.weight
    raise UnknownIdError(f"unknown hidden-state id {state_id!r}")


def conditional_marginal(
    model: TheoryModel,
    side: str,
    outcome: int,
    own_setting: str,
    far_setting: str,
    state_id: str,
    far_outcome: int | None = None,
    tol: float | None = None,
) -> Prob | None:
    """Kernel-level conditional for one hidden state.

    With `far_outcome` given: P(own outcome | both settings, far outcome, state).
    Without: the plain marginal P(own outcome | both settings, state).
    Returns None when the conditioning event has probability 0 (never 0/0).
    """
    if side not in ("alice", "bob"):
        raise ValueError(f"side must be 'alice' or 'bob', got {side!r}")
    weight_of(model, state_id)
    if side == "alice":
        a_id, b_id = own_setting, far_setting
        model.scenario.alice_setting(a_id)
        model.scenario.bob_setting(b_id)
    else:
        a_id, b_id = far_setting, own_setting
        model.scenario.alice_setting(a_id)
        model.scenario.bob_setting(b_id)
    dist = model.kernel.cell(state_id, a_id, b_id)
    t = resolve_tolerance(model, tol)
    if far_outcome is None:
        return dist.marginal_a(outcome) if side == "alice" else dist.marginal_b(outcome)
    if side == "alice":
        denom = dist.marginal_b(far_outcome)
        joint = dist.prob(outcome, far_outcome)
    else:
        denom = dist.marginal_a(far_outcome)
        joint = dist.prob(far_outcome, outcome)
    if denom <= t:
        return None
    return joint / denom


class LocalityReport(NamedTuple):
    """The rows of every failing check, the worst factorization residual
    and the tolerance, serialized as `bell_lab.audit.LocalityReport` is."""

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


def class_for(partition: ClassPartition, pattern: tuple[int, ...]) -> PatternClass:
    for cls in partition.classes:
        if cls.pattern == pattern:
            return cls
    raise KeyError(f"no class for pattern {pattern}")


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
    if len(set(equal_axis_pairs)) != len(equal_axis_pairs):
        raise BellLabError(f"an axis is given twice in {equal_axis_pairs!r}")
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


def _resolve_sign(value: Prob, tol: float) -> int | None:
    """+1 / -1 when `value` is within tol of 1 / 0, else None."""
    if value >= 1 - tol:
        return +1
    if value <= tol:
        return -1
    return None


def derive_instruction_sets(
    model: TheoryModel,
    axes: list[Axis] | None = None,
    tol: float | None = None,
) -> InstructionSet | DerivationFailure:
    """Extract per-state deterministic instructions on the given axes.

    For each state and axis the own-outcome marginal on each wing must be
    independent of the far setting, within tolerance of 0 or 1, and the two
    wings must disagree in sign.  The first breach is returned as a
    DerivationFailure; otherwise the full instruction set with ensemble
    weights attached.
    """
    t = require_valid(model, tol)
    if axes is None:
        axes = auto_equal_axes(model.scenario)
    if not axes:
        raise EqualAxisError(
            "no axes to derive on: declare equal-axis pairs or give settings matching vectors"
        )
    if len(set(axes)) != len(axes):
        raise BellLabError(f"an axis is given twice in {axes!r}")
    for a_id, b_id in axes:
        model.scenario.alice_setting(a_id)
        model.scenario.bob_setting(b_id)

    signs: dict[str, tuple[int, ...]] = {}
    weights: dict[str, Prob] = {}
    for entry in model.ensemble.entries:
        state = entry.state_id
        row: list[int] = []
        for axis in axes:
            a_id, b_id = axis
            alice_margs = [
                model.kernel.cell(state, a_id, far.id).marginal_a(+1)
                for far in model.scenario.bob_settings
            ]
            if max(alice_margs) - min(alice_margs) > t:
                return DerivationFailure(
                    state, axis, "alice", max(alice_margs),
                    "own-outcome marginal moves with the far setting",
                )
            bob_margs = [
                model.kernel.cell(state, far.id, b_id).marginal_b(+1)
                for far in model.scenario.alice_settings
            ]
            if max(bob_margs) - min(bob_margs) > t:
                return DerivationFailure(
                    state, axis, "bob", max(bob_margs),
                    "own-outcome marginal moves with the far setting",
                )
            alice_marg = model.kernel.cell(state, a_id, b_id).marginal_a(+1)
            a_val = _resolve_sign(alice_marg, t)
            if a_val is None:
                return DerivationFailure(
                    state, axis, "alice", alice_marg,
                    "marginal strictly between 0 and 1: outcome not deterministic",
                )
            bob_marg = model.kernel.cell(state, a_id, b_id).marginal_b(+1)
            b_val = _resolve_sign(bob_marg, t)
            if b_val is None:
                return DerivationFailure(
                    state, axis, "bob", bob_marg,
                    "marginal strictly between 0 and 1: outcome not deterministic",
                )
            if b_val != -a_val:
                return DerivationFailure(
                    state, axis, "bob", bob_marg,
                    "anti-correlation fails: both wings fixed to the same sign",
                )
            row.append(a_val)  # Bob's is -a_val, checked above
        signs[state] = tuple(row)
        weights[state] = entry.weight
    return InstructionSet(axes=tuple(axes), signs=signs, weights=weights)


def sampler_tables(model: TheoryModel) -> tuple[np.ndarray, np.ndarray]:
    """The sampler's cumulative tables: `state_cum[state]` over the weights
    and `outcome_cum[state, a, b]` over one kernel cell's four outcomes."""
    state_ids = model.ensemble.state_ids()
    alice_ids = model.scenario.alice_ids()
    bob_ids = model.scenario.bob_ids()
    state_cum = np.array(_cumulative([float(e.weight) for e in model.ensemble.entries]))
    # outcome_cum[state, a, b] is the cumulative table of one kernel cell
    outcome_cum = np.array([
        [
            [_cumulative([float(p) for p in model.kernel.cell(s, a, b).values()])
             for b in bob_ids]
            for a in alice_ids
        ]
        for s in state_ids
    ])
    return state_cum, outcome_cum
