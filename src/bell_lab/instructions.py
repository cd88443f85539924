"""Deterministic instruction sets forced by locality plus anti-correlation.

If a theory is Bell Local and perfectly anti-correlated on a set of shared
axes, then for every hidden state that occurs with nonzero probability each
wing's outcome on each axis must already be fixed: a marginal strictly
between 0 and 1 on either wing would put nonzero probability on a
same-outcome event through the factorized joint.  Each hidden state
therefore carries an instruction set: a sign per axis for Alice, with Bob's
sign the negation.  Over n axes there are exactly 2^n possible sign
patterns, so the ensemble splits into 2^n classes (some possibly empty).

`derive_instruction_sets` mechanizes exactly that step, comparing the
marginals of the kernel tensor's `scaled` values with the per-state
bounds `at_most` gives the tolerance (for an exact kernel, integer counts
over one denominator per state), and returns a structured
`DerivationFailure` naming the first blocking marginal instead of raising,
because a failed derivation is a finding, not a crash.  `realize_model`
validates the model it builds, so weights that do not sum to 1 raise.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .audit import EqualAxisError, auto_equal_axes
from .model import (
    BellLabError,
    EnsembleEntry,
    EnumerationLimitError,
    HiddenStateEnsemble,
    OutcomeDistribution,
    Prob,
    ResponseKernel,
    Scenario,
    TheoryModel,
    format_probability,
    require_valid,
)

Axis = tuple[str, str]

_MAX_AXES = 16


class InstructionSetError(BellLabError):
    """An instruction set is malformed or does not cover the scenario."""


@dataclass(frozen=True)
class InstructionSet:
    """Per-state deterministic outcomes on shared axes.

    `assignments` maps state_id -> axis -> (alice_value, bob_value); the
    bob value must be the negation of the alice value on every axis, and
    every state must cover every axis.  Settings outside the listed axes
    are simply absent: nothing constrains them.
    """

    axes: tuple[Axis, ...]
    assignments: dict[str, dict[Axis, tuple[int, int]]]
    weights: dict[str, Prob]

    def __post_init__(self) -> None:
        if len(set(self.axes)) != len(self.axes):
            raise InstructionSetError("duplicate axes in instruction set")
        if set(self.assignments) != set(self.weights):
            raise InstructionSetError("assignments and weights must cover the same states")
        for state_id, per_axis in self.assignments.items():
            if set(per_axis) != set(self.axes):
                raise InstructionSetError(
                    f"state {state_id!r} must assign every axis exactly once"
                )
            for axis, (a_val, b_val) in per_axis.items():
                if a_val not in (+1, -1) or b_val not in (+1, -1):
                    raise InstructionSetError(
                        f"state {state_id!r}, axis {axis}: outcomes must be +1 or -1"
                    )
                if b_val != -a_val:
                    raise InstructionSetError(
                        f"state {state_id!r}, axis {axis}: anti-correlation requires "
                        f"bob = -alice, got ({a_val}, {b_val})"
                    )

    def state_ids(self) -> tuple[str, ...]:
        return tuple(self.assignments)

    def pattern(self, state_id: str, axes: tuple[Axis, ...] | None = None) -> tuple[int, ...]:
        """Alice's sign per axis, in axis order."""
        use = self.axes if axes is None else axes
        per_axis = self.assignments[state_id]
        return tuple(per_axis[axis][0] for axis in use)

    def to_dict(self) -> dict:
        return {
            "axes": [list(axis) for axis in self.axes],
            "states": {
                state_id: {
                    "weight": format_probability(self.weights[state_id]),
                    "outcomes": {
                        f"{axis[0]}|{axis[1]}": list(vals) for axis, vals in per_axis.items()
                    },
                }
                for state_id, per_axis in self.assignments.items()
            },
        }


@dataclass(frozen=True)
class DerivationFailure:
    """First obstruction found while deriving instruction sets.

    `marginal` is the offending own-outcome probability: a value strictly
    between 0 and 1 (determinism fails), or one that moves with the far
    setting, or one contradicting anti-correlation across the axis.
    """

    state_id: str
    axis: Axis
    side: str
    marginal: Prob
    reason: str

    def to_dict(self) -> dict:
        return {
            "state": self.state_id,
            "axis": list(self.axis),
            "side": self.side,
            "marginal": format_probability(self.marginal),
            "reason": self.reason,
        }


def _resolve_sign(value: Prob, low: Prob, high: Prob) -> int | None:
    """+1 / -1 when `value` is at least `high` / at most `low`, else None."""
    if value >= high:
        return +1
    if value <= low:
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
    alice, bob = model.scenario.pair_indices(axes)
    kt = model.tensor
    # P(+1 | a, b, state) on each wing as `scaled` values, per state and
    # axis: against every far setting, then on the axis itself.  A value
    # stands for more than t exactly when it exceeds at_most(t), and for at
    # least 1 - t when it reaches -at_most(-(1 - t)).
    X = kt.scaled[0]
    plus_a, plus_b = X[..., 0, 0] + X[..., 0, 1], X[..., 0, 0] + X[..., 1, 0]
    low, high = kt.at_most(t).tolist(), (-kt.at_most(-(1 - t))).tolist()
    alice_rows = plus_a[:, alice, :].tolist()
    bob_rows = plus_b[:, :, bob].transpose(0, 2, 1).tolist()
    alice_own = plus_a[:, alice, bob].tolist()
    bob_own = plus_b[:, alice, bob].tolist()

    assignments: dict[str, dict[Axis, tuple[int, int]]] = {}
    weights: dict[str, Prob] = {}
    for s, entry in enumerate(model.ensemble.entries):
        state = entry.state_id
        per_axis: dict[Axis, tuple[int, int]] = {}
        for i, axis in enumerate(axes):
            for side, margs in (("alice", alice_rows[s][i]), ("bob", bob_rows[s][i])):
                if max(margs) - min(margs) > low[s]:
                    return DerivationFailure(
                        state, axis, side, kt.unscaled(max(margs), s),
                        "own-outcome marginal moves with the far setting",
                    )
            alice_marg = alice_own[s][i]
            a_val = _resolve_sign(alice_marg, low[s], high[s])
            if a_val is None:
                return DerivationFailure(
                    state, axis, "alice", kt.unscaled(alice_marg, s),
                    "marginal strictly between 0 and 1: outcome not deterministic",
                )
            bob_marg = bob_own[s][i]
            b_val = _resolve_sign(bob_marg, low[s], high[s])
            if b_val is None:
                return DerivationFailure(
                    state, axis, "bob", kt.unscaled(bob_marg, s),
                    "marginal strictly between 0 and 1: outcome not deterministic",
                )
            if b_val != -a_val:
                return DerivationFailure(
                    state, axis, "bob", kt.unscaled(bob_marg, s),
                    "anti-correlation fails: both wings fixed to the same sign",
                )
            per_axis[axis] = (a_val, b_val)
        assignments[state] = per_axis
        weights[state] = entry.weight
    return InstructionSet(axes=tuple(axes), assignments=assignments, weights=weights)


@dataclass(frozen=True)
class PatternClass:
    """All states sharing one Alice sign pattern across the axes."""

    pattern: tuple[int, ...]
    members: tuple[str, ...]
    weight: Prob

    @property
    def nonempty(self) -> bool:
        return bool(self.members)

    def label(self) -> str:
        return "".join("+" if s > 0 else "-" for s in self.pattern)

    def to_dict(self) -> dict:
        return {
            "pattern": self.label(),
            "members": list(self.members),
            "weight": format_probability(self.weight),
            "nonempty": self.nonempty,
        }


@dataclass(frozen=True)
class ClassPartition:
    """The full 2^n split of the ensemble by instruction pattern.

    Every pattern is listed, zero-weight classes included, so the count is
    always exactly 2^len(axes).
    """

    axes: tuple[Axis, ...]
    classes: tuple[PatternClass, ...]

    def class_for(self, pattern: tuple[int, ...]) -> PatternClass:
        for cls in self.classes:
            if cls.pattern == pattern:
                return cls
        raise KeyError(f"no class for pattern {pattern}")

    def nonempty_classes(self) -> tuple[PatternClass, ...]:
        return tuple(c for c in self.classes if c.nonempty)

    def total_weight(self) -> Prob:
        total: Prob = Fraction(0)
        for c in self.classes:
            total = total + c.weight
        return total

    def to_dict(self) -> dict:
        return {
            "axes": [list(axis) for axis in self.axes],
            "class_count": len(self.classes),
            "classes": [c.to_dict() for c in self.classes],
        }


def classify_states(
    instructions: InstructionSet, axes: tuple[Axis, ...] | None = None
) -> ClassPartition:
    """Group states by Alice's sign pattern over `axes` (default: all axes);
    past 16 axes, raise EnumerationLimitError."""
    use = instructions.axes if axes is None else tuple(axes)
    for axis in use:
        if axis not in instructions.axes:
            raise InstructionSetError(f"axis {axis} is not part of the instruction set")
    if len(use) > _MAX_AXES:
        raise EnumerationLimitError(
            f"refusing to enumerate 2^{len(use)} classes (limit 2^{_MAX_AXES})"
        )
    by_pattern: dict[tuple[int, ...], list[str]] = {}
    for state_id in instructions.state_ids():
        by_pattern.setdefault(instructions.pattern(state_id, use), []).append(state_id)
    classes = []
    for pattern in itertools.product((+1, -1), repeat=len(use)):
        members = tuple(by_pattern.get(pattern, ()))
        weight: Prob = Fraction(0)
        for m in members:
            weight = weight + instructions.weights[m]
        classes.append(PatternClass(pattern=pattern, members=members, weight=weight))
    return ClassPartition(axes=use, classes=tuple(classes))


def realize_model(
    instructions: InstructionSet,
    scenario: Scenario,
    name: str = "realized instruction model",
) -> TheoryModel:
    """Build the deterministic theory that plays out an instruction set.

    Every scenario setting must appear in exactly one axis on its wing;
    each kernel cell then puts probability 1 on the instructed outcome
    pair, exactly.  The model must pass `validate_theory` (InvalidModelError).
    """
    alice_axis: dict[str, Axis] = {}
    bob_axis: dict[str, Axis] = {}
    for axis in instructions.axes:
        a_id, b_id = axis
        if a_id in alice_axis:
            raise InstructionSetError(f"Alice setting {a_id!r} appears in two axes")
        if b_id in bob_axis:
            raise InstructionSetError(f"Bob setting {b_id!r} appears in two axes")
        alice_axis[a_id] = axis
        bob_axis[b_id] = axis
    for s in scenario.alice_settings:
        if s.id not in alice_axis:
            raise InstructionSetError(f"no instruction covers Alice setting {s.id!r}")
    for s in scenario.bob_settings:
        if s.id not in bob_axis:
            raise InstructionSetError(f"no instruction covers Bob setting {s.id!r}")

    cells: dict[tuple[str, str, str], OutcomeDistribution] = {}
    for state_id in instructions.state_ids():
        per_axis = instructions.assignments[state_id]
        for a in scenario.alice_settings:
            for b in scenario.bob_settings:
                a_val = per_axis[alice_axis[a.id]][0]
                b_val = per_axis[bob_axis[b.id]][1]
                cells[(state_id, a.id, b.id)] = OutcomeDistribution.point(a_val, b_val)
    ensemble = HiddenStateEnsemble(
        entries=tuple(
            EnsembleEntry(state_id=s, weight=instructions.weights[s])
            for s in instructions.state_ids()
        )
    )
    model = TheoryModel(
        name=name, scenario=scenario, ensemble=ensemble, kernel=ResponseKernel(cells)
    )
    require_valid(model)
    return model
