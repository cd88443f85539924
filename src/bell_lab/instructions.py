"""Deterministic instruction sets forced by locality plus anti-correlation.

If a theory is Bell Local and perfectly anti-correlated on a set of shared
axes, then for every hidden state that occurs with nonzero probability each
wing's outcome on each axis must already be fixed: a marginal strictly
between 0 and 1 on either wing would put nonzero probability on a
same-outcome event through the factorized joint.  Each hidden state
therefore carries an instruction set: a sign per axis for Alice, with Bob's
sign the negation.  Over n axes there are exactly 2^n possible sign
patterns, so the ensemble splits into 2^n classes (some possibly empty).

`derive_instruction_sets` mechanizes exactly that step in one array pass:
it compares the kernel tensor's `scaled` marginals with the per-state
bounds `at_most` gives the tolerance (for an exact kernel, integer counts
over one denominator per state) in one boolean array over [state, axis,
check].  Its first breach by index is returned as a `DerivationFailure`,
not raised, as a failed derivation is a finding, not a crash; a derived
set is first rebuilt into the axis cells and held to the kernel.  An
`Axis` and the default axes (`model.equal_axes`) are `model`'s, as for
the anti-correlation audit.
`realize_model` validates its model, so weights not summing to 1 raise.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .model import (
    Axis,
    BellLabError,
    EnsembleEntry,
    EnumerationLimitError,
    HiddenStateEnsemble,
    KernelTensor,
    OutcomeDistribution,
    Prob,
    ResponseKernel,
    Scenario,
    TheoryModel,
    equal_axes,
    format_probability,
    require_valid,
)

_MAX_AXES = 16


class InstructionSetError(BellLabError):
    """An instruction set is malformed or does not cover the scenario."""


@dataclass(frozen=True)
class InstructionSet:
    """Per-state deterministic outcomes on shared axes.

    `assignments` maps state_id -> axis -> (alice_value, bob_value), each
    the int +1 or -1 with bob's the negation of alice's; every state covers
    every axis and has a finite weight.  Settings outside the listed axes
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
            if isinstance(weight := self.weights[state_id], bool) or not abs(weight) < float("inf"):
                raise InstructionSetError(f"state {state_id!r}: weight {weight!r} is not a finite number")
            if set(per_axis) != set(self.axes):
                raise InstructionSetError(
                    f"state {state_id!r} must assign every axis exactly once"
                )
            for axis, (a_val, b_val) in per_axis.items():
                where = f"state {state_id!r}, axis {axis}"
                if not all(type(v) is int and v in (1, -1) for v in (a_val, b_val)):
                    raise InstructionSetError(f"{where}: outcomes must be the ints +1 or -1")
                if b_val != -a_val:
                    raise InstructionSetError(
                        f"{where}: anti-correlation requires bob = -alice, got ({a_val}, {b_val})")

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


class DerivationFailure(NamedTuple):
    """First obstruction found while deriving instruction sets.

    `marginal` is the offending own-outcome probability: a value strictly
    between 0 and 1 (determinism fails), or one that moves with the far
    setting, or one contradicting anti-correlation across the axis.  The
    record equals and iterates as the plain tuple of its fields.
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


_BREACHES = (
    ("alice", "own-outcome marginal moves with the far setting"),
    ("bob", "own-outcome marginal moves with the far setting"),
    ("alice", "marginal strictly between 0 and 1: outcome not deterministic"),
    ("bob", "marginal strictly between 0 and 1: outcome not deterministic"),
    ("bob", "anti-correlation fails: both wings fixed to the same sign"),
)


def _check_rebuild(kt: KernelTensor, alice: list[int], bob: list[int], signs: np.ndarray, t: float) -> None:
    """Raise BellLabError unless each state's axis cells (a_i, b_j) are
    within 4t of the point (s_i, -s_j) of its `signs[state, axis]`, as the
    derivation's bounds (2t on each wing's marginal) imply; a decimal
    kernel's entries may reach -t and sum to 1 within t, in rounded floats:
    6t + 1e-12."""
    X, D = kt.scaled
    sign = signs[..., None]
    # one-hot over the outcomes (+1, -1) of s_i and of -s_j, per state and axis
    at_a, at_b = (sign == [1, -1]).astype(int), (sign == [-1, 1]).astype(int)
    point = at_a[:, :, None, :, None] * at_b[:, None, :, None, :]
    unit = 1 if D is None else D[:, None, None, None, None]
    bound = kt.at_most(6 * t + 1e-12 if D is None else 4 * t)[:, None, None, None, None]
    if (abs(X[:, alice][:, :, bob] - np.where(point, unit, 0)) > bound).any():
        raise BellLabError("derived instructions do not rebuild the axis cells; derivation bug")


def derive_instruction_sets(
    model: TheoryModel,
    axes: list[Axis] | None = None,
    tol: float | None = None,
) -> InstructionSet | DerivationFailure:
    """Extract per-state deterministic instructions on the given axes.

    For each state and axis the own-outcome marginal on each wing must be
    independent of the far setting, within tolerance of 0 or 1, and the two
    wings must disagree in sign.  The checks form one boolean array over
    [state, axis, check], in that order, and its first True by index is
    returned as a DerivationFailure; otherwise the full instruction set
    with ensemble weights attached.
    """
    t = require_valid(model, tol)
    axes = equal_axes(model.scenario, axes, "no axes to derive on: "
                      "declare equal-axis pairs or give settings matching vectors")
    alice, bob = model.scenario.pair_indices(axes)
    kt, entries = model.tensor, model.ensemble.entries
    # P(+1 | a, b, state) on each wing as `scaled` values, per state and
    # axis: against every far setting, then on the axis itself.  A value
    # stands for more than t exactly when it exceeds at_most(t), and for at
    # least 1 - t when it reaches -at_most(-(1 - t)).
    X = kt.scaled[0]
    plus_a, plus_b = X[..., 0, 0] + X[..., 0, 1], X[..., 0, 0] + X[..., 1, 0]
    low, high = kt.at_most(t)[:, None], -kt.at_most(-(1 - t))[:, None]
    far_a, far_b = plus_a[:, alice, :], plus_b[:, :, bob].transpose(0, 2, 1)
    own_a, own_b = plus_a[:, alice, bob], plus_b[:, alice, bob]
    up_a, up_b = own_a >= high, own_b >= high
    # breach[state, axis, check], the checks in the order of _BREACHES
    breach = np.stack([far_a.max(axis=2) - far_a.min(axis=2) > low,
                       far_b.max(axis=2) - far_b.min(axis=2) > low,
                       ~up_a & (own_a > low), ~up_b & (own_b > low), up_a == up_b], axis=-1)
    if breach.any():
        s, i, check = np.unravel_index(np.argmax(breach), breach.shape)
        marginal = (far_a.max(axis=2), far_b.max(axis=2), own_a, own_b, own_b)[check][s, i]
        side, reason = _BREACHES[check]
        return DerivationFailure(entries[s].state_id, axes[i], side, kt.unscaled(marginal, s), reason)
    signs = np.where(up_a, 1, -1)
    _check_rebuild(kt, alice, bob, signs, t)
    assignments = {e.state_id: {axis: (a, -a) for axis, a in zip(axes, row)}
                   for e, row in zip(entries, signs.tolist())}
    return InstructionSet(tuple(axes), assignments, {e.state_id: e.weight for e in entries})


class PatternClass(NamedTuple):
    """All states sharing one Alice sign pattern across the axes; equals
    and iterates as the plain tuple of its fields."""

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


class ClassPartition(NamedTuple):
    """The full 2^n split of the ensemble by instruction pattern.

    Every pattern is listed, zero-weight classes included, so the count is
    always exactly 2^len(axes).  Equals and iterates as the plain tuple of
    its fields.
    """

    axes: tuple[Axis, ...]
    classes: tuple[PatternClass, ...]

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
        weight = sum((instructions.weights[m] for m in members), Fraction(0))
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
    for side, ids, covered in (("Alice", scenario.alice_ids(), alice_axis),
                               ("Bob", scenario.bob_ids(), bob_axis)):
        missing = [i for i in ids if i not in covered]
        if missing:
            raise InstructionSetError(f"no instruction covers {side} setting {missing[0]!r}")

    states, plays = instructions.state_ids(), instructions.assignments
    cells = {(s, a, b): OutcomeDistribution.point(plays[s][alice_axis[a]][0], plays[s][bob_axis[b]][1])
             for s in states for a in scenario.alice_ids() for b in scenario.bob_ids()}
    ensemble = HiddenStateEnsemble(tuple(EnsembleEntry(s, instructions.weights[s]) for s in states))
    model = TheoryModel(name, scenario, ensemble, ResponseKernel(cells))
    require_valid(model)
    return model
