"""Deterministic instruction sets forced by locality plus anti-correlation.

If a theory is Bell Local and perfectly anti-correlated on a set of shared
axes, then for every hidden state that occurs with nonzero probability each
wing's outcome on each axis must already be fixed: a marginal strictly
between 0 and 1 on either wing would put nonzero probability on a
same-outcome event through the factorized joint.  Each hidden state
therefore carries an instruction set: a sign per axis for Alice, with Bob's
the negation; an `InstructionSet` stores Alice's signs alone.  There are
2^n sign patterns on n axes, so 2^n classes, some possibly empty.

`derive_instruction_sets` mechanizes exactly that step axis by axis,
over every state at once: it compares the kernel tensor's `scaled`
marginals with the per-state bounds `at_most` gives the tolerance (for an
exact kernel, integer counts over one denominator per state).  Its first
breach is returned as a `DerivationFailure`, not raised, as a failed
derivation is a finding, not a crash; a derived set is first rebuilt into
the axis cells and held to the kernel.  An `Axis` and the default axes
(`model.equal_axes`) are `model`'s, as for the anti-correlation audit.
`realize_model` validates its model, so weights not summing to 1 raise.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product, repeat
from operator import add, and_, eq, ge, gt, mul, not_, sub
from typing import NamedTuple

from .model import (
    Axis,
    BellLabError,
    EnsembleEntry,
    EnumerationLimitError,
    HiddenStateEnsemble,
    KernelTensor,
    OutcomeDistribution,
    Prob,
    Record,
    ResponseKernel,
    Scenario,
    TheoryModel,
    axis_pairs,
    equal_axes,
    format_probability,
    require_valid,
    value_fault,
)

_MAX_AXES = 16


class InstructionSetError(BellLabError):
    """An instruction set is malformed or does not cover the scenario."""


class InstructionSet(Record):
    """Per-state deterministic outcomes on shared axes.

    `signs` maps state_id -> Alice's sign on each axis, in axis order: a
    tuple of the ints +1 and -1.  Bob's outcome on an axis is always the
    negation of Alice's, so it is not stored.  Every state's weight keeps
    `model.value_fault`'s rule, as a model's weights do.  Settings outside
    the listed axes are simply absent: nothing constrains them.
    """

    axes: tuple[Axis, ...]
    signs: dict[str, tuple[int, ...]]
    weights: dict[str, Prob]

    def __post_init__(self) -> None:
        if len(set(axis_pairs(self.axes, InstructionSetError))) != len(self.axes):
            raise InstructionSetError("duplicate axes in instruction set")
        if not (isinstance(self.signs, dict) and isinstance(self.weights, dict)
                and self.signs.keys() == self.weights.keys()):
            raise InstructionSetError("signs and weights must be dicts that cover the same states")
        for state_id, row in self.signs.items():
            if value_fault(weight := self.weights[state_id]):
                raise InstructionSetError(f"state {state_id!r}: weight {weight!r} is not a finite number")
            if not (isinstance(row, tuple) and len(row) == len(self.axes)
                    and all(type(v) is int and v in (1, -1) for v in row)):
                raise InstructionSetError(f"state {state_id!r}: signs must be a tuple of ints +1 or -1 per axis")

    def to_dict(self) -> dict:
        return {
            "axes": [list(axis) for axis in self.axes],
            "states": {
                state_id: {
                    "weight": format_probability(self.weights[state_id]),
                    "outcomes": {f"{a}|{b}": [s, -s] for (a, b), s in zip(self.axes, row)},
                }
                for state_id, row in self.signs.items()
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


def _check_rebuild(kt: KernelTensor, alice: list[int], bob: list[int], signs: list[list[int]], t: float) -> None:
    """Raise BellLabError unless each state's axis cells (a_i, b_j) are
    within 4t of the point (s_i, -s_j) of its `signs[axis][state]`, as the
    derivation's bounds (2t on each wing's marginal) imply; a decimal
    kernel's entries may reach -t and sum to 1 within t, in rounded floats:
    6t + 1e-12."""
    X, D = kt.scaled
    _, na, nb = kt.shape
    bound = kt.at_most(6 * t + 1e-12 if D is None else 4 * t)
    unit = [1] * len(bound) if D is None else D
    for a, sign_a in zip(alice, signs):
        for b, sign_b in zip(bob, signs):
            # per state, the one entry of A = s_i and B = -s_j; outcome index 0 is +1 and 1 is -1
            at = [2 * (i < 0) + (j > 0) for i, j in zip(sign_a, sign_b)]
            for k, column in enumerate(X):
                point = map(mul, unit, map(eq, at, repeat(k)))
                if any(map(gt, map(abs, map(sub, column[a * nb + b::na * nb], point)), bound)):
                    raise BellLabError("derived instructions do not rebuild the axis cells; derivation bug")


def derive_instruction_sets(
    model: TheoryModel,
    axes: list[Axis] | None = None,
    tol: float | None = None,
) -> InstructionSet | DerivationFailure:
    """Extract per-state deterministic instructions on the given axes.

    For each state and axis the own-outcome marginal on each wing must be
    independent of the far setting, within tolerance of 0 or 1, and the two
    wings must disagree in sign.  The checks run axis by axis over every
    state at once, in the order of `_BREACHES`, and the first breach in
    state, axis, check order is returned as a DerivationFailure; otherwise
    the full instruction set with ensemble weights attached.
    """
    t = require_valid(model, tol)
    axes = equal_axes(model.scenario, axes, "no axes to derive on: "
                      "declare equal-axis pairs or give settings matching vectors")
    alice, bob = model.scenario.pair_indices(axes)
    kt, entries = model.tensor, model.ensemble.entries
    _, na, nb = kt.shape
    per = na * nb
    # P(+1 | a, b, state) on each wing as `scaled` values, per cell; a cell's
    # column [a * nb + b::per] runs over the states.  A value stands for more
    # than t exactly when it exceeds at_most(t), and for at least 1 - t when
    # it reaches -at_most(-(1 - t)).
    pp, pm, mp, _ = kt.scaled[0]
    plus_a, plus_b = list(map(add, pp, pm)), list(map(add, pp, mp))
    low, high = kt.at_most(t), [-v for v in kt.at_most(-(1 - t))]
    found, signs = [], []  # per axis: its first breach, and each state's sign
    for i, (a, b) in enumerate(zip(alice, bob)):
        # against every far setting, then on the axis itself
        far_a = list(zip(*(plus_a[a * nb + f::per] for f in range(nb))))
        far_b = list(zip(*(plus_b[f * nb + b::per] for f in range(na))))
        own_a, own_b = plus_a[a * nb + b::per], plus_b[a * nb + b::per]
        up_a, up_b = list(map(ge, own_a, high)), list(map(ge, own_b, high))
        top = list(map(max, far_a)), list(map(max, far_b))
        breach = list(zip(map(gt, map(sub, top[0], map(min, far_a)), low),
                          map(gt, map(sub, top[1], map(min, far_b)), low),
                          map(and_, map(not_, up_a), map(gt, own_a, low)),
                          map(and_, map(not_, up_b), map(gt, own_b, low)), map(eq, up_a, up_b)))
        if True in (broken := list(map(any, breach))):
            s = broken.index(True)
            found.append((s, i, breach[s].index(True), (*top, own_a, own_b, own_b)))
        signs.append([1 if up else -1 for up in up_a])
    if found:
        s, i, check, marginals = min(found)
        side, reason = _BREACHES[check]
        return DerivationFailure(entries[s].state_id, axes[i], side, kt.unscaled(marginals[check][s], s), reason)
    _check_rebuild(kt, alice, bob, signs, t)
    ids = [e.state_id for e in entries]
    return InstructionSet(tuple(axes), dict(zip(ids, zip(*signs))), dict(zip(ids, kt.w)))


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
        return sum((c.weight for c in self.classes), Fraction(0))

    def to_dict(self) -> dict:
        return {
            "axes": [list(axis) for axis in self.axes],
            "class_count": len(self.classes),
            "classes": [c.to_dict() for c in self.classes],
        }


def classify_states(instructions: InstructionSet) -> ClassPartition:
    """Group states by Alice's sign pattern over the axes; past 16 axes,
    raise EnumerationLimitError."""
    axes = instructions.axes
    if len(axes) > _MAX_AXES:
        raise EnumerationLimitError(
            f"refusing to enumerate 2^{len(axes)} classes (limit 2^{_MAX_AXES})"
        )
    by_pattern: dict[tuple[int, ...], list[str]] = {}
    for state_id, row in instructions.signs.items():
        by_pattern.setdefault(row, []).append(state_id)
    classes = []
    for pattern in product((+1, -1), repeat=len(axes)):
        members = tuple(by_pattern.get(pattern, ()))
        weight = sum((instructions.weights[m] for m in members), Fraction(0))
        classes.append(PatternClass(pattern=pattern, members=members, weight=weight))
    return ClassPartition(axes=axes, classes=tuple(classes))


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
    alice_axis: dict[str, int] = {}
    bob_axis: dict[str, int] = {}
    for i, (a_id, b_id) in enumerate(instructions.axes):
        if a_id in alice_axis:
            raise InstructionSetError(f"Alice setting {a_id!r} appears in two axes")
        if b_id in bob_axis:
            raise InstructionSetError(f"Bob setting {b_id!r} appears in two axes")
        alice_axis[a_id] = bob_axis[b_id] = i
    for side, ids, covered in (("Alice", scenario.alice_ids(), alice_axis),
                               ("Bob", scenario.bob_ids(), bob_axis)):
        missing = [i for i in ids if i not in covered]
        if missing:
            raise InstructionSetError(f"no instruction covers {side} setting {missing[0]!r}")

    cells = {(s, a, b): OutcomeDistribution.point(row[alice_axis[a]], -row[bob_axis[b]])
             for s, row in instructions.signs.items() for a in scenario.alice_ids() for b in scenario.bob_ids()}
    ensemble = HiddenStateEnsemble(tuple(EnsembleEntry(s, instructions.weights[s]) for s in instructions.signs))
    model = TheoryModel(name, scenario, ensemble, ResponseKernel(cells))
    require_valid(model)
    return model
