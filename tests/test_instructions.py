"""Instruction-set derivation, the 2^n class partition, and realization."""

from __future__ import annotations

import inspect
import json
import types
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import genmodels
import reference_audit as ref
from reference_audit import class_for
from bell_lab import instructions
from bell_lab.model import EqualAxisError
from bell_lab.harness import all_correlators
from bell_lab.instructions import (
    ClassPartition,
    DerivationFailure,
    InstructionSet,
    InstructionSetError,
    classify_states,
    derive_instruction_sets,
    realize_model,
)
from bell_lab.model import (
    BellLabError,
    EnsembleEntry,
    HiddenStateEnsemble,
    OutcomeDistribution,
    ResponseKernel,
    TheoryModel,
    UnknownIdError,
    behavior,
)
from bell_lab.specio import load_theory


def two_axis_instructions() -> InstructionSet:
    axes = (("n1", "n1"), ("n2", "n2"))
    return InstructionSet(
        axes=axes,
        signs={"s1": (+1, +1), "s2": (-1, +1)},
        weights={"s1": Fraction(1, 4), "s2": Fraction(3, 4)},
    )


_JUNK_SIGN = st.sampled_from([1, -1, 0, 2, True, False, 1.0, -1.0, np.int64(1), np.int64(-1), None, "+"])
_JUNK_ROW = st.one_of(st.lists(_JUNK_SIGN, max_size=3).map(tuple), st.lists(_JUNK_SIGN, max_size=3), _JUNK_SIGN)
_JUNK_WEIGHT = st.one_of(st.fractions(), st.integers(), st.booleans(), st.floats(),
                         st.sampled_from(["x", None, np.int64(1), 10**400]))
_STATES = st.sampled_from(["s1", "s2"])
_PAIRS = st.tuples(st.sampled_from(["n1", "n2"]), st.sampled_from(["n1", "n2"]))
_JUNK = {
    "axes": st.one_of(st.lists(_PAIRS, max_size=3), st.none(), st.integers(), st.text(max_size=3),
                      st.lists(st.lists(st.text(max_size=2), max_size=3))),
    "signs": st.one_of(st.dictionaries(_STATES, _JUNK_ROW, max_size=2), st.lists(st.tuples(_STATES, _JUNK_ROW)),
                       st.none(), st.integers()),
    "weights": st.one_of(st.dictionaries(_STATES, _JUNK_WEIGHT, max_size=2), st.lists(_STATES), st.none()),
}


@st.composite
def junk_fields(draw) -> tuple:
    """Well-formed (axes, signs, weights), then one field, or one state's
    row, sign or weight, drawn as junk, or nothing changed."""
    axes = tuple(draw(st.lists(_PAIRS, max_size=3, unique=True)))
    states = draw(st.lists(_STATES, max_size=2, unique=True))
    signs = {s: tuple(draw(st.lists(st.sampled_from([1, -1]), min_size=len(axes), max_size=len(axes))))
             for s in states}
    fields = {"axes": axes, "signs": signs, "weights": {s: draw(st.fractions(0, 1)) for s in states}}
    which = draw(st.sampled_from([None, *_JUNK, "row", "sign", "weight"]))
    if which in _JUNK:
        fields[which] = draw(_JUNK[which])
    elif which == "row" and states:
        signs[states[0]] = draw(_JUNK_ROW)
    elif which == "sign" and states and axes:
        signs[states[0]] = (draw(_JUNK_SIGN), *signs[states[0]][1:])
    elif which == "weight" and states:
        fields["weights"][states[0]] = draw(_JUNK_WEIGHT)
    return fields["axes"], fields["signs"], fields["weights"]


class TestInstructionSet:
    def test_rejects_missing_axis(self):
        axes = (("n1", "n1"), ("n2", "n2"))
        with pytest.raises(InstructionSetError, match="per axis"):
            InstructionSet(
                axes=axes,
                signs={"s1": (+1,)},
                weights={"s1": Fraction(1)},
            )

    def test_rejects_weight_state_mismatch(self):
        axes = (("n1", "n1"),)
        with pytest.raises(InstructionSetError, match="same states"):
            InstructionSet(
                axes=axes,
                signs={"s1": (+1,)},
                weights={"s1": Fraction(1, 2), "s2": Fraction(1, 2)},
            )

    def test_rejects_non_sign_outcomes(self):
        axes = (("n1", "n1"),)
        with pytest.raises(InstructionSetError, match=r"\+1 or -1"):
            InstructionSet(
                axes=axes,
                signs={"s1": (2,)},
                weights={"s1": Fraction(1)},
            )

    @pytest.mark.parametrize("signs, weight", [
        ({"s1": (True,)}, Fraction(1)),  # json writes [true, -1]
        ({"s1": (1.0,)}, Fraction(1)),  # json writes [1.0, -1.0]
        ({"s1": (np.int64(1),)}, Fraction(1)),  # json cannot write it
        ({"s1": (1,)}, float("nan")),  # json writes NaN
        ({"s1": (1,)}, float("inf")),
        ({"s1": (1,)}, True),
        ({"s1": (1,)}, "x"),  # not a number at all
        ({"s1": (1,)}, None),
        ({"s1": (1,)}, np.int64(1)),  # json cannot write it
        ({"s1": (1,)}, 10**400),  # the spec parser refuses it
        ({"s1": [1]}, Fraction(1)),  # a list row cannot key its class
        ({"s1": 1}, Fraction(1)),
        ({"s1": ()}, Fraction(1)),  # no sign for the axis
        ({"s1": (1, -1)}, Fraction(1)),  # a sign for an axis that is not there
        ([("s1", (1,))], Fraction(1)),  # not a dict of states
    ], ids=["bool-sign", "float-sign", "int64-sign", "nan-weight", "inf-weight", "bool-weight",
            "str-weight", "none-weight", "int64-weight", "huge-int-weight", "list-row", "int-row",
            "short-row", "long-row", "list-signs"])
    def test_rejects_what_json_would_not_read_back(self, signs, weight):
        """Signs are tuples of the ints +1 and -1, one per axis, in a dict
        over the states, and weights finite numbers, so `to_dict` writes
        only values the spec parser reads, one outcome pair per axis."""
        with pytest.raises(InstructionSetError, match=r"ints \+1 or -1|not a finite number|same states"):
            InstructionSet(axes=(("n1", "n1"),), signs=signs, weights={"s1": weight})

    @settings(max_examples=300, deadline=None)
    @given(fields=junk_fields())
    @example(fields=((("n1", "n1"),), {"s1": (np.int64(1),)}, {"s1": Fraction(1)}))
    @example(fields=((("n1", "n1"),), {"s1": (1,)}, {"s1": float("nan")}))
    @example(fields=((("n1", "n1"),), {"s1": (1,)}, {"s1": np.int64(1)}))
    @example(fields=((("n1", "n1"), ("n1", "n1")), {}, {}))
    @example(fields=(5, {}, {}))
    @example(fields=((), None, {}))
    def test_junk_raises_only_instruction_set_error(self, fields):
        """Whatever the fields, the set is built or InstructionSetError is
        raised; a built set holds one sign per axis and state, and writes
        Bob's outcome as the negation of Alice's."""
        axes, signs, weights = fields
        try:
            instr = InstructionSet(axes, signs, weights)
        except InstructionSetError:
            return
        doc = json.loads(json.dumps(instr.to_dict(), allow_nan=False))
        for state_id, row in signs.items():
            assert len(row) == len(axes) and {*row} <= {1, -1}
            outcomes = doc["states"][state_id]["outcomes"]
            assert list(outcomes.values()) == [[s, -s] for s in row]
            assert state_id in class_for(classify_states(instr), row).members

    def test_to_dict_shape(self):
        doc = two_axis_instructions().to_dict()
        assert doc["axes"] == [["n1", "n1"], ["n2", "n2"]]
        assert doc["states"]["s1"]["weight"] == "1/4"


class TestDerivation:
    def test_derives_from_realized_mixture(self):
        rng = np.random.default_rng(31)
        instr = genmodels.random_anticorr_instructions(rng, 3, 5)
        model = realize_model(instr, genmodels.shared_axis_scenario(3))
        derived = derive_instruction_sets(model)
        assert isinstance(derived, InstructionSet)
        assert derived.axes == instr.axes
        assert derived.signs == instr.signs
        assert derived.weights == instr.weights

    def test_singlet_is_blocked_by_a_half_marginal(self, singlet_equal_axes):
        result = derive_instruction_sets(singlet_equal_axes)
        assert isinstance(result, DerivationFailure)
        assert abs(result.marginal - 0.5) <= 1e-12
        assert "not deterministic" in result.reason

    def test_failure_serializes(self, singlet_equal_axes):
        doc = derive_instruction_sets(singlet_equal_axes).to_dict()
        assert doc["reason"]
        assert doc["side"] in ("alice", "bob")

    def test_explicit_axes_subset(self, fixtures_dir):
        model = load_theory(fixtures_dir / "eight_pattern.json")
        derived = derive_instruction_sets(model, axes=[("n1", "n1"), ("n3", "n3")])
        assert isinstance(derived, InstructionSet)
        assert derived.axes == (("n1", "n1"), ("n3", "n3"))

    def test_no_axes_raises(self, singlet_chsh):
        with pytest.raises(EqualAxisError):
            derive_instruction_sets(singlet_chsh)

    def test_unknown_axis_raises(self, fixtures_dir):
        model = load_theory(fixtures_dir / "two_state.json")
        with pytest.raises(UnknownIdError):
            derive_instruction_sets(model, axes=[("zz", "n1")])

    def test_far_setting_dependence_is_an_obstruction(self, fixtures_dir):
        model = load_theory(fixtures_dir / "signalling.json")
        result = derive_instruction_sets(model, axes=[("a1", "b1")])
        assert isinstance(result, DerivationFailure)
        assert "far setting" in result.reason

    def test_correlated_deterministic_state_is_an_obstruction(self):
        from bell_lab.model import (
            EnsembleEntry,
            HiddenStateEnsemble,
            OutcomeDistribution,
            ResponseKernel,
            TheoryModel,
        )

        scenario = genmodels.shared_axis_scenario(1)
        model = TheoryModel(
            name="correlated",
            scenario=scenario,
            ensemble=HiddenStateEnsemble(entries=(EnsembleEntry("s1", Fraction(1)),)),
            kernel=ResponseKernel(
                {("s1", "n1", "n1"): OutcomeDistribution.point(+1, +1)}
            ),
        )
        result = derive_instruction_sets(model)
        assert isinstance(result, DerivationFailure)
        assert "anti-correlation fails" in result.reason

    @settings(max_examples=40, deadline=None)
    @given(genmodels.anticorr_mixtures())
    def test_realize_then_derive_round_trips(self, model):
        derived = derive_instruction_sets(model)
        assert isinstance(derived, InstructionSet)
        again = realize_model(derived, model.scenario, name=model.name)
        assert again.kernel.cells == model.kernel.cells
        assert again.ensemble == model.ensemble


def one_state_model(cells: dict, unit=Fraction(1, 100)) -> TheoryModel:
    """One state of weight 1 on the shared axes n1, n2, with the cells
    {(a, b): (++, +-, -+, --)} given in `unit`s: exact for a Fraction
    unit, else decimal."""
    return TheoryModel(
        name="one state",
        scenario=genmodels.shared_axis_scenario(2),
        ensemble=HiddenStateEnsemble((EnsembleEntry("s1", unit * 0 + 1),)),
        kernel=ResponseKernel({("s1", a, b): OutcomeDistribution(*(p * unit for p in row))
                               for (a, b), row in cells.items()}),
    )


def _without_transpose():
    """`derive_instruction_sets` from a copy of the module that reads
    Bob's far-setting marginals untransposed: per axis, the row of one
    Alice setting instead of the column of the axis's Bob setting."""
    source, column = inspect.getsource(instructions), "plus_b[f * nb + b::per] for f in range(na)"
    assert source.count(column) == 1
    module = types.ModuleType("bell_lab._untransposed")
    module.__package__ = "bell_lab"
    row = "plus_b[b * nb + f::per] for f in range(nb)"  # the row of Alice's setting at Bob's index
    exec(compile(source.replace(column, row), "<untransposed>", "exec"), vars(module))
    return module.derive_instruction_sets


def states_model(*states: dict) -> TheoryModel:
    """States s1, s2, ... of equal weight on the shared axes n1, n2, the
    cells of each as in `one_state_model`, in hundredths."""
    return TheoryModel(
        name="states",
        scenario=genmodels.shared_axis_scenario(2),
        ensemble=HiddenStateEnsemble(tuple(EnsembleEntry(f"s{k}", Fraction(1, len(states)))
                                           for k in range(1, len(states) + 1))),
        kernel=ResponseKernel({(f"s{k}", a, b): OutcomeDistribution(*(Fraction(p, 100) for p in row))
                               for k, cells in enumerate(states, 1) for (a, b), row in cells.items()}),
    )


def uniform(row: tuple, **cells: tuple) -> dict:
    """`row` in every cell but those named `a_b`, e.g. n1_n2."""
    return {(a, b): cells.get(f"{a}_{b}", row) for a in ("n1", "n2") for b in ("n1", "n2")}


MOVES = "own-outcome marginal moves with the far setting"
UNDETERMINED = "marginal strictly between 0 and 1: outcome not deterministic"
SAME_SIGN = "anti-correlation fails: both wings fixed to the same sign"
N1, N2 = ("n1", "n1"), ("n2", "n2")


class TestFirstBreach:
    """When several checks fail, the derivation reports the first in
    state, axis, check order: Alice's and then Bob's far-setting check,
    Alice's and then Bob's determinism, then the sign check."""

    @pytest.mark.parametrize("states, want", [
        # Alice's n1 marginal is 1/2 against n1 and 1 against n2: it moves
        # and is not determined
        ((uniform((0, 100, 0, 0), n1_n1=(0, 50, 0, 50)),), ("s1", N1, "alice", 1, MOVES)),
        # Bob's n1 marginal is 1/2 against n1 and 0 against n2: it moves
        # and is not determined
        ((uniform((0, 100, 0, 0), n1_n1=(50, 50, 0, 0)),), ("s1", N1, "bob", Fraction(1, 2), MOVES)),
        # Alice's n1 marginal is 1/2 throughout, Bob's 0: not determined,
        # and both wings read as the same sign
        ((uniform((0, 100, 0, 0), n1_n1=(0, 50, 0, 50), n1_n2=(0, 50, 0, 50)),),
         ("s1", N1, "alice", Fraction(1, 2), UNDETERMINED)),
        # s1 has both wings + on n2, the last check on its second axis; s2's
        # Alice marginal on n1 moves, the first check on its first axis
        ((uniform((0, 100, 0, 0), n1_n2=(100, 0, 0, 0), n2_n2=(100, 0, 0, 0)),
          uniform((0, 100, 0, 0), n1_n2=(0, 0, 0, 100))),
         ("s1", N2, "bob", 1, SAME_SIGN)),
    ], ids=["alice-moves-and-undetermined", "bob-moves-and-undetermined",
            "undetermined-and-same-sign", "state-before-axis"])
    def test_the_first_breach_in_state_axis_check_order(self, states, want):
        model = states_model(*states)
        assert derive_instruction_sets(model) == DerivationFailure(*want)
        assert derive_instruction_sets(model) == ref.derive_instruction_sets(model)


class TestRebuildCheck:
    """Each derived instruction set is rebuilt into the axis cells and
    held to the kernel before it leaves `derive_instruction_sets`."""

    @settings(max_examples=60, deadline=None)
    @given(genmodels.anticorr_mixtures())
    def test_class_weights_reproduce_every_axis_correlator(self, model):
        derived = derive_instruction_sets(model)
        assert isinstance(derived, InstructionSet)
        classes = classify_states(derived).classes
        correlators = all_correlators(behavior(model))
        for i, (a, _) in enumerate(derived.axes):
            for j, (_, b) in enumerate(derived.axes):
                want = sum((c.weight * c.pattern[i] * -c.pattern[j] for c in classes), Fraction(0))
                assert correlators[(a, b)] == want

    def test_cross_cells_may_sit_4t_from_the_point(self):
        """At t = 1/100 the derivation admits Alice's + marginal at 99
        (own setting) and 98 (far setting n2) hundredths, and Bob's at 1
        and 2: the cell (n1, n2) is then 4 hundredths from (+, -)."""
        cross = {(a, b): (0, 99, 1, 0) for a in ("n1", "n2") for b in ("n1", "n2")}
        model = one_state_model({**cross, ("n1", "n2"): (2, 96, 0, 2)})
        derived = derive_instruction_sets(model, tol=0.01)
        assert isinstance(derived, InstructionSet)
        assert derived.signs == {"s1": (+1, +1)}

    def test_decimal_cells_may_sit_5t_from_the_point(self):
        """At t = 2/128 a decimal cell may hold -1/128 and sum to 127/128:
        with Alice's and Bob's + marginals at t on their own settings and
        2t at (n1, n2), that cell is 5t from (-, -).  Every value is
        dyadic, so each float sum is exact."""
        cells = {("n1", "n1"): (2, 0, 126, 0), ("n1", "n2"): (-1, 5, 5, 118),
                 ("n2", "n1"): (128, 0, 0, 0), ("n2", "n2"): (2, 126, 0, 0)}
        derived = derive_instruction_sets(one_state_model(cells, 1 / 128), tol=2 / 128)
        assert isinstance(derived, InstructionSet)
        assert derived.signs == {"s1": (-1, +1)}

    def test_a_slip_in_the_index_work_raises(self):
        """Bob's outcome follows Alice's setting, + at n1 and - at n2,
        which the far-setting check must catch.  Read untransposed, each
        row it checks is constant, and the signs it derives do not
        rebuild the cells (n1, n2) and (n2, n1)."""
        model = one_state_model({("n1", "n1"): (0, 0, 100, 0), ("n1", "n2"): (0, 0, 100, 0),
                                 ("n2", "n1"): (0, 100, 0, 0), ("n2", "n2"): (0, 100, 0, 0)})
        failure = derive_instruction_sets(model)
        assert isinstance(failure, DerivationFailure)
        assert (failure.axis, failure.side) == (("n1", "n1"), "bob")
        with pytest.raises(BellLabError, match="derivation bug"):
            _without_transpose()(model)


class TestPartition:
    def test_eight_pattern_fixture_fills_all_classes(self, fixtures_dir):
        model = load_theory(fixtures_dir / "eight_pattern.json")
        instr = derive_instruction_sets(model)
        part = classify_states(instr)
        assert isinstance(part, ClassPartition)
        assert len(part.classes) == 8
        assert len(part.nonempty_classes()) == 8
        assert all(c.weight == Fraction(1, 8) for c in part.classes)
        assert part.total_weight() == Fraction(1)

    def test_class_count_is_two_to_the_n_even_when_sparse(self):
        instr = two_axis_instructions()
        part = classify_states(instr)
        assert len(part.classes) == 4
        assert len(part.nonempty_classes()) == 2
        assert class_for(part, (+1, +1)).weight == Fraction(1, 4)
        assert class_for(part, (-1, +1)).weight == Fraction(3, 4)
        assert class_for(part, (-1, -1)).members == ()
        assert class_for(part, (-1, -1)).weight == Fraction(0)

    def test_labels_spell_signs(self):
        part = classify_states(two_axis_instructions())
        assert {c.label() for c in part.classes} == {"++", "+-", "-+", "--"}

    def test_partition_weight_conservation_random(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            instr = genmodels.random_anticorr_instructions(rng, 3, 7)
            part = classify_states(instr)
            assert part.total_weight() == Fraction(1)
            assert len(part.classes) == 8

    @settings(max_examples=40, deadline=None)
    @given(genmodels.anticorr_instruction_sets())
    def test_every_state_lands_in_exactly_one_class(self, instr):
        part = classify_states(instr)
        homes = [c for c in part.classes for _ in c.members]
        assert len(homes) == len(instr.signs)
        for state_id, signs in instr.signs.items():
            assert state_id in class_for(part, signs).members


class TestRealize:
    def test_realized_model_is_exact_and_valid(self):
        from bell_lab.model import validate_theory

        model = realize_model(two_axis_instructions(), genmodels.shared_axis_scenario(2))
        assert validate_theory(model) == []
        assert model.is_exact

    def test_off_axis_cells_follow_each_wing_instruction(self):
        model = realize_model(two_axis_instructions(), genmodels.shared_axis_scenario(2))
        # s2: alice n1 -> -1, bob from axis n2 -> -1
        dist = model.kernel.cell("s2", "n1", "n2")
        assert dist.mm == Fraction(1)

    def test_uncovered_setting_rejected(self):
        with pytest.raises(InstructionSetError, match="no instruction covers"):
            realize_model(two_axis_instructions(), genmodels.shared_axis_scenario(3))

    def test_duplicate_axis_setting_rejected(self):
        axes = (("n1", "n1"), ("n1", "n2"))
        instr = InstructionSet(
            axes=axes,
            signs={"s1": (+1, +1)},
            weights={"s1": Fraction(1)},
        )
        with pytest.raises(InstructionSetError, match="two axes"):
            realize_model(instr, genmodels.shared_axis_scenario(2))
