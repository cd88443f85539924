"""Core model invariants: parsing, validation, behavior averaging, exactness."""

from __future__ import annotations

import copy
import json
import pickle
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bell_lab.audit import check_anticorrelation, check_bell_locality, check_signal_locality
from bell_lab.cli import main
from bell_lab.harness import bell1964
from bell_lab.instructions import InstructionSet, derive_instruction_sets, realize_model
from bell_lab.model import (
    DEFAULT_TOL,
    BellLabError,
    EnsembleEntry,
    HiddenStateEnsemble,
    InvalidModelError,
    JOINT_OUTCOMES,
    OutcomeDistribution,
    ResponseKernel,
    Scenario,
    Setting,
    TheoryModel,
    UnknownIdError,
    Violation,
    behavior,
    format_probability,
    is_text,
    parse_probability,
    require_valid,
    resolve_tolerance,
    validate_theory,
)
from bell_lab.montecarlo import FixedSequencePolicy, simulate
from bell_lab.singlet import (
    DirectionError,
    SingletSpec,
    make_planar_singlet,
    make_quantum_theory,
    planar_direction,
    singlet_joint_prob,
    spin_projector,
)
from bell_lab.specio import dump_theory, parse_theory, theory_to_dict

import genmodels
import reference_model
from genmodels import random_anticorr_mixture, random_product_model
from reference_audit import conditional_marginal
from reference_model import as_dict, from_mapping


class TestParseProbability:
    def test_int_becomes_exact(self):
        assert parse_probability(1) == Fraction(1)
        assert isinstance(parse_probability(0), Fraction)

    def test_rational_string(self):
        assert parse_probability("3/8") == Fraction(3, 8)
        assert parse_probability("-1/4") == Fraction(-1, 4)

    def test_float_stays_float(self):
        p = parse_probability(0.25)
        assert isinstance(p, float) and p == 0.25

    def test_fraction_passes_through(self):
        assert parse_probability(Fraction(2, 7)) == Fraction(2, 7)

    @pytest.mark.parametrize(
        "bad", [True, "1/2/3", "a/b", "1/0", "1/-2", float("nan"), float("inf"), [1], None]
    )
    def test_rejects_garbage(self, bad):
        with pytest.raises(ValueError):
            parse_probability(bad)

    def test_exact_values_beyond_the_largest_float_rejected(self):
        # a decimal cell sums its exact values as floats
        for bad in (10**309, -(10**309), f"{10**400}/3"):
            with pytest.raises(ValueError, match="too large for a float"):
                parse_probability(bad)
        assert parse_probability(f"{10**400}/{10**400}") == 1

    @given(st.fractions())
    def test_format_parse_round_trip(self, q):
        assert parse_probability(format_probability(q)) == q

    @given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    def test_float_round_trip(self, x):
        assert parse_probability(format_probability(x)) == x


class TestOutcomeDistribution:
    def test_prob_lookup_and_order(self):
        d = OutcomeDistribution(pp=0.1, pm=0.2, mp=0.3, mm=0.4)
        assert [d.prob(a, b) for a, b in JOINT_OUTCOMES] == [0.1, 0.2, 0.3, 0.4]
        assert d.values() == (0.1, 0.2, 0.3, 0.4)

    def test_marginals(self):
        d = OutcomeDistribution(pp=0.1, pm=0.2, mp=0.3, mm=0.4)
        assert d.marginal_a(+1) == pytest.approx(0.3)
        assert d.marginal_b(+1) == pytest.approx(0.4)
        assert d.marginal_a(-1) + d.marginal_a(+1) == pytest.approx(d.total())

    def test_prob_rejects_bad_outcomes(self):
        d = OutcomeDistribution(pp=1, pm=0, mp=0, mm=0)
        with pytest.raises(ValueError):
            d.prob(0, 1)

    def test_point_is_exact(self):
        d = OutcomeDistribution.point(-1, +1)
        assert d.mp == Fraction(1)
        assert d.pp == d.pm == d.mm == Fraction(0)
        assert all(isinstance(v, Fraction) for v in d.values())

    def test_dict_round_trip(self):
        d = OutcomeDistribution(pp=Fraction(1, 2), pm=0.0, mp=0.5, mm=Fraction(0))
        assert from_mapping(as_dict(d)) == d


def tiny_model(**overrides) -> TheoryModel:
    """One state, one setting per side, all mass on (+1, -1); exact."""
    fields = dict(
        name="tiny",
        scenario=Scenario(
            alice_settings=(Setting(id="a1"),), bob_settings=(Setting(id="b1"),)
        ),
        ensemble=HiddenStateEnsemble(entries=(EnsembleEntry("s1", Fraction(1)),)),
        kernel=ResponseKernel({("s1", "a1", "b1"): OutcomeDistribution.point(+1, -1)}),
    )
    fields.update(overrides)
    return TheoryModel(**fields)


def decimal_model(total: float) -> TheoryModel:
    """tiny_model with one decimal cell summing to `total`."""
    cell = OutcomeDistribution(0.0, total, 0.0, 0.0)
    return tiny_model(kernel=ResponseKernel({("s1", "a1", "b1"): cell}))


class TestValidation:
    def test_tiny_model_is_valid(self):
        assert validate_theory(tiny_model()) == []
        require_valid(tiny_model())

    def test_duplicate_setting_id_flagged(self):
        scen = Scenario(
            alice_settings=(Setting(id="a1"), Setting(id="a1")),
            bob_settings=(Setting(id="b1"),),
        )
        found = validate_theory(tiny_model(scenario=scen))
        assert any("duplicate setting id" in v.message for v in found)

    def test_weights_must_sum_to_one_exactly_when_rational(self):
        model = tiny_model(
            ensemble=HiddenStateEnsemble(entries=(EnsembleEntry("s1", Fraction(1, 2)),))
        )
        found = validate_theory(model)
        assert any("sum to 1 exactly" in v.message for v in found)

    def test_float_weights_get_tolerance(self):
        model = tiny_model(
            ensemble=HiddenStateEnsemble(
                entries=(EnsembleEntry("s1", 0.5), EnsembleEntry("s2", 0.5 + 1e-12))
            ),
            kernel=ResponseKernel(
                {
                    ("s1", "a1", "b1"): OutcomeDistribution.point(+1, -1),
                    ("s2", "a1", "b1"): OutcomeDistribution.point(-1, +1),
                }
            ),
        )
        assert validate_theory(model) == []
        assert validate_theory(model, tol=0.0) != []

    def test_negative_weight_flagged(self):
        model = tiny_model(
            ensemble=HiddenStateEnsemble(
                entries=(EnsembleEntry("s1", Fraction(3, 2)), EnsembleEntry("s2", Fraction(-1, 2)))
            ),
            kernel=ResponseKernel(
                {
                    ("s1", "a1", "b1"): OutcomeDistribution.point(+1, -1),
                    ("s2", "a1", "b1"): OutcomeDistribution.point(-1, +1),
                }
            ),
        )
        found = validate_theory(model)
        assert any("weight must be > 0" in v.message for v in found)

    def test_cell_sum_violation_located(self):
        model = tiny_model(
            kernel=ResponseKernel(
                {("s1", "a1", "b1"): OutcomeDistribution(0.3, 0.3, 0.3, 0.0)}
            )
        )
        found = validate_theory(model)
        assert any(v.location == "kernel[s1,a1,b1]" for v in found)

    def test_missing_and_stray_cells_flagged(self):
        model = tiny_model(
            kernel=ResponseKernel({("s1", "a1", "zz"): OutcomeDistribution.point(+1, -1)})
        )
        found = validate_theory(model)
        assert any("missing cell" in v.message for v in found)
        assert any("outside the scenario" in v.message for v in found)

    def test_bad_direction_flagged(self):
        scen = Scenario(
            alice_settings=(Setting(id="a1", direction=(0.0, 0.0, 2.0)),),
            bob_settings=(Setting(id="b1"),),
        )
        found = validate_theory(tiny_model(scenario=scen))
        assert any("unit vector" in v.message for v in found)

    def test_pipe_in_setting_id_flagged(self):
        scen = Scenario(alice_settings=(Setting(id="a|x"),), bob_settings=(Setting(id="b1"),))
        kernel = ResponseKernel({("s1", "a|x", "b1"): OutcomeDistribution.point(+1, -1)})
        found = validate_theory(tiny_model(scenario=scen, kernel=kernel))
        assert [v.location for v in found] == ["scenario.alice_settings[a|x]"]

    @pytest.mark.parametrize("name", [5, None, b"name", ("n",)], ids=["int", "none", "bytes", "tuple"])
    def test_a_name_that_is_not_a_str_is_a_violation(self, name):
        """Not an AttributeError from the surrogate check: a violation,
        so `make_planar_singlet` raises InvalidModelError."""
        message = f"name must be a str, got {type(name).__name__}"
        assert validate_theory(tiny_model(name=name)) == [Violation("name", message)]
        with pytest.raises(InvalidModelError) as info:
            make_planar_singlet("a=0", "b=0", name=name)
        assert info.value.violations == (Violation("name", message),)

    @settings(max_examples=60, deadline=None)
    @given(place=st.sampled_from(["name", "setting", "state"]),
           text=st.text(st.one_of(st.characters(), st.sampled_from("\ud800\udbff\udc00\udfff")),
                        max_size=4))
    @example(place="name", text="a\ud800")
    @example(place="setting", text="a\ud800")
    @example(place="state", text="a\ud800")
    def test_a_valid_model_dumps_a_spec_that_loads_back(self, place, text):
        """A lone surrogate in the name, a setting id or a state id is a
        violation: JSON escapes it, and the spec parser refuses it."""
        if place == "name":
            model, where = tiny_model(name=text), "name"
        elif place == "setting":
            model = tiny_model(
                scenario=Scenario(alice_settings=(Setting(text),), bob_settings=(Setting("b1"),)),
                kernel=ResponseKernel({("s1", text, "b1"): OutcomeDistribution.point(+1, -1)}))
            where = f"scenario.alice_settings[{text!r}]"
        else:
            model = tiny_model(
                ensemble=HiddenStateEnsemble(entries=(EnsembleEntry(text, Fraction(1)),)),
                kernel=ResponseKernel({(text, "a1", "b1"): OutcomeDistribution.point(+1, -1)}))
            where = f"ensemble[{text!r}]"
        found = validate_theory(model)
        surrogates = [v.location for v in found if "lone surrogate" in v.message]
        assert surrogates == ([] if is_text(text) else [where])
        "".join(surrogates).encode("utf-8")  # the report of a surrogate prints
        if not found:
            spec = json.dumps(theory_to_dict(model), indent=2)
            assert theory_to_dict(parse_theory(spec)) == theory_to_dict(model)

    @settings(max_examples=80, deadline=None)
    @given(
        model=st.one_of(genmodels.arbitrary_models(), genmodels.decimal_models()),
        bad=st.sampled_from([float("nan"), float("inf"), float("-inf"), Fraction(10**400)]),
        target=st.sampled_from(["weight", "cell", "direction"]),
        pick=st.integers(0, 2**16),
    )
    # an exact value beyond the float range next to a float: the decimal
    # sum of a cell, or of the weights, used to raise OverflowError
    @example(model=tiny_model(kernel=ResponseKernel(
        {("s1", "a1", "b1"): OutcomeDistribution(0.5, 0.5, 0.0, 0.0)})),
        bad=Fraction(10**400), target="cell", pick=1)
    @example(model=tiny_model(
        ensemble=HiddenStateEnsemble((EnsembleEntry("s1", 0.5), EnsembleEntry("s2", 0.5))),
        kernel=ResponseKernel({(s, "a1", "b1"): OutcomeDistribution.point(+1, -1) for s in ("s1", "s2")})),
        bad=Fraction(10**400), target="weight", pick=1)
    def test_non_finite_values_always_reported(self, model, bad, target, pick):
        if target == "weight":
            i = pick % len(model.ensemble.entries)
            entries = list(model.ensemble.entries)
            entries[i] = EnsembleEntry(entries[i].state_id, bad)
            model = TheoryModel(model.name, model.scenario, HiddenStateEnsemble(tuple(entries)), model.kernel)
            where = f"ensemble[{entries[i].state_id}].weight"
        elif target == "cell":
            keys = sorted(model.kernel.cells)
            key = keys[pick % len(keys)]
            label = ["++", "+-", "-+", "--"][pick // len(keys) % 4]
            cells = dict(model.kernel.cells)
            cells[key] = from_mapping({**as_dict(cells[key]), label: bad})
            model = TheoryModel(model.name, model.scenario, model.ensemble, ResponseKernel(cells))
            where = f"kernel[{key[0]},{key[1]},{key[2]}].{label}"
        else:
            first, *rest = model.scenario.alice_settings
            scen = Scenario((Setting(first.id, (0.0, bad, 1.0)), *rest), model.scenario.bob_settings)
            model = TheoryModel(model.name, scen, model.ensemble, model.kernel)
            where = f"scenario.alice_settings[{first.id}].direction"
        assert where in [v.location for v in validate_theory(model)]
        with pytest.raises(InvalidModelError):
            require_valid(model)

    def test_require_valid_raises_with_report(self):
        model = tiny_model(
            kernel=ResponseKernel(
                {("s1", "a1", "b1"): OutcomeDistribution(0.5, 0.5, 0.5, 0.5)}
            )
        )
        with pytest.raises(InvalidModelError) as info:
            require_valid(model)
        assert info.value.violations

    def test_random_generated_models_validate(self):
        import numpy as np

        rng = np.random.default_rng(7)
        for _ in range(25):
            assert validate_theory(random_product_model(rng, 2, 2, 3)) == []
            assert validate_theory(random_anticorr_mixture(rng, 2, 4)) == []


_NOT_A_NUMBER = "must be an int, a float or a Fraction, got {}"

#: Weights and kernel entries outside the one value rule, with the reason
#: `validate_theory` gives; a value the spec parser refuses is no model's.
OUTSIDE_THE_RULE = [
    ("x", _NOT_A_NUMBER.format("str")),
    (None, _NOT_A_NUMBER.format("NoneType")),
    (10**400, "too large for a float"),
    (True, _NOT_A_NUMBER.format("bool")),
    (np.int64(1), _NOT_A_NUMBER.format("int64")),
]
_OUTSIDE_IDS = ["str", "none", "huge-int", "bool", "int64"]


def one_state_model(weight=Fraction(1), entry=Fraction(0), direction=None) -> TheoryModel:
    """tiny_model with the given weight, ++ entry (the rest of the cell
    making it sum to 1 when the entry is 0) and Alice direction."""
    return tiny_model(
        scenario=Scenario((Setting("a1", direction),), (Setting("b1"),)),
        ensemble=HiddenStateEnsemble((EnsembleEntry("s1", weight),)),
        kernel=ResponseKernel({("s1", "a1", "b1"): OutcomeDistribution(entry, Fraction(1), Fraction(0),
                                                                      Fraction(0))}))


def assert_round_trips(model: TheoryModel) -> None:
    """A valid model writes a spec that parses back to a valid model."""
    back = parse_theory(json.dumps(theory_to_dict(model)))
    assert validate_theory(back) == []
    assert theory_to_dict(back) == theory_to_dict(model)


class TestValueRule:
    """One rule for weights and kernel entries (`model.value_fault`): an
    int that is not a bool, a float or a Fraction, finite and within the
    float range.  `validate_theory`, `parse_probability` and
    `InstructionSet` keep it, and the reference oracle agrees."""

    @pytest.mark.parametrize("value, reason", OUTSIDE_THE_RULE, ids=_OUTSIDE_IDS)
    def test_a_weight_outside_the_rule_is_a_violation(self, value, reason):
        model = one_state_model(weight=value)
        found = validate_theory(model)
        assert found == [Violation("ensemble[s1].weight", f"weight {reason}"),
                         Violation("ensemble", "weights must sum to 1 exactly, got 0")]
        assert reference_model.validate_theory(model) == found

    @pytest.mark.parametrize("value, reason", OUTSIDE_THE_RULE, ids=_OUTSIDE_IDS)
    def test_a_kernel_entry_outside_the_rule_is_a_violation(self, value, reason):
        model = one_state_model(entry=value)
        found = validate_theory(model)
        assert found == [Violation("kernel[s1,a1,b1].++", f"probability {reason}")]
        assert reference_model.validate_theory(model) == found

    @pytest.mark.parametrize("weight, entry, want", [
        (float("nan"), Fraction(0), [Violation("ensemble[s1].weight", "weight must be finite, got nan")]),
        (Fraction(10**400), Fraction(0), [Violation("ensemble[s1].weight", "weight too large for a float"),
                                          Violation("ensemble", "weights must sum to 1 exactly, got 0")]),
        (float("inf"), Fraction(0), [Violation("ensemble[s1].weight", "weight must be finite, got inf"),
                                     Violation("ensemble", "weights must sum to 1 within 1e-09, got inf")]),
        (Fraction(1), float("nan"), [Violation("kernel[s1,a1,b1].++", "probability must be finite, got nan")]),
        (Fraction(1), float("inf"), [Violation("kernel[s1,a1,b1].++", "probability must be finite, got inf"),
                                     Violation("kernel[s1,a1,b1]", "cell must sum to 1 within 1e-09, got inf")]),
        (Fraction(1), Fraction(10**400), [Violation("kernel[s1,a1,b1].++", "probability too large for a float")]),
        (Fraction(1), Fraction(3, 2), [Violation("kernel[s1,a1,b1].++", "probability out of [0,1]: 3/2"),
                                       Violation("kernel[s1,a1,b1]", "cell must sum to 1 exactly, got 5/2")]),
    ], ids=["nan-weight", "huge-weight", "inf-weight", "nan-entry", "inf-entry", "huge-entry", "entry-above-one"])
    def test_the_older_reasons_keep_their_words(self, weight, entry, want):
        """A non-finite weight or entry still joins its sum, so an infinite
        one also gets the sum's violation."""
        model = one_state_model(weight=weight, entry=entry)
        assert validate_theory(model) == want
        assert reference_model.validate_theory(model) == want

    @pytest.mark.parametrize("value, message", [
        (Fraction(10**400), "probability: too large for a float"),
        (10**400, "probability: too large for a float"),
        (True, "probability: expected a number or 'p/q' string, got a bool"),
        (np.int64(1), "probability: expected a number or 'p/q' string, got int64"),
        (None, "probability: expected a number or 'p/q' string, got NoneType"),
        (float("-inf"), "probability: must be finite, got -inf"),
    ], ids=["huge-fraction", "huge-int", "bool", "int64", "none", "inf"])
    def test_parse_probability_keeps_the_rule_in_the_spec_parsers_words(self, value, message):
        with pytest.raises(ValueError) as info:
            parse_probability(value)
        assert str(info.value) == message

    @settings(max_examples=200, deadline=None)
    @given(value=st.one_of(st.fractions(), st.integers(), st.floats(), st.booleans(), st.none(), st.text(max_size=2),
                           st.sampled_from([10**400, -(10**400), Fraction(10**400), np.int64(0), np.float64(0.0)])),
           where=st.sampled_from(["weight", "entry"]))
    @example(value=np.int64(1), where="weight")
    @example(value=np.float64(1.0), where="weight")
    def test_validate_raises_nothing_and_a_valid_model_round_trips(self, value, where):
        model = one_state_model(**{where: value})
        found = validate_theory(model)
        assert reference_model.validate_theory(model) == found
        if not found:
            assert_round_trips(model)


_INT64_AXIS = (np.int64(1), 0, 0)


class TestDirectionRule:
    """One rule for directions (`model.direction_fault`): three components,
    each an int that is not a bool or a float, with a unit norm."""

    @pytest.mark.parametrize("direction, message", [
        ((1.0, 0.0), "direction must have three components"),
        ((1.0, 0.0, 0.0, 0.0), "direction must have three components"),
        (5, "direction must have three components"),
        ((True, False, False), "direction components must be ints or floats, got (True, False, False)"),
        (("x", 0, 0), "direction components must be ints or floats, got ('x', 0, 0)"),
        # the repr of a numpy int differs between NumPy 1 and 2
        (_INT64_AXIS, f"direction components must be ints or floats, got {_INT64_AXIS!r}"),
        ((0.0, 0.0, 2.0), "direction must be a unit vector, norm is 2.0"),
    ], ids=["two", "four", "int", "bools", "str", "int64", "not-unit"])
    def test_a_direction_outside_the_rule_is_refused(self, direction, message):
        model = one_state_model(direction=direction)
        assert validate_theory(model) == [Violation("scenario.alice_settings[a1].direction", message)]
        with pytest.raises(DirectionError) as info:
            spin_projector(direction, +1)
        assert str(info.value) == f"spin_projector: {message}"

    @pytest.mark.parametrize("direction", [
        (0, 0, 1), [1, 0, 0], (0.6, 0, 0.8), (np.float64(0.0), np.float64(1.0), 0.0), np.array([0.0, 0.0, -1.0]),
    ], ids=["ints", "list", "mixed", "float64", "array"])
    def test_a_valid_direction_round_trips(self, direction):
        model = one_state_model(direction=direction)
        assert validate_theory(model) == []
        assert_round_trips(model)
        assert spin_projector(direction, +1).shape == (2, 2)

    @settings(max_examples=200, deadline=None)
    @given(direction=st.one_of(
        st.lists(st.one_of(st.integers(-2, 2), st.floats(), st.booleans(), st.none(), st.fractions(0, 1)),
                 max_size=4).map(tuple),
        st.floats(-360, 360).map(planar_direction), st.integers(), st.none()))
    @example(direction=(1, 0, 0))
    def test_validate_raises_nothing_and_a_valid_direction_round_trips(self, direction):
        model = one_state_model(direction=direction)
        found = validate_theory(model)
        assert reference_model.validate_theory(model) == found
        if not found:
            assert_round_trips(model)


#: Ids from a small alphabet, so duplicates, '|' and lone surrogates all
#: come up.
rule_ids = st.text(st.sampled_from("a1|\ud800"), max_size=3)

#: Instruction weights, most of which do not sum to 1.
instruction_weights = st.one_of(
    st.fractions(0, 2, max_denominator=4), st.floats(0, 1.5),
    st.sampled_from([float("nan"), Fraction(10**400)]),
)


class TestOneRule:
    """The builders return only models that `validate_theory` passes, and
    a violation report always prints."""

    @settings(max_examples=150, deadline=None)
    @given(alice=st.lists(st.tuples(rule_ids, st.none() | st.floats(-360, 360)), max_size=3),
           bob=st.lists(st.tuples(rule_ids, st.floats(-360, 360)), max_size=3),
           name=st.text(st.sampled_from("s\ud800"), max_size=2))
    @example(alice=[("a", 0.0), ("a", 90.0)], bob=[("b", 45.0)], name="s")
    @example(alice=[("a|1", 0.0)], bob=[("b", 45.0)], name="s")
    def test_make_quantum_theory_returns_only_valid_models(self, alice, bob, name):
        def settings_(pairs):
            return tuple(Setting(i, None if deg is None else planar_direction(deg)) for i, deg in pairs)
        try:
            model = make_quantum_theory(SingletSpec(settings_(alice), settings_(bob), name))
        except BellLabError:
            return
        assert validate_theory(model) == []

    @settings(max_examples=150, deadline=None)
    @given(axes=st.lists(st.tuples(rule_ids, rule_ids), min_size=1, max_size=3),
           states=st.dictionaries(rule_ids, instruction_weights, max_size=3),
           signs=st.lists(st.sampled_from([1, -1]), min_size=9, max_size=9))
    @example(axes=[("n", "n")], states={"s": Fraction(1, 2)}, signs=[1] * 9)
    @example(axes=[("a|1", "b")], states={"s": Fraction(1)}, signs=[1] * 9)
    def test_realize_model_returns_only_valid_models(self, axes, states, signs):
        rows = {state: tuple(signs[3 * i:3 * i + len(axes)]) for i, state in enumerate(states)}
        scenario = Scenario(tuple(Setting(a) for a, _ in axes), tuple(Setting(b) for _, b in axes))
        try:
            model = realize_model(InstructionSet(tuple(axes), rows, states), scenario)
        except BellLabError:
            return
        assert validate_theory(model) == []

    @settings(max_examples=100, deadline=None)
    @given(model=genmodels.relabelled_models(ids=st.text(st.sampled_from("a1|,\ud800\udfff"),
                                                         max_size=3)))
    @example(model=tiny_model(
        scenario=Scenario((Setting("a|\ud800"),), (Setting("b1"),)),
        kernel=ResponseKernel({("s1", "a|\ud800", "b1"): OutcomeDistribution.point(+1, -1)})))
    @example(model=tiny_model(
        ensemble=HiddenStateEnsemble((EnsembleEntry("\ud800", Fraction(1, 2)),)),
        kernel=ResponseKernel({("\ud800", "a1", "b1"): OutcomeDistribution(0.5, 0.5, 0.5, -1.0),
                               ("\ud800", "a1", "zz"): OutcomeDistribution.point(+1, -1)})))
    def test_every_violation_report_prints(self, model):
        violations = tuple(validate_theory(model))
        str(InvalidModelError(violations)).encode("utf-8")
        for v in violations:
            f"{v.location}: {v.message}".encode("utf-8")


class TestAxisPairs:
    """Every function and record that takes setting pairs holds them to one
    shape, a list or tuple of (alice_id, bob_id) tuples of two str ids,
    with one BellLabError message."""

    CALLS = {
        "check_anticorrelation": lambda m, axes: check_anticorrelation(m, axes),
        "derive_instruction_sets": lambda m, axes: derive_instruction_sets(m, axes=axes),
        "bell1964": lambda m, axes: bell1964(behavior(m), axes),
    }
    #: the other takers of setting pairs, given the same values
    TAKERS = {
        "FixedSequencePolicy": lambda m, axes: FixedSequencePolicy(pairs=axes),
        "InstructionSet": lambda m, axes: InstructionSet(axes, {}, {}),
    }
    MALFORMED = [5, "n1=n1", [("n1",)], ["n1n1", "n2n2", "n3n3"], [("n1", "n1", "n1")], [("n1", 1)],
                 [["n1", "n1"]], [("n1", "n1"), ("n2", "n2"), None], {("n1", "n1"), ("n2", "n2"), ("n3", "n3")}]

    @pytest.mark.parametrize("call, axes", [
        ("check_anticorrelation", [("n1",)]),
        ("check_anticorrelation", 5),
        ("derive_instruction_sets", 5),
        ("bell1964", 5),
        ("bell1964", ["n1n1", "n2n2", "n3n3"]),
        ("check_anticorrelation", [("n1", "n1", "n1")]),
        ("check_anticorrelation", [("n1", 1)]),
        ("check_anticorrelation", "n1=n1"),
        ("derive_instruction_sets", [["n1", "n1"]]),
        ("derive_instruction_sets", [("n1",)]),
        ("bell1964", [("n1", "n1"), ("n2", "n2"), None]),
        ("bell1964", {("n1", "n1"), ("n2", "n2"), ("n3", "n3")}),
        *product(TAKERS, MALFORMED),
    ])
    def test_a_malformed_axis_list_raises_bell_lab_error(self, singlet_three_axes, call, axes):
        with pytest.raises(BellLabError) as info:
            {**self.CALLS, **self.TAKERS}[call](singlet_three_axes, axes)
        assert str(info.value) == f"setting pairs must be a list or tuple of (a_id, b_id), got {axes!r}"

    @pytest.mark.parametrize("call", ["check_anticorrelation", "derive_instruction_sets"])
    def test_a_repeated_axis_is_refused_before_the_check_runs(self, singlet_three_axes, call):
        """`equal_axes` refuses it for both engines: the audit would list
        the axis twice, and the derivation fail on its first half marginal."""
        axes = [("n1", "n1"), ("n2", "n2"), ("n1", "n1")]
        with pytest.raises(BellLabError) as info:
            self.CALLS[call](singlet_three_axes, axes)
        assert type(info.value) is BellLabError
        assert str(info.value) == f"an axis is given twice in {axes!r}"

    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_well_formed_axes_pass_the_check(self, singlet_three_axes, call):
        axes = [("n1", "n1"), ("n2", "n2"), ("n3", "n3")]
        assert self.CALLS[call](singlet_three_axes, axes) == self.CALLS[call](singlet_three_axes, tuple(axes))


class TestErrorContract:
    """The errors other than BellLabError that the library's contract
    names: ValueError for an outcome that is not +1 or -1, and OSError for
    a CSV path `simulate` cannot write, which the CLI turns into exit 2."""

    @pytest.mark.parametrize("call", [
        lambda: OutcomeDistribution(*(Fraction(1, 4),) * 4).prob(2, 1),
        lambda: singlet_joint_prob((0.0, 0.0, 1.0), (0.0, 0.0, 1.0), 2, 1),
        lambda: spin_projector((0.0, 0.0, 1.0), 0),
    ], ids=["prob", "singlet_joint_prob", "spin_projector"])
    def test_an_outcome_that_is_not_plus_or_minus_one_raises_value_error(self, call):
        with pytest.raises(ValueError, match=r"must be \+1 or -1") as info:
            call()
        assert type(info.value) is ValueError

    def test_a_csv_path_simulate_cannot_write_raises_os_error_and_exits_2(self, tmp_path, capsys):
        model = make_planar_singlet("a1=0", "b1=0")
        with pytest.raises(OSError):
            simulate(model, 5, seed=1, csv_path=tmp_path)
        dump_theory(model, tmp_path / "spec.json")
        assert main(["simulate", str(tmp_path / "spec.json"), "--trials", "5", "--out", str(tmp_path)]) == 2
        assert str(tmp_path) in capsys.readouterr().err


class TestExactness:
    def test_exact_model_reports_exact(self):
        assert tiny_model().is_exact

    def test_single_float_breaks_exactness(self):
        model = tiny_model(
            kernel=ResponseKernel(
                {("s1", "a1", "b1"): OutcomeDistribution(Fraction(1), Fraction(0), 0.0, Fraction(0))}
            )
        )
        assert not model.is_exact

    def test_resolve_tolerance_rules(self):
        assert resolve_tolerance(True, None) == 0.0
        assert resolve_tolerance(False, None) == DEFAULT_TOL
        assert resolve_tolerance(True, 1e-6) == 1e-6
        assert resolve_tolerance(tiny_model(), None) == 0.0
        assert resolve_tolerance(behavior(tiny_model()), None) == 0.0
        assert resolve_tolerance(behavior(decimal_model(1.0)), None) == DEFAULT_TOL

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), -1e-12])
    def test_tolerance_must_be_finite_and_nonnegative(self, bad):
        with pytest.raises(BellLabError, match="tolerance"):
            resolve_tolerance(tiny_model(), bad)
        with pytest.raises(BellLabError, match="tolerance"):
            validate_theory(tiny_model(), bad)


class TestBehavior:
    def test_behavior_averages_exactly(self):
        import numpy as np

        rng = np.random.default_rng(11)
        model = random_anticorr_mixture(rng, 3, 5)
        table = behavior(model)
        for (a_id, b_id), dist in table.cells.items():
            manual = [Fraction(0)] * 4
            for e in model.ensemble.entries:
                cell = model.kernel.cell(e.state_id, a_id, b_id)
                for i, p in enumerate(cell.values()):
                    manual[i] += e.weight * p
            assert dist.values() == tuple(manual)
            assert all(isinstance(v, Fraction) for v in dist.values())

    def test_behavior_rejects_invalid_models(self):
        model = tiny_model(
            kernel=ResponseKernel(
                {("s1", "a1", "b1"): OutcomeDistribution(0.5, 0.5, 0.5, 0.5)}
            )
        )
        with pytest.raises(InvalidModelError):
            behavior(model)

    def test_unknown_cell_lookup_raises(self):
        table = behavior(tiny_model())
        with pytest.raises(UnknownIdError):
            table.cell("a1", "nope")


class TestConditionalMarginal:
    def test_plain_marginal(self):
        m = conditional_marginal(tiny_model(), "alice", +1, "a1", "b1", "s1")
        assert m == Fraction(1)

    def test_conditioned_on_far_outcome(self):
        m = conditional_marginal(tiny_model(), "alice", +1, "a1", "b1", "s1", far_outcome=-1)
        assert m == Fraction(1)

    def test_zero_probability_condition_returns_none(self):
        m = conditional_marginal(tiny_model(), "alice", +1, "a1", "b1", "s1", far_outcome=+1)
        assert m is None

    def test_bob_side_transposes(self):
        m = conditional_marginal(tiny_model(), "bob", -1, "b1", "a1", "s1", far_outcome=+1)
        assert m == Fraction(1)

    def test_unknown_ids_raise(self):
        with pytest.raises(UnknownIdError):
            conditional_marginal(tiny_model(), "alice", +1, "a1", "b1", "nope")
        with pytest.raises(UnknownIdError):
            conditional_marginal(tiny_model(), "alice", +1, "zz", "b1", "s1")
        with pytest.raises(ValueError):
            conditional_marginal(tiny_model(), "charlie", +1, "a1", "b1", "s1")


class TestValidateOnce:
    """A model remembers the tolerances it was found valid at; the memo
    must never let an invalid model through."""

    @pytest.mark.parametrize(
        "check",
        [
            behavior,
            check_bell_locality,
            check_signal_locality,
            lambda m: check_anticorrelation(m, [("a1", "b1")]),
            lambda m: derive_instruction_sets(m, [("a1", "b1")]),
            lambda m: simulate(m, 10, seed=1),
        ],
    )
    def test_valid_at_a_loose_tolerance_is_not_valid_at_the_default(self, check):
        model = decimal_model(1.0 + 1e-5)
        assert require_valid(model, 1e-3) == 1e-3
        with pytest.raises(InvalidModelError):
            check(model)
        assert require_valid(model, 1e-3) == 1e-3

    @pytest.fixture
    def validate_calls(self, monkeypatch) -> list:
        """The tolerance of every validate_theory call, wherever it is made."""
        import bell_lab.cli as cli_module
        import bell_lab.model as model_module

        calls = []
        original = model_module.validate_theory

        def counted(model, tol=None):
            calls.append(tol)
            return original(model, tol)

        monkeypatch.setattr(model_module, "validate_theory", counted)
        monkeypatch.setattr(cli_module, "validate_theory", counted)
        return calls

    def test_each_tolerance_validates_once(self, validate_calls):
        model = decimal_model(1.0)
        for _ in range(3):
            assert require_valid(model) == DEFAULT_TOL
            assert require_valid(model, 1e-6) == 1e-6
        assert validate_calls == [DEFAULT_TOL, 1e-6]

    def test_kernel_cells_are_read_only(self):
        model = tiny_model()
        with pytest.raises(TypeError):
            model.kernel.cells[("s1", "a1", "b1")] = OutcomeDistribution.point(+1, +1)
        with pytest.raises(TypeError):
            del model.kernel.cells[("s1", "a1", "b1")]

    def test_the_source_dict_does_not_reach_the_model(self):
        cells = {("s1", "a1", "b1"): OutcomeDistribution.point(+1, -1)}
        model = tiny_model(kernel=ResponseKernel(cells))
        require_valid(model)
        cells[("s1", "a1", "b1")] = OutcomeDistribution(Fraction(2), Fraction(0), Fraction(0), Fraction(0))
        cells[("s2", "a1", "b1")] = OutcomeDistribution.point(+1, +1)
        assert dict(model.kernel.cells) == {("s1", "a1", "b1"): OutcomeDistribution.point(+1, -1)}
        assert validate_theory(model) == []

    @pytest.mark.parametrize("clone", [lambda m: pickle.loads(pickle.dumps(m)), copy.deepcopy])
    def test_models_pickle_and_deep_copy(self, clone):
        import numpy as np

        for model in (tiny_model(), random_product_model(np.random.default_rng(5), 2, 3, 3)):
            require_valid(model)
            twin = clone(model)
            assert twin == model
            assert twin.kernel.cells == model.kernel.cells
            assert twin.is_exact == model.is_exact
            assert validate_theory(twin) == []
            with pytest.raises(TypeError):
                twin.kernel.cells[("s1", "a1", "b1")] = None

    def test_equal_models_hash_alike_in_any_cell_order(self, fixtures_dir):
        # the parsed kernel holds ratios in document order, the twin's the
        # cells reversed: equal, so one hash and one member of a set
        model = parse_theory((fixtures_dir / "two_state.json").read_bytes())
        twin = TheoryModel(model.name, model.scenario, model.ensemble,
                           ResponseKernel(dict(reversed(model.kernel.cells.items()))))
        assert twin.kernel.keys == model.kernel.keys[::-1] != model.kernel.keys
        assert twin == model and hash(twin) == hash(model)
        assert len({model, twin}) == 1

    def test_report_validates_once(self, validate_calls, tmp_path, capsys):
        spec = tmp_path / "three_axes.json"
        dump_theory(make_planar_singlet("n1=0,n2=60,n3=120", "n1=0,n2=60,n3=120"), spec)
        validate_calls.clear()  # the builder validated the model it wrote
        code = main(["report", str(spec), "--bell1964", "n1,n2,n3", "--simulate-trials", "50",
                     "--format", "json"])
        sections = json.loads(capsys.readouterr().out)["sections"]
        assert code == 0
        assert "skipped" not in sections["bell_tests"]["bell1964"]
        assert "skipped" not in sections["simulation"]
        assert validate_calls == [None]
