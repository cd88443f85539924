"""Core model invariants: parsing, validation, behavior averaging, exactness."""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bell_lab.model import (
    DEFAULT_TOL,
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
    behavior,
    conditional_marginal,
    format_probability,
    parse_probability,
    require_valid,
    resolve_tolerance,
    swap_sides,
    validate_theory,
)

import genmodels
from genmodels import random_anticorr_mixture, random_product_model


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
        assert OutcomeDistribution.from_mapping(d.as_dict()) == d


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

    @settings(max_examples=80, deadline=None)
    @given(
        model=st.one_of(genmodels.arbitrary_models(), genmodels.decimal_models()),
        bad=st.sampled_from([float("nan"), float("inf"), float("-inf")]),
        data=st.data(),
    )
    def test_non_finite_values_always_reported(self, model, bad, data):
        target = data.draw(st.sampled_from(["weight", "cell", "direction"]))
        if target == "weight":
            i = data.draw(st.integers(0, len(model.ensemble.entries) - 1))
            entries = list(model.ensemble.entries)
            entries[i] = EnsembleEntry(entries[i].state_id, bad)
            model = replace(model, ensemble=HiddenStateEnsemble(tuple(entries)))
            where = f"ensemble[{entries[i].state_id}].weight"
        elif target == "cell":
            key = data.draw(st.sampled_from(sorted(model.kernel.cells)))
            label = data.draw(st.sampled_from(["++", "+-", "-+", "--"]))
            cells = dict(model.kernel.cells)
            cells[key] = OutcomeDistribution.from_mapping({**cells[key].as_dict(), label: bad})
            model = replace(model, kernel=ResponseKernel(cells))
            where = f"kernel[{key[0]},{key[1]},{key[2]}].{label}"
        else:
            first, *rest = model.scenario.alice_settings
            scen = Scenario((Setting(first.id, (0.0, bad, 1.0)), *rest), model.scenario.bob_settings)
            model = replace(model, scenario=scen)
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


class TestSwapSides:
    def test_double_swap_restores_kernel(self):
        import numpy as np

        model = random_product_model(np.random.default_rng(3), 2, 2, 2)
        twice = swap_sides(swap_sides(model))
        assert twice.kernel.cells == model.kernel.cells
        assert twice.scenario == model.scenario

    def test_swap_transposes_cells(self):
        model = tiny_model()
        swapped = swap_sides(model)
        dist = swapped.kernel.cell("s1", "b1", "a1")
        assert dist.mp == Fraction(1)
        assert dist.pm == Fraction(0)
