"""Inequality harness: CHSH, the 1964 three-axis inequality, brute-force
local bounds, and exact local-polytope membership."""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings

import genmodels
from bell_lab import harness
from bell_lab.harness import (
    AntiCorrelationPreconditionError,
    EnumerationLimitError,
    ScenarioShapeError,
    all_correlators,
    bell1964,
    chsh,
    correlator,
    enumerate_strategies,
    local_polytope_membership,
)
from bell_lab.model import (CHSH_CONVENTION, BellLabError, Scenario, Setting, UnknownIdError, behavior,
                            resolve_axes)
from bell_lab.singlet import make_planar_singlet
from bell_lab.specio import load_theory, parse_theory
from reference_harness import evaluate, max_local_chsh, strategy_behavior
from reference_simplex import _phase1_simplex as reference_phase1

ROOT8 = 2.0 * math.sqrt(2.0)


class TestStrategies:
    def test_sixteen_strategies_in_two_by_two(self, singlet_chsh):
        strategies = enumerate_strategies(singlet_chsh.scenario)
        assert len(strategies) == 16
        assert len(set(strategies)) == 16

    def test_strategy_behavior_is_deterministic_and_exact(self, singlet_chsh):
        strat = enumerate_strategies(singlet_chsh.scenario)[5]
        table = strategy_behavior(strat, singlet_chsh.scenario)
        for (a_id, b_id), dist in table.cells.items():
            assert sorted(dist.values()) == [0, 0, 0, 1]
            assert dist.prob(strat.alice_map[a_id], strat.bob_map[b_id]) == 1

    def test_enumeration_limit(self):
        scen = Scenario(
            alice_settings=tuple(Setting(id=f"a{i}") for i in range(5)),
            bob_settings=(Setting(id="b1"),),
        )
        with pytest.raises(EnumerationLimitError):
            enumerate_strategies(scen)


class TestCHSH:
    def test_singlet_hits_quantum_maximum_with_the_right_roles(self, singlet_chsh):
        table = behavior(singlet_chsh)
        result = chsh(table, "a2", "a1", "b1", "b2")
        assert abs(abs(result.chsh_value) - ROOT8) <= 1e-12
        assert result.violated
        assert result.local_bound == 2
        assert result.convention == CHSH_CONVENTION

    def test_declaration_order_roles_cancel_for_this_geometry(self, singlet_chsh):
        table = behavior(singlet_chsh)
        result = chsh(table, "a1", "a2", "b1", "b2")
        assert abs(result.chsh_value) <= 1e-12
        assert not result.violated

    def test_correlators_match_minus_cosine(self, singlet_chsh):
        table = behavior(singlet_chsh)
        result = chsh(table, "a2", "a1", "b1", "b2")
        # a2 is 90 deg, b1 is 45 deg: E = -cos(45)
        assert result.correlators[("a2", "b1")] == pytest.approx(
            -math.cos(math.radians(45.0)), abs=1e-12
        )

    def test_local_models_respect_the_bound(self):
        rng = np.random.default_rng(41)
        for _ in range(25):
            model = genmodels.random_product_model(rng, 2, 2, 3)
            table = behavior(model)
            a1, a2 = model.scenario.alice_ids()
            b1, b2 = model.scenario.bob_ids()
            result = chsh(table, a1, a2, b1, b2)
            assert abs(result.chsh_value) <= 2 + 1e-9
            assert not result.violated

    def test_to_dict_names_roles(self, singlet_chsh):
        doc = chsh(behavior(singlet_chsh), "a2", "a1", "b1", "b2").to_dict()
        assert doc["roles"] == {"a": "a2", "a_prime": "a1", "b": "b1", "b_prime": "b2"}
        assert doc["violated"] is True


class TestLocalBound:
    def test_bound_is_exactly_two(self, singlet_chsh):
        result = max_local_chsh(singlet_chsh.scenario)
        assert result.bound == Fraction(2)
        assert isinstance(result.bound, Fraction)

    def test_all_sixteen_strategies_evaluated(self, singlet_chsh):
        result = max_local_chsh(singlet_chsh.scenario)
        assert len(result.values) == 16
        # every deterministic strategy saturates |S| = 2 in a 2x2 scenario
        assert all(abs(v) == 2 for v in result.values.values())
        assert len(result.achievers) == 16

    def test_values_are_exact_integers(self, singlet_chsh):
        result = max_local_chsh(singlet_chsh.scenario)
        assert all(isinstance(v, (int, Fraction)) for v in result.values.values())

    def test_wrong_shape_rejected(self, singlet_three_axes):
        with pytest.raises(ScenarioShapeError):
            max_local_chsh(singlet_three_axes.scenario)

    def test_sign_bound_table_is_the_strategy_maximum(self, singlet_chsh):
        # the table chsh and the facet search read, brute-forced at import
        assert harness._CHSH_SIGN_BOUNDS[harness.CHSH_SIGNS] == max_local_chsh(singlet_chsh.scenario).bound
        for signs, bound in harness._CHSH_SIGN_BOUNDS.items():
            odd = signs[0] * signs[1] * signs[2] * signs[3] == -1
            assert bound == (2 if odd else 4)


class TestBell1964:
    def test_singlet_violates_at_sixty_degree_spacing(self, singlet_three_axes):
        table = behavior(singlet_three_axes)
        axes = resolve_axes(singlet_three_axes.scenario, ["n1", "n2", "n3"])
        result = bell1964(table, tuple(axes))
        assert result.lhs == pytest.approx(1.0, abs=1e-9)
        assert result.rhs == pytest.approx(0.5, abs=1e-9)
        assert result.violated
        assert not result.satisfied

    def test_local_anticorrelated_mixtures_satisfy(self):
        rng = np.random.default_rng(43)
        for _ in range(25):
            model = genmodels.random_anticorr_mixture(rng, 3, 5)
            table = behavior(model)
            axes = (("n1", "n1"), ("n2", "n2"), ("n3", "n3"))
            result = bell1964(table, axes)
            assert result.satisfied

    def test_bound_is_brute_forced(self, singlet_three_axes):
        # over the 8 anti-correlated sign patterns, E(i, j) = -s_i s_j,
        # |E(1,2) - E(1,3)| - E(2,3) reaches 1 and no more
        assert harness._BELL1964_BOUND == 1 and type(harness._BELL1964_BOUND) is int
        axes = (("n1", "n1"), ("n2", "n2"), ("n3", "n3"))
        exact = bell1964(behavior(genmodels.random_anticorr_mixture(np.random.default_rng(5), 3, 4)), axes)
        decimal = bell1964(behavior(singlet_three_axes), axes)
        for result in (exact, decimal):
            assert result.rhs == 1 + result.correlators["E(2,3)"]
        assert type(exact.rhs) is Fraction and type(decimal.rhs) is float

    def test_precondition_enforced(self, singlet_chsh):
        table = behavior(singlet_chsh)
        axes = (("a1", "b1"), ("a2", "b2"), ("a1", "b2"))
        with pytest.raises(AntiCorrelationPreconditionError, match="use chsh"):
            bell1964(table, axes)

    def test_axis_count_enforced(self, singlet_three_axes):
        table = behavior(singlet_three_axes)
        with pytest.raises(ScenarioShapeError):
            bell1964(table, (("n1", "n1"), ("n2", "n2")))

    @settings(max_examples=30, deadline=None)
    @given(genmodels.anticorr_mixtures(min_axes=3, max_axes=3))
    def test_every_local_mixture_satisfies(self, model):
        table = behavior(model)
        axes = (("n1", "n1"), ("n2", "n2"), ("n3", "n3"))
        assert bell1964(table, axes).satisfied


class TestResolveAxes:
    def test_bare_names_use_shared_ids(self, singlet_three_axes):
        axes = resolve_axes(singlet_three_axes.scenario, ["n1", "n3"])
        assert axes == [("n1", "n1"), ("n3", "n3")]

    def test_explicit_pairs(self, singlet_chsh):
        axes = resolve_axes(singlet_chsh.scenario, ["a1=b2"])
        assert axes == [("a1", "b2")]

    def test_vector_match_fallback(self):
        model = make_planar_singlet("a1=0", "bz=0")
        axes = resolve_axes(model.scenario, ["a1"])
        assert axes == [("a1", "bz")]

    def test_unresolvable_name_raises(self, singlet_chsh):
        with pytest.raises(BellLabError, match="cannot resolve axis"):
            resolve_axes(singlet_chsh.scenario, ["a1"])

    def test_tuples_name_ids_holding_equals_verbatim(self):
        settings_ = (Setting("x=1"), Setting("x"), Setting("1"))
        scenario = Scenario(settings_, settings_)
        assert resolve_axes(scenario, [("x=1", None), ("x=1", "x"), "x=1"]) == [
            ("x=1", "x=1"), ("x=1", "x"), ("x", "1")]
        with pytest.raises(UnknownIdError, match="Bob setting id 'y'"):
            resolve_axes(scenario, [("x=1", "y")])


class TestMembership:
    def test_singlet_chsh_behavior_is_outside(self, singlet_chsh):
        table = behavior(singlet_chsh)
        cert = local_polytope_membership(table)
        assert not cert.inside
        assert cert.weights is None
        f = cert.functional
        assert f is not None and f.kind == "chsh"
        assert f.bound == 2
        assert f.value == pytest.approx(ROOT8, abs=1e-9)
        assert f.margin > 0

    def test_functional_reevaluates_to_its_claimed_value(self, singlet_chsh):
        table = behavior(singlet_chsh)
        f = local_polytope_membership(table).functional
        assert evaluate(f, table) == pytest.approx(float(f.value), abs=1e-12)

    def test_functional_bounds_every_deterministic_strategy(self, singlet_chsh):
        table = behavior(singlet_chsh)
        f = local_polytope_membership(table).functional
        for strat in enumerate_strategies(singlet_chsh.scenario):
            v = evaluate(f, strategy_behavior(strat, singlet_chsh.scenario))
            assert v <= f.bound

    def test_realized_mixture_is_inside_with_exact_weights(self, fixtures_dir):
        model = load_theory(fixtures_dir / "eight_pattern.json")
        table = behavior(model)
        cert = local_polytope_membership(table)
        assert cert.inside
        assert cert.residual == 0
        assert cert.functional is None
        total = sum(cert.weights.values())
        assert total == Fraction(1)
        # the weights reconstruct the behavior cell by cell, exactly
        recon = {}
        for strat, w in cert.weights.items():
            tbl = strategy_behavior(strat, model.scenario)
            for key, dist in tbl.cells.items():
                for A, B in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                    recon[(key, A, B)] = recon.get((key, A, B), Fraction(0)) + w * dist.prob(A, B)
        for key, dist in table.cells.items():
            for A, B in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                assert recon[(key, A, B)] == dist.prob(A, B)

    def test_three_axis_singlet_is_outside_via_general_functional(self, singlet_three_axes):
        table = behavior(singlet_three_axes)
        cert = local_polytope_membership(table)
        assert not cert.inside
        f = cert.functional
        assert f is not None and f.kind == "affine"
        assert f.margin > 0
        for strat in enumerate_strategies(singlet_three_axes.scenario):
            assert evaluate(f, strategy_behavior(strat, singlet_three_axes.scenario)) <= f.bound

    def test_random_local_mixtures_are_inside(self):
        rng = np.random.default_rng(47)
        for _ in range(15):
            model = genmodels.random_anticorr_mixture(rng, 2, 4)
            cert = local_polytope_membership(behavior(model))
            assert cert.inside
            assert cert.residual == 0

    def test_random_product_models_are_inside(self):
        rng = np.random.default_rng(48)
        for _ in range(15):
            model = genmodels.random_product_model(rng, 2, 2, 3)
            cert = local_polytope_membership(behavior(model))
            assert cert.inside

    @settings(max_examples=25, deadline=None)
    @given(genmodels.anticorr_mixtures(min_axes=2, max_axes=2))
    def test_membership_weights_are_a_distribution(self, model):
        cert = local_polytope_membership(behavior(model))
        assert cert.inside
        assert all(w >= 0 for w in cert.weights.values())
        assert sum(cert.weights.values()) == 1

    def test_near_feasible_decimal_mixture_is_inside_with_weights(self):
        # weights 0.1..0.4 are not dyadic: exact phase 1 ends 11/2^55 short
        spec = {
            "name": "decimal local mixture",
            "scenario": {"alice_settings": [{"id": "a1"}, {"id": "a2"}],
                         "bob_settings": [{"id": "b1"}, {"id": "b2"}]},
            "ensemble": [{"id": f"d{k}", "weight": k / 10} for k in range(1, 5)],
            "kernel": {},
        }
        signs = {"d1": ((1, 1), (1, -1)), "d2": ((1, -1), (-1, -1)),
                 "d3": ((-1, 1), (1, 1)), "d4": ((-1, -1), (-1, 1))}
        for sid, (sa, sb) in signs.items():
            spec["kernel"][sid] = {
                f"a{i + 1}|b{j + 1}": {
                    key: int((sa[i], sb[j]) == ab)
                    for key, ab in zip(("++", "+-", "-+", "--"), ((1, 1), (1, -1), (-1, 1), (-1, -1)))
                }
                for i in range(2) for j in range(2)
            }
        model = parse_theory(json.dumps(spec))
        table = behavior(model)
        cert = local_polytope_membership(table)
        assert cert.inside
        assert cert.residual == Fraction(11, 2**55)
        assert_weights_reproduce(cert, table, model.scenario)

    def test_equal_axes_singlet_is_inside_with_weights(self, singlet_equal_axes):
        table = behavior(singlet_equal_axes)
        cert = local_polytope_membership(table)
        assert cert.inside
        assert 0 < cert.residual <= cert.tolerance
        assert_weights_reproduce(cert, table, singlet_equal_axes.scenario)

    def test_corrupted_outside_certificate_is_refused(self, singlet_three_axes, monkeypatch):
        solve = harness._phase1_simplex

        def lift_first_row(columns, rhs):
            w, y, det = solve(columns, rhs)
            # every vertex using row 0 now scores above zero; y . rhs only grows
            return w, [y[0] + det + sum(abs(v) for v in y)] + y[1:], det

        monkeypatch.setattr(harness, "_phase1_simplex", lift_first_row)
        with pytest.raises(BellLabError, match="outside certificate failed verification"):
            local_polytope_membership(behavior(singlet_three_axes))

    def test_corrupted_inside_certificate_is_refused(self, fixtures_dir, monkeypatch):
        solve = harness._phase1_simplex

        def shift_a_weight(columns, rhs):
            w, y, det = solve(columns, rhs)
            j = next(j for j, w_j in enumerate(w) if w_j)
            return w[:j] + [w[j] + 1] + w[j + 1:], y, det

        monkeypatch.setattr(harness, "_phase1_simplex", shift_a_weight)
        table = behavior(load_theory(fixtures_dir / "eight_pattern.json"))
        with pytest.raises(BellLabError, match="inside certificate failed verification"):
            local_polytope_membership(table)


def assert_weights_reproduce(cert, table, scenario):
    """Nonnegative weights that sum to 1 and rebuild every cell within tolerance."""
    t = cert.tolerance
    assert cert.weights and all(w >= 0 for w in cert.weights.values())
    assert abs(sum(cert.weights.values()) - 1) <= t
    for a_id, b_id in scenario.pairs():
        for A, B in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            recon = sum(
                w for s, w in cert.weights.items()
                if s.alice_map[a_id] == A and s.bob_map[b_id] == B
            )
            assert abs(recon - Fraction(table.cell(a_id, b_id).prob(A, B))) <= t


class TestPhase1Simplex:
    """The integer tableau against the Fraction tableau it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(genmodels.zero_one_systems())
    def test_same_verdict_and_vector_as_the_fraction_tableau(self, system):
        columns, rhs = system
        scale = math.lcm(*(r.denominator for r in rhs))
        w, y, det = harness._phase1_simplex(columns, [int(r * scale) for r in rhs])
        feasible, vec = reference_phase1(
            [[Fraction(v) for v in col] for col in columns], rhs
        )
        assert det > 0
        assert (y is None) == feasible
        if feasible:
            assert [Fraction(x, det * scale) for x in w] == vec
        else:
            assert [Fraction(x, det) for x in y] == vec
        assert all(x >= 0 for x in w)


class TestCorrelators:
    def test_correlator_definition(self, singlet_chsh):
        table = behavior(singlet_chsh)
        dist = table.cell("a1", "b1")
        assert correlator(table, "a1", "b1") == pytest.approx(
            dist.pp - dist.pm - dist.mp + dist.mm, abs=0
        )

    def test_all_correlators_cover_every_pair(self, singlet_chsh):
        table = behavior(singlet_chsh)
        corr = all_correlators(table)
        assert set(corr) == set(singlet_chsh.scenario.pairs())
