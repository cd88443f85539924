"""Locality and anti-correlation audits.

Covers both audit forms (factorization and outcome-conditional), the
signal audit at behavior level, and equal-axis anti-correlation with
auto-detection.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings

import genmodels
from bell_lab.audit import (
    LocalityViolation,
    check_anticorrelation,
    check_bell_locality,
    check_signal_locality,
    signal_deltas,
)
from bell_lab.model import (
    DEFAULT_TOL,
    BellLabError,
    EnsembleEntry,
    EqualAxisError,
    HiddenStateEnsemble,
    OutcomeDistribution,
    ResponseKernel,
    Scenario,
    Setting,
    TheoryModel,
    auto_equal_axes,
    behavior,
)
from bell_lab.singlet import make_planar_singlet
from bell_lab.specio import load_theory

import reference_audit


class TestBellLocality:
    def test_product_models_pass(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            report = check_bell_locality(genmodels.random_product_model(rng, 2, 2, 3))
            assert report.bell_local
            assert report.verdict == "BellLocal"
            assert report.worst_residual == 0

    def test_deterministic_mixtures_pass_exactly(self):
        rng = np.random.default_rng(22)
        report = check_bell_locality(genmodels.random_anticorr_mixture(rng, 3, 6))
        assert report.bell_local
        assert report.tolerance == 0.0

    def test_singlet_fails_with_quarter_residual(self, singlet_equal_axes):
        report = check_bell_locality(singlet_equal_axes)
        assert not report.bell_local
        assert report.verdict == "NotBellLocal"
        assert report.worst_residual == pytest.approx(0.25, abs=1e-9)

    def test_singlet_violations_name_both_forms(self, singlet_equal_axes):
        report = check_bell_locality(singlet_equal_axes)
        forms = {v.form for v in report.violations}
        assert "factorization" in forms
        assert "conditional-alice" in forms and "conditional-bob" in forms

    def test_worst_residual_scores_factorization_only(self, singlet_equal_axes):
        report = check_bell_locality(singlet_equal_axes)
        fact = [v.residual for v in report.violations if v.form == "factorization"]
        assert report.worst_residual == max(fact)
        cond = [v.residual for v in report.violations if v.form.startswith("conditional")]
        assert max(cond) == pytest.approx(0.5, abs=1e-9)

    def test_setting_dependent_marginal_is_flagged(self, fixtures_dir):
        model = load_theory(fixtures_dir / "signalling.json")
        report = check_bell_locality(model)
        assert not report.bell_local

    def test_a_bool_tolerance_is_refused_and_a_numpy_float_taken(self, singlet_equal_axes):
        with pytest.raises(BellLabError, match="tolerance"):
            check_bell_locality(singlet_equal_axes, True)
        report = check_bell_locality(singlet_equal_axes, np.float64(0.25))
        assert json.loads(json.dumps(report.to_dict()))["tolerance"] == 0.25

    def test_report_serializes(self, singlet_equal_axes):
        doc = check_bell_locality(singlet_equal_axes).to_dict()
        assert doc["verdict"] == "NotBellLocal"
        assert isinstance(doc["violations"], list) and doc["violations"]

    @settings(max_examples=40, deadline=None)
    @given(genmodels.anticorr_mixtures())
    def test_every_deterministic_mixture_is_bell_local(self, model):
        assert check_bell_locality(model).bell_local

    @settings(max_examples=40, deadline=None)
    @given(genmodels.product_models())
    def test_every_product_model_is_bell_local(self, model):
        assert check_bell_locality(model).bell_local


class TestLocalityViolationRow:
    """A violation is a tuple-backed row: immutable, built by position,
    and serialized as before."""

    ROW = LocalityViolation("conditional-bob", "s1", "a2", "b1", None, -1,
                            Fraction(1, 3), 0.5, Fraction(1, 6))

    @pytest.mark.parametrize("field", LocalityViolation._fields)
    def test_fields_cannot_be_assigned(self, field):
        with pytest.raises(AttributeError):
            setattr(self.ROW, field, 0)

    def test_positional_construction_and_to_dict(self):
        row = self.ROW
        assert LocalityViolation._fields == (
            "form", "state_id", "a_id", "b_id", "outcome_a", "outcome_b", "lhs", "rhs", "residual")
        assert (row.form, row.state_id, row.outcome_a, row.outcome_b) == ("conditional-bob", "s1",
                                                                         None, -1)
        assert row == tuple(row) == ("conditional-bob", "s1", "a2", "b1", None, -1,
                                     Fraction(1, 3), 0.5, Fraction(1, 6))
        assert row[6] is row.lhs and row[-1] is row.residual
        assert row.to_dict() == {
            "form": "conditional-bob", "state": "s1", "a": "a2", "b": "b1",
            "outcome_a": None, "outcome_b": -1,
            "lhs": "1/3", "rhs": 0.5, "residual": "1/6",
        }

    def test_large_decimal_report_matches_the_reference(self):
        model = genmodels.random_arbitrary_model(np.random.default_rng(3), 3, 3, 256)
        report = check_bell_locality(model)
        want = reference_audit.check_bell_locality(model)
        assert len(report.violations) > 1000
        assert all(type(v) is LocalityViolation for v in report.violations)
        assert report.violations == want.violations
        assert json.dumps(report.to_dict()) == json.dumps(want.to_dict())


class TestSignalLocality:
    def test_product_models_do_not_signal(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            report = check_signal_locality(genmodels.random_product_model(rng, 2, 3, 2))
            assert report.signal_local
            assert report.verdict == "SignalLocal"

    def test_singlet_does_not_signal(self, singlet_chsh):
        report = check_signal_locality(singlet_chsh)
        assert report.signal_local
        assert report.max_delta <= 1e-12

    def test_signalling_fixture_caught(self, fixtures_dir):
        model = load_theory(fixtures_dir / "signalling.json")
        report = check_signal_locality(model)
        assert not report.signal_local
        assert report.verdict == "Signalling"
        assert report.max_delta == Fraction(1)
        worst = max(report.deltas, key=lambda d: d.delta)
        assert worst.side == "alice"
        assert worst.far_pair == ("b1", "b2")

    def test_deltas_cover_both_sides(self, singlet_chsh):
        report = check_signal_locality(singlet_chsh)
        sides = {d.side for d in report.deltas}
        assert sides == {"alice", "bob"}
        # 2x2 scenario: per side, 2 own settings x 2 outcomes x 1 far pair
        assert len(report.deltas) == 8

    def test_single_setting_side_has_no_deltas_for_it(self):
        model = TheoryModel(
            name="one-sided",
            scenario=Scenario(
                alice_settings=(Setting(id="a1"),),
                bob_settings=(Setting(id="b1"), Setting(id="b2")),
            ),
            ensemble=HiddenStateEnsemble(entries=(EnsembleEntry("s1", Fraction(1)),)),
            kernel=ResponseKernel(
                {
                    ("s1", "a1", "b1"): OutcomeDistribution.point(+1, -1),
                    ("s1", "a1", "b2"): OutcomeDistribution.point(+1, +1),
                }
            ),
        )
        report = check_signal_locality(model)
        assert all(d.side == "alice" for d in report.deltas)
        assert report.signal_local

    def test_signal_deltas_accepts_raw_table(self, singlet_chsh):
        table = behavior(singlet_chsh)
        report = signal_deltas(table, tol=1e-9)
        assert report.signal_local

    def test_signal_deltas_defaults_to_the_tolerance_rule(self, fixtures_dir):
        # a decimal table's marginals differ by rounding (5.55e-17 here):
        # with no tol it is audited at DEFAULT_TOL, as check_signal_locality does
        singlet = make_planar_singlet("a1=0,a2=90", "b1=45,b2=135")
        report = signal_deltas(behavior(singlet))
        assert 0 < report.max_delta <= DEFAULT_TOL
        assert (report.tolerance, report.verdict) == (DEFAULT_TOL, "SignalLocal")
        assert report == check_signal_locality(singlet)
        exact = signal_deltas(behavior(load_theory(fixtures_dir / "signalling.json")))
        assert (exact.tolerance, exact.verdict) == (0.0, "Signalling")

    @pytest.mark.parametrize("tol", [-1e-9, math.nan, math.inf, True, "0.1", Fraction(1, 10)])
    def test_signal_deltas_rejects_bad_tolerances(self, singlet_chsh, tol):
        with pytest.raises(BellLabError, match="tolerance"):
            signal_deltas(behavior(singlet_chsh), tol)


class TestAntiCorrelation:
    def test_singlet_equal_axes_hold(self, singlet_equal_axes):
        report = check_anticorrelation(singlet_equal_axes)
        assert report.holds
        assert report.verdict == "AntiCorrelated"
        assert set(report.axes_checked) == {("n1", "n1"), ("n2", "n2")}

    def test_auto_detection_matches_vectors_not_ids(self, singlet_chsh):
        # chsh scenario has distinct angles everywhere; nothing auto-detects
        assert auto_equal_axes(singlet_chsh.scenario) == []
        with pytest.raises(EqualAxisError):
            check_anticorrelation(singlet_chsh)

    def test_explicit_pairs_override_detection(self, singlet_chsh):
        report = check_anticorrelation(singlet_chsh, equal_axis_pairs=[("a1", "b1")])
        # 0 vs 45 degrees is not an equal axis, so same outcomes do occur
        assert not report.holds
        assert report.offending()

    def test_eight_pattern_fixture_holds_exactly(self, fixtures_dir):
        model = load_theory(fixtures_dir / "eight_pattern.json")
        report = check_anticorrelation(model)
        assert report.holds
        assert report.tolerance == 0.0
        assert all(c.same_plus == 0 and c.same_minus == 0 for c in report.checks)

    def test_unknown_axis_ids_raise(self, singlet_equal_axes):
        from bell_lab.model import UnknownIdError

        with pytest.raises(UnknownIdError):
            check_anticorrelation(singlet_equal_axes, equal_axis_pairs=[("zz", "n1")])

    def test_offending_check_is_located(self, fixtures_dir):
        model = load_theory(fixtures_dir / "two_state.json")
        broken = TheoryModel(
            name="broken",
            scenario=model.scenario,
            ensemble=model.ensemble,
            kernel=ResponseKernel(
                {
                    key: (OutcomeDistribution.point(+1, +1) if key[0] == "up" else dist)
                    for key, dist in model.kernel.cells.items()
                }
            ),
        )
        report = check_anticorrelation(broken)
        bad = report.offending()
        assert bad and bad[0].state_id == "up"
        assert bad[0].same_plus == Fraction(1)

    @settings(max_examples=40, deadline=None)
    @given(genmodels.anticorr_mixtures())
    def test_every_realized_instruction_mixture_holds(self, model):
        assert check_anticorrelation(model).holds


class TestLocalityImpliesNoSignalling:
    @settings(max_examples=40, deadline=None)
    @given(genmodels.product_models())
    def test_bell_local_implies_signal_local(self, model):
        if check_bell_locality(model).bell_local:
            assert check_signal_locality(model).signal_local

    def test_arbitrary_models_keep_the_implication(self):
        rng = np.random.default_rng(29)
        for _ in range(40):
            model = genmodels.random_arbitrary_model(rng, 2, 2, 2)
            if check_bell_locality(model).bell_local:
                assert check_signal_locality(model).signal_local
