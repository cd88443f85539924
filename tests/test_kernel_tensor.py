"""The kernel tensor against the per-cell dict walks it replaced.

`tests/reference_audit.py` keeps `behavior`, `check_bell_locality`,
`check_anticorrelation`, `derive_instruction_sets` and the sampler's
cumulative tables as they were before every reader went through
`TheoryModel.tensor`.  The properties here hold the tensor versions to
them on exact, decimal, mixed and relabelled models at several
tolerances: the same JSON bytes, and every reported value of the same
Python type with the same repr, so a float keeps its bits (-0.0 included)
and a Fraction stays a Fraction.
"""

from __future__ import annotations

import copy
import json
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import genmodels
import reference_audit as ref
from bell_lab import audit, instructions, model as model_module
from bell_lab.model import (
    BellLabError,
    EnsembleEntry,
    HiddenStateEnsemble,
    OutcomeDistribution,
    ResponseKernel,
    Scenario,
    Setting,
    TheoryModel,
    UnknownIdError,
    require_valid,
)
from bell_lab.montecarlo import _Sampler

models = st.one_of(
    genmodels.arbitrary_models(),
    genmodels.decimal_models(),
    genmodels.product_models(),
    genmodels.relabelled_models(),
    genmodels.anticorr_mixtures(),
)
tolerances = st.sampled_from([None, 0.0, 0.05])


def _signed_zero_model() -> TheoryModel:
    """Decimal weights and cells holding -0.0, which a sum or a product
    may keep or drop depending on the order of its operands."""
    n = (Setting("n1"), Setting("n2"))
    cells = {}
    for state, flip in (("s1", 1), ("s2", -1)):
        for a in n:
            for b in n:
                sure = (a.id == b.id) == (flip > 0)
                cells[(state, a.id, b.id)] = (
                    OutcomeDistribution(-0.0, 1.0, -0.0, -0.0) if sure
                    else OutcomeDistribution(-0.0, 0.25, 0.75, -0.0)
                )
    return TheoryModel(
        name="signed zeros",
        scenario=Scenario(n, n),
        ensemble=HiddenStateEnsemble((EnsembleEntry("s1", 0.5), EnsembleEntry("s2", 0.5))),
        kernel=ResponseKernel(cells),
    )


def typed(value):
    """A value as its type and repr: equal only when the bits agree."""
    return type(value).__name__, repr(value)


def outcome(check, *args):
    """A check's result, or the error it raised, as comparable data."""
    try:
        return check(*args)
    except BellLabError as exc:
        return type(exc).__name__, str(exc)


def axes_of(model: TheoryModel) -> list[tuple[str, str]]:
    """Setting pairs to audit as equal axes: the i-th Alice setting with
    the i-th Bob setting."""
    return list(zip(model.scenario.alice_ids(), model.scenario.bob_ids()))


class TestAgainstTheDictWalks:
    @settings(max_examples=150, deadline=None)
    @given(model=models, tol=tolerances)
    @example(model=_signed_zero_model(), tol=None)
    @example(model=_signed_zero_model(), tol=0.0)
    def test_behavior_and_locality(self, model, tol):
        table, expected = outcome(model_module.behavior, model, tol), outcome(ref.behavior, model, tol)
        assert table == expected
        if isinstance(expected, tuple):
            return  # invalid at tol: both refused it the same way
        for key, dist in expected.cells.items():
            assert list(map(typed, table.cells[key].values())) == list(map(typed, dist.values()))

        report, expected = audit.check_bell_locality(model, tol), ref.check_bell_locality(model, tol)
        assert json.dumps(report.to_dict()) == json.dumps(expected.to_dict())
        assert typed(report.worst_residual) == typed(expected.worst_residual)
        for got, want in zip(report.violations, expected.violations, strict=True):
            assert [typed(v) for v in (got.lhs, got.rhs, got.residual)] == [
                typed(v) for v in (want.lhs, want.rhs, want.residual)
            ]

    @settings(max_examples=150, deadline=None)
    @given(model=models, tol=tolerances)
    @example(model=_signed_zero_model(), tol=None)
    def test_anticorrelation_derivation_and_sampler_tables(self, model, tol):
        for axes in (None, axes_of(model)):
            got = outcome(audit.check_anticorrelation, model, axes, tol)
            want = outcome(ref.check_anticorrelation, model, axes, tol)
            assert got == want
            if not isinstance(want, tuple):
                assert [(typed(c.same_plus), typed(c.same_minus)) for c in got.checks] == [
                    (typed(c.same_plus), typed(c.same_minus)) for c in want.checks
                ]
            got = outcome(instructions.derive_instruction_sets, model, axes, tol)
            want = outcome(ref.derive_instruction_sets, model, axes, tol)
            assert got == want
            if isinstance(want, instructions.DerivationFailure):
                assert typed(got.marginal) == typed(want.marginal)
        sampler = outcome(_Sampler, model, 1, None, tol)
        if not isinstance(sampler, tuple):
            state_cum, outcome_cum = ref.sampler_tables(model)
            assert sampler.state_cum.tobytes() == state_cum.tobytes()
            assert sampler.outcome_cum.shape == outcome_cum.shape
            assert sampler.outcome_cum.tobytes() == outcome_cum.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(model=models, tol=tolerances)
    @example(model=_signed_zero_model(), tol=None)
    def test_conditional_violations_read_the_scalar_conditional(self, model, tol):
        try:
            report = audit.check_bell_locality(model, tol)
        except BellLabError:
            return
        for v in report.violations:
            if v.form == "factorization":
                continue
            side = v.form.removeprefix("conditional-")
            own, far = (v.a_id, v.b_id) if side == "alice" else (v.b_id, v.a_id)
            own_outcome, far_outcome = (
                (v.outcome_a, v.outcome_b) if side == "alice" else (v.outcome_b, v.outcome_a)
            )
            scalar = ref.conditional_marginal(
                model, side, own_outcome, own, far, v.state_id, far_outcome, tol
            )
            assert typed(v.lhs) == typed(scalar)


class TestCachedTensor:
    def valid_model(self) -> TheoryModel:
        model = genmodels.random_product_model(np.random.default_rng(3), 2, 3, 4)
        require_valid(model)
        return model

    def test_built_once_and_read_only(self):
        model = self.valid_model()
        kt = model.tensor
        assert model.tensor is kt
        assert kt.K.shape == (4, 2, 3, 2, 2) and kt.w.shape == (4,)
        assert kt.scaled is kt.scaled and kt.scaled[0] is kt.K and kt.scaled[1] is None
        for array in (kt.K, kt.w, kt.scaled[0]):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[(0,) * array.ndim] = Fraction(1)
        assert kt.K[1, 0, 2, 0, 1] == model.kernel.cells[("s2", "a1", "b3")].pm

    def test_read_before_validation(self):
        # the tensor is arranged from the kernel's stored rows, valid or not;
        # only a missing cell stops it
        model = genmodels.random_product_model(np.random.default_rng(3), 2, 2, 2)
        assert model.tensor.K[1, 0, 1, 1, 0] == model.kernel.cell("s2", "a1", "b2").mp
        assert "_valid_at" not in vars(model) or not model._valid_at
        cells = dict(model.kernel.cells)
        del cells[("s2", "a2", "b1")]
        broken = TheoryModel(model.name, model.scenario, model.ensemble, ResponseKernel(cells))
        with pytest.raises(UnknownIdError, match=r"state='s2', a='a2', b='b1'"):
            broken.tensor

    @pytest.mark.parametrize("clone", [lambda m: pickle.loads(pickle.dumps(m)), copy.deepcopy])
    def test_models_with_a_tensor_pickle_and_deep_copy(self, clone):
        model = self.valid_model()
        kt = model.tensor
        twin = clone(model)
        assert twin == model
        assert "tensor" not in vars(twin)
        assert not twin.tensor.K.flags.writeable
        assert twin.tensor.K.tolist() == kt.K.tolist()
        assert model_module.behavior(twin) == model_module.behavior(model)
