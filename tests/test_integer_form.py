"""The integer form of an exact kernel against the dict walks.

An exact model's `behavior`, and the locality audit, anti-correlation
audit and derivation of any model with an exact kernel, compare Python-int
numerators over one denominator per state (`KernelTensor.integer_form`)
and build Fractions only for the values they report.  The properties here
hold them to `tests/reference_audit.py` at the edges of that integer
path: per-state denominators beyond 2^63, tolerances whose float is not
the rational they spell (0.1, 1e-9, 1/3), residuals that sit exactly on
those rationals, zero marginals where conditioning is skipped, and a
derivation failure of every kind.  The path follows the kernel alone
(`KernelTensor.scaled`): an exact kernel under float weights takes the
integer path, and a decimal or mixed kernel keeps the object-array path.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import genmodels
import reference_audit as ref
from bell_lab import audit, instructions, model as model_module
from bell_lab.model import (
    EnsembleEntry,
    HiddenStateEnsemble,
    OutcomeDistribution,
    ResponseKernel,
    Scenario,
    Setting,
    TheoryModel,
)
from test_kernel_tensor import axes_of, outcome, typed

#: The ten largest primes below 2^32: two of them multiply past 2^63.
PRIMES = (4294967291, 4294967279, 4294967231, 4294967197, 4294967189,
          4294967161, 4294967143, 4294967111, 4294967087, 4294967029)

#: None and 0 are the exact default; 0.1, 1e-9 and 1/3 are floats whose
#: exact value lies just above (0.1, 1e-9) or just below (1/3) the
#: rational, and marginals of exactly 1/2 meet 0.5 on the nose.
TOLERANCES = st.sampled_from([None, 0.0, 0.1, 1e-9, 1 / 3, 0.5])

#: Marginals whose differences and products land exactly on 1/10, 1/3
#: and 1/10^9, and on 0 and 1.
GRID = tuple(Fraction(v) for v in (
    0, 1, Fraction(1, 2), Fraction(3, 5), Fraction(2, 5), Fraction(5, 6), Fraction(1, 6),
    Fraction(1, 10), Fraction(9, 10), Fraction(1, 3), Fraction(2, 3),
    Fraction(1, 10**9), 1 - Fraction(1, 10**9), Fraction(1, 2) + Fraction(1, 10**9),
))

#: Marginals more than 1e-9 inside (0, 1).
INNER = tuple(v for v in GRID if Fraction(1e-9) < v < 1 - Fraction(1e-9))

REASONS = {
    "moves": "own-outcome marginal moves with the far setting",
    "between": "marginal strictly between 0 and 1: outcome not deterministic",
    "same sign": "anti-correlation fails: both wings fixed to the same sign",
}


def _scenario(na: int, nb: int) -> Scenario:
    return Scenario(tuple(Setting(f"a{i + 1}") for i in range(na)),
                    tuple(Setting(f"b{i + 1}") for i in range(nb)))


def _model(name: str, scenario: Scenario, weights, cell) -> TheoryModel:
    """A model whose cell (state k, a, b) is `cell(k, i, j)`."""
    entries = tuple(EnsembleEntry(f"s{k + 1}", w) for k, w in enumerate(weights))
    return TheoryModel(
        name=name,
        scenario=scenario,
        ensemble=HiddenStateEnsemble(entries),
        kernel=ResponseKernel({
            (f"s{k + 1}", a.id, b.id): cell(k, i, j)
            for k in range(len(weights))
            for i, a in enumerate(scenario.alice_settings)
            for j, b in enumerate(scenario.bob_settings)
        }),
    )


def _product(qa: Fraction, rb: Fraction) -> OutcomeDistribution:
    """The cell with P(A=+1) = qa and P(B=+1) = rb, independent."""
    return OutcomeDistribution(qa * rb, qa * (1 - rb), (1 - qa) * rb, (1 - qa) * (1 - rb))


@st.composite
def coprime_models(draw) -> TheoryModel:
    """Exact models whose cells sit over distinct primes near 2^32, so every
    state's lcm exceeds 2^63; cuts at 0 and at the prime put zero cells and
    zero marginals in."""
    na = draw(st.integers(1, 3))
    nb = draw(st.integers(2 if na == 1 else 1, 3))
    weights = draw(genmodels.exact_simplex(draw(st.integers(1, 3))))
    cells = {}
    for k in range(len(weights)):
        primes = iter(draw(st.permutations(PRIMES)))
        for c in range(na * nb):
            p = next(primes)
            inner = st.integers(1, p - 1)
            edge = st.one_of(st.just(0), st.just(p), st.integers(0, p))
            # the first two cells of a state keep their prime as a denominator
            cuts = sorted([draw(inner if c < 2 else edge), draw(edge), draw(edge)])
            parts = [b - a for a, b in zip([0, *cuts], [*cuts, p])]
            cells[(k, *divmod(c, nb))] = OutcomeDistribution(*(Fraction(n, p) for n in parts))
    return _model("coprime denominators", _scenario(na, nb), weights,
                  lambda k, i, j: cells[k, i, j])


@st.composite
def grid_models(draw) -> TheoryModel:
    """Product cells whose marginals move with the far setting by exactly
    1/10, 1/3 or 1/10^9, or sit at 0, 1 or 1/10^9 from them."""
    na, nb = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    weights = draw(genmodels.exact_simplex(draw(st.integers(1, 3))))
    margs = {(k, i, j): (draw(st.sampled_from(GRID)), draw(st.sampled_from(GRID)))
             for k in range(len(weights)) for i in range(na) for j in range(nb)}
    return _model("grid marginals", _scenario(na, nb), weights,
                  lambda k, i, j: _product(*margs[k, i, j]))


@st.composite
def failing_derivations(draw, reason: str) -> tuple[TheoryModel, str]:
    """(model, side) on shared axes: states that follow anti-correlated
    instructions, but for one that breaks them the way `reason` names."""
    n = draw(st.integers(1 if reason != "moves" else 2, 3))
    n_states = draw(st.integers(1, 4))
    weights = draw(genmodels.exact_simplex(n_states))
    signs = [draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
             for _ in range(n_states)]
    alice = [[[Fraction(s == 1) for s in row] for _ in range(n)] for row in signs]  # [k][b][a]
    bob = [[[Fraction(s == -1) for s in row] for _ in range(n)] for row in signs]   # [k][a][b]
    bad, axis = draw(st.integers(0, n_states - 1)), draw(st.integers(0, n - 1))
    side = "bob" if reason == "same sign" else draw(st.sampled_from(("alice", "bob")))
    own = alice if side == "alice" else bob
    value = draw(st.sampled_from(INNER))
    if reason == "moves":
        own[bad][draw(st.sampled_from([j for j in range(n) if j != axis]))][axis] = value
    elif reason == "between":
        for row in own[bad]:
            row[axis] = value
    else:
        for row in bob[bad]:
            row[axis] = 1 - row[axis]
    ids = tuple(Setting(f"n{i + 1}") for i in range(n))
    model = _model(f"fails: {reason}", Scenario(ids, ids), weights,
                   lambda k, i, j: _product(alice[k][j][i], bob[k][i][j]))
    return model, side


def assert_same_as_the_dict_walks(model: TheoryModel, tol) -> None:
    """Every audit of `model` at `tol` gives the reference's JSON and the
    reference's types and reprs of every reported value."""
    table, expected = outcome(model_module.behavior, model, tol), outcome(ref.behavior, model, tol)
    assert table == expected
    if type(expected) is tuple:
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
    for axes in (None, axes_of(model)):
        got = outcome(audit.check_anticorrelation, model, axes, tol)
        want = outcome(ref.check_anticorrelation, model, axes, tol)
        assert got == want
        if type(want) is not tuple:
            assert json.dumps(got.to_dict()) == json.dumps(want.to_dict())
        got = outcome(instructions.derive_instruction_sets, model, axes, tol)
        want = outcome(ref.derive_instruction_sets, model, axes, tol)
        assert got == want
        if isinstance(want, instructions.DerivationFailure):
            assert typed(got.marginal) == typed(want.marginal)


def took_the_integer_path(model: TheoryModel) -> bool:
    """True when the audits compared the integer form, False when they
    compared the model's own values: the integer form iff the kernel is
    exact."""
    X, D = vars(model.tensor)["scaled"]
    assert (D is not None) == model.kernel.is_exact
    return D is not None


class TestExactModels:
    @settings(max_examples=120, deadline=None)
    @given(model=st.one_of(coprime_models(), grid_models(), genmodels.arbitrary_models(),
                           genmodels.anticorr_mixtures()),
           tol=TOLERANCES)
    def test_integer_path_matches_the_dict_walks(self, model, tol):
        assert model.is_exact
        assert_same_as_the_dict_walks(model, tol)
        assert took_the_integer_path(model)

    @settings(max_examples=30, deadline=None)
    @given(model=coprime_models())
    def test_per_state_denominators_pass_int64(self, model):
        model_module.require_valid(model)
        N, D = model.tensor.integer_form
        assert min(D) > 2**63
        assert all(type(x) is int for x in [*D, *chain.from_iterable(N)])
        assert list(map(sum, zip(*N))) == model.tensor.per_cell(D)

    @pytest.mark.parametrize("tol", [0.1, 1e-9, 1 / 3])
    def test_residuals_on_the_tolerance_rational(self, tol):
        # one state, Alice's marginal moves by exactly the rational the
        # float spells: flagged only where the float lies below it (1/3)
        step = {0.1: Fraction(1, 10), 1e-9: Fraction(1, 10**9)}.get(tol, Fraction(1, 3))
        model = _model("on the boundary", _scenario(1, 2), [Fraction(1)],
                       lambda k, i, j: _product(Fraction(1, 2) + j * step, Fraction(1, 2)))
        assert_same_as_the_dict_walks(model, tol)
        moved = [v for v in audit.check_bell_locality(model, tol).violations if v.outcome_b is None]
        assert bool(moved) == (Fraction(tol) < step)
        assert all(v.residual == step for v in moved)

    @pytest.mark.parametrize("tol, rb", [(None, Fraction(0)), (0.0, Fraction(1)),
                                         (0.5, Fraction(1, 2))])
    def test_conditioning_skips_marginals_at_the_tolerance(self, tol, rb):
        # Alice's marginal jumps from 0 to 1 with the far setting, and Bob's
        # marginal on one outcome is exactly t: that outcome is never conditioned on
        model = _model("conditioning at t", _scenario(1, 2), [Fraction(1)],
                       lambda k, i, j: _product(Fraction(j), rb))
        assert_same_as_the_dict_walks(model, tol)
        conditioned = {v.outcome_b for v in audit.check_bell_locality(model, tol).violations
                       if v.form == "conditional-alice" and v.outcome_b is not None}
        skipped = {B for B, marginal in ((+1, rb), (-1, 1 - rb)) if marginal <= (tol or 0)}
        assert conditioned == {+1, -1} - skipped


class TestDerivationFailures:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), reason=st.sampled_from(sorted(REASONS)), tol=TOLERANCES)
    def test_every_reason_matches_the_dict_walk(self, data, reason, tol):
        model, side = data.draw(failing_derivations(reason))
        got = instructions.derive_instruction_sets(model, axes_of(model), tol)
        want = ref.derive_instruction_sets(model, axes_of(model), tol)
        assert got == want
        if tol in (None, 0.0, 1e-9):  # every perturbation lies beyond 1e-9
            assert isinstance(got, instructions.DerivationFailure)
            assert (got.reason, got.side) == (REASONS[reason], side)
        if isinstance(want, instructions.DerivationFailure):
            assert typed(got.marginal) == typed(want.marginal)
        assert took_the_integer_path(model)


class TestFloatWeights:
    @settings(max_examples=80, deadline=None)
    @given(model=genmodels.float_weighted_models(st.one_of(
               coprime_models(), grid_models(), genmodels.arbitrary_models(),
               genmodels.anticorr_mixtures())),
           tol=TOLERANCES)
    def test_exact_kernels_take_the_integer_path(self, model, tol):
        # float weights make the model decimal (tolerance 1e-9 by default)
        # but leave every per-state check on the exact kernel
        assert not model.is_exact and model.kernel.is_exact
        assert_same_as_the_dict_walks(model, tol)
        if "tensor" in vars(model):
            assert took_the_integer_path(model)


class TestObjectPath:
    @settings(max_examples=60, deadline=None)
    @given(model=st.one_of(genmodels.decimal_models(), genmodels.product_models()),
           tol=TOLERANCES)
    def test_decimal_and_mixed_models_keep_the_object_path(self, model, tol):
        assert not model.kernel.is_exact
        assert_same_as_the_dict_walks(model, tol)
        if "tensor" in vars(model):
            assert not took_the_integer_path(model)
