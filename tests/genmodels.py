"""Shared builders and random generators for test models.

Seeded `numpy` generators drive the bulk-enumeration checks; hypothesis
strategies (kept here so every test module draws the same shapes) drive
the property tests.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
from hypothesis import strategies as st

from bell_lab.instructions import InstructionSet, realize_model
from bell_lab.model import (
    JOINT_OUTCOMES,
    EnsembleEntry,
    HiddenStateEnsemble,
    OutcomeDistribution,
    ResponseKernel,
    Scenario,
    Setting,
    TheoryModel,
)


def shared_axis_scenario(n_axes: int) -> Scenario:
    settings = tuple(Setting(id=f"n{i + 1}") for i in range(n_axes))
    return Scenario(alice_settings=settings, bob_settings=settings)


def axes_for(n_axes: int) -> tuple[tuple[str, str], ...]:
    return tuple((f"n{i + 1}", f"n{i + 1}") for i in range(n_axes))


def fraction_simplex(rng: np.random.Generator, n: int) -> list[Fraction]:
    """n strictly positive exact weights summing to exactly 1."""
    parts = [int(rng.integers(1, 20)) for _ in range(n)]
    total = sum(parts)
    return [Fraction(p, total) for p in parts]


def random_anticorr_instructions(
    rng: np.random.Generator, n_axes: int, n_states: int
) -> InstructionSet:
    axes = axes_for(n_axes)
    signs = {}
    weights = {}
    for i, w in enumerate(fraction_simplex(rng, n_states)):
        sid = f"s{i + 1}"
        signs[sid] = tuple(int(rng.choice((1, -1))) for _ in range(n_axes))
        weights[sid] = w
    return InstructionSet(axes=axes, signs=signs, weights=weights)


def random_anticorr_mixture(
    rng: np.random.Generator, n_axes: int, n_states: int
) -> TheoryModel:
    """Convex mixture of deterministic anti-correlated strategies, exact."""
    instr = random_anticorr_instructions(rng, n_axes, n_states)
    return realize_model(instr, shared_axis_scenario(n_axes), name="random anticorr mixture")


def _product_cell(qa_plus: float, rb_plus: float) -> OutcomeDistribution:
    qa = {+1: qa_plus, -1: 1.0 - qa_plus}
    rb = {+1: rb_plus, -1: 1.0 - rb_plus}
    return OutcomeDistribution(
        pp=qa[+1] * rb[+1], pm=qa[+1] * rb[-1], mp=qa[-1] * rb[+1], mm=qa[-1] * rb[-1]
    )


def random_product_model(
    rng: np.random.Generator, na: int, nb: int, n_states: int
) -> TheoryModel:
    """Every kernel cell factorizes, so the model is Bell Local by construction."""
    scenario = Scenario(
        alice_settings=tuple(Setting(id=f"a{i + 1}") for i in range(na)),
        bob_settings=tuple(Setting(id=f"b{i + 1}") for i in range(nb)),
    )
    weights = rng.dirichlet(np.ones(n_states))
    entries = tuple(
        EnsembleEntry(state_id=f"s{i + 1}", weight=float(w)) for i, w in enumerate(weights)
    )
    cells = {}
    for i in range(n_states):
        qa = {f"a{j + 1}": float(rng.random()) for j in range(na)}
        rb = {f"b{j + 1}": float(rng.random()) for j in range(nb)}
        for a_id, q in qa.items():
            for b_id, r in rb.items():
                cells[(f"s{i + 1}", a_id, b_id)] = _product_cell(q, r)
    return TheoryModel(
        name="random product model",
        scenario=scenario,
        ensemble=HiddenStateEnsemble(entries=entries),
        kernel=ResponseKernel(cells),
    )


def random_arbitrary_model(
    rng: np.random.Generator, na: int, nb: int, n_states: int
) -> TheoryModel:
    """Unconstrained valid model; usually neither Bell nor signal local."""
    scenario = Scenario(
        alice_settings=tuple(Setting(id=f"a{i + 1}") for i in range(na)),
        bob_settings=tuple(Setting(id=f"b{i + 1}") for i in range(nb)),
    )
    weights = rng.dirichlet(np.ones(n_states))
    entries = tuple(
        EnsembleEntry(state_id=f"s{i + 1}", weight=float(w)) for i, w in enumerate(weights)
    )
    cells = {}
    for i in range(n_states):
        for a in range(na):
            for b in range(nb):
                raw = rng.dirichlet(np.ones(4))
                cells[(f"s{i + 1}", f"a{a + 1}", f"b{b + 1}")] = OutcomeDistribution(
                    pp=float(raw[0]), pm=float(raw[1]), mp=float(raw[2]), mm=float(raw[3])
                )
    return TheoryModel(
        name="random arbitrary model",
        scenario=scenario,
        ensemble=HiddenStateEnsemble(entries=entries),
        kernel=ResponseKernel(cells),
    )


# ---------------------------------------------------------------------------
# hypothesis strategies


@st.composite
def exact_simplex(draw, n: int) -> list[Fraction]:
    parts = draw(st.lists(st.integers(1, 20), min_size=n, max_size=n))
    total = sum(parts)
    return [Fraction(p, total) for p in parts]


@st.composite
def anticorr_instruction_sets(draw, min_axes: int = 1, max_axes: int = 3) -> InstructionSet:
    n_axes = draw(st.integers(min_axes, max_axes))
    n_states = draw(st.integers(1, 6))
    axes = axes_for(n_axes)
    weights_list = draw(exact_simplex(n_states))
    signs = {}
    weights = {}
    for i, w in enumerate(weights_list):
        sid = f"s{i + 1}"
        signs[sid] = tuple(draw(
            st.lists(st.sampled_from((1, -1)), min_size=n_axes, max_size=n_axes)
        ))
        weights[sid] = w
    return InstructionSet(axes=axes, signs=signs, weights=weights)


@st.composite
def anticorr_mixtures(draw, min_axes: int = 1, max_axes: int = 3) -> TheoryModel:
    instr = draw(anticorr_instruction_sets(min_axes=min_axes, max_axes=max_axes))
    return realize_model(
        instr, shared_axis_scenario(len(instr.axes)), name="hypothesis anticorr mixture"
    )


_PROB_GRID = st.integers(0, 100).map(lambda k: k / 100.0)


@st.composite
def product_models(draw) -> TheoryModel:
    na = draw(st.integers(1, 3))
    nb = draw(st.integers(1, 3))
    n_states = draw(st.integers(1, 4))
    scenario = Scenario(
        alice_settings=tuple(Setting(id=f"a{i + 1}") for i in range(na)),
        bob_settings=tuple(Setting(id=f"b{i + 1}") for i in range(nb)),
    )
    weights_list = draw(exact_simplex(n_states))
    entries = tuple(
        EnsembleEntry(state_id=f"s{i + 1}", weight=w) for i, w in enumerate(weights_list)
    )
    cells = {}
    for i in range(n_states):
        qa = {f"a{j + 1}": draw(_PROB_GRID) for j in range(na)}
        rb = {f"b{j + 1}": draw(_PROB_GRID) for j in range(nb)}
        for a_id, q in qa.items():
            for b_id, r in rb.items():
                cells[(f"s{i + 1}", a_id, b_id)] = _product_cell(q, r)
    return TheoryModel(
        name="hypothesis product model",
        scenario=scenario,
        ensemble=HiddenStateEnsemble(entries=entries),
        kernel=ResponseKernel(cells),
    )


@st.composite
def arbitrary_models(draw) -> TheoryModel:
    na = draw(st.integers(1, 3))
    nb = draw(st.integers(1, 3))
    n_states = draw(st.integers(1, 3))
    scenario = Scenario(
        alice_settings=tuple(Setting(id=f"a{i + 1}") for i in range(na)),
        bob_settings=tuple(Setting(id=f"b{i + 1}") for i in range(nb)),
    )
    weights_list = draw(exact_simplex(n_states))
    entries = tuple(
        EnsembleEntry(state_id=f"s{i + 1}", weight=w) for i, w in enumerate(weights_list)
    )
    cells = {}
    for i in range(n_states):
        for a in range(na):
            for b in range(nb):
                parts = draw(st.lists(st.integers(0, 20), min_size=4, max_size=4).filter(sum))
                total = sum(parts)
                cells[(f"s{i + 1}", f"a{a + 1}", f"b{b + 1}")] = OutcomeDistribution(
                    pp=Fraction(parts[0], total),
                    pm=Fraction(parts[1], total),
                    mp=Fraction(parts[2], total),
                    mm=Fraction(parts[3], total),
                )
    return TheoryModel(
        name="hypothesis arbitrary model",
        scenario=scenario,
        ensemble=HiddenStateEnsemble(entries=entries),
        kernel=ResponseKernel(cells),
    )


@st.composite
def zero_one_systems(draw, max_rows: int = 9, max_cols: int = 16):
    """(columns, rhs): a 0/1 matrix by columns and a nonnegative rational
    right-hand side, with zero entries and duplicated rows.  Half the draws
    put rhs in the cone of the columns, so both verdicts are common; sizes
    lean large, where pivots other than 1 (and so real divisions) occur."""
    n = draw(st.one_of(st.integers(1, max_cols), st.integers(max_cols // 2, max_cols)))
    base = draw(st.one_of(st.integers(1, max_rows), st.integers(max_rows // 2, max_rows)))
    masks = draw(st.lists(st.integers(0, 2**n - 1), min_size=base, max_size=base))
    rows = [[mask >> j & 1 for j in range(n)] for mask in masks]
    rationals = st.one_of(st.just(Fraction(0)), st.fractions(0, 3, max_denominator=12))
    if draw(st.booleans()):
        w = draw(st.lists(rationals, min_size=n, max_size=n))
        rhs = [sum((wj for wj, v in zip(w, row) if v), Fraction(0)) for row in rows]
    else:
        rhs = draw(st.lists(rationals, min_size=base, max_size=base))
    for i in draw(st.lists(st.integers(0, base - 1), max_size=max_rows - base)):
        rows.append(rows[i])
        rhs.append(rhs[i] if draw(st.booleans()) else draw(rationals))
    columns = [[row[j] for row in rows] for j in range(n)]
    return columns, rhs


@st.composite
def int_functionals(draw) -> tuple[Scenario, dict[tuple[str, str, int, int], int]]:
    """(scenario, coefficients): a 2x2 to 4x4 scenario and small int
    coefficients on some of its cells, so that a draw often names only some
    of the settings on a side."""
    na, nb = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    scenario = Scenario(tuple(Setting(f"a{i}") for i in range(na)), tuple(Setting(f"b{j}") for j in range(nb)))
    keys = [(a, b, A, B) for a, b in scenario.pairs() for A, B in JOINT_OUTCOMES]
    return scenario, draw(st.dictionaries(st.sampled_from(keys), st.integers(-4, 4), max_size=len(keys)))


@st.composite
def decimal_models(draw) -> TheoryModel:
    """Valid models with float weights and cells (sums off 1 by rounding)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return random_arbitrary_model(
        rng, draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 4))
    )


@st.composite
def float_weighted_models(draw, exact=None) -> TheoryModel:
    """A model drawn from `exact` (default: arbitrary or anti-correlated
    exact models) with every weight rounded to a float: an exact kernel in
    a decimal model."""
    model = draw(st.one_of(arbitrary_models(), anticorr_mixtures()) if exact is None else exact)
    entries = tuple(EnsembleEntry(e.state_id, float(e.weight)) for e in model.ensemble.entries)
    return TheoryModel(model.name, model.scenario, HiddenStateEnsemble(entries), model.kernel)


#: Short ids that may repeat, be empty, or hold '|', ',', quotes and newlines.
_ID_TEXT = st.text(st.sampled_from('ab1|,"\n é'), max_size=3)


@st.composite
def relabelled_models(draw, ids=_ID_TEXT) -> TheoryModel:
    """An exact or decimal model under setting and hidden-state ids drawn
    from `ids`."""
    model = draw(st.one_of(arbitrary_models(), decimal_models()))
    alice = {s.id: draw(ids) for s in model.scenario.alice_settings}
    bob = {s.id: draw(ids) for s in model.scenario.bob_settings}
    states = {e.state_id: draw(ids) for e in model.ensemble.entries}
    return TheoryModel(
        name=draw(st.text(max_size=5)),
        scenario=Scenario(
            alice_settings=tuple(Setting(id=alice[s.id]) for s in model.scenario.alice_settings),
            bob_settings=tuple(Setting(id=bob[s.id]) for s in model.scenario.bob_settings),
        ),
        ensemble=HiddenStateEnsemble(
            entries=tuple(EnsembleEntry(states[e.state_id], e.weight) for e in model.ensemble.entries)
        ),
        kernel=ResponseKernel(
            {(states[s], alice[a], bob[b]): dist for (s, a, b), dist in model.kernel.cells.items()}
        ),
    )
