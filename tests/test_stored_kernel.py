"""The kernel's one stored form: flat rows filled by the parser, checked on
the arrays by `validate_theory`, and viewed as cells on demand.

`tests/reference_model.py` keeps the dict walk `validate_theory` was
before its numeric rules moved onto the arrays.  The properties here hold
the array rules to it on valid and invalid models (missing and extra
cells, entries out of range, bad sums, NaN, zero weights, duplicate and
lone-surrogate ids, mixed exact and float values, cells out of order),
and hold a parsed model to the model it was written from, value for value
and bit for bit.  An exact kernel is checked on its ratios in whatever
order its spec lists the cells, with no Fraction built when it is valid.
"""

from __future__ import annotations

import copy
import json
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import genmodels
import reference_model as ref
from bell_lab.model import (
    CELL_KEYS,
    EnsembleEntry,
    HiddenStateEnsemble,
    OutcomeDistribution,
    ResponseKernel,
    Scenario,
    Setting,
    TheoryModel,
    UnknownIdError,
    require_valid,
    validate_theory,
)
from bell_lab.specio import SpecFormatError, parse_theory, theory_to_dict
from test_kernel_tensor import typed

BASES = st.one_of(genmodels.decimal_models(), genmodels.arbitrary_models(),
                  genmodels.product_models(), genmodels.relabelled_models())

#: Entry values that break a rule, or sit at its edge, on either kind of model.
ODD_VALUES = (Fraction(3, 2), Fraction(-1, 4), Fraction(10**400), Fraction(-10**400, 3),
              1.5, -0.25, 1 + 1e-12, -1e-12, float("nan"), float("inf"), float("-inf"), 0.0)


def _with_cells(model: TheoryModel, cells: dict) -> TheoryModel:
    return TheoryModel(model.name, model.scenario, model.ensemble, ResponseKernel(cells))


def _renamed(model: TheoryModel, side: str, old: str, new: str) -> TheoryModel:
    """`model` with one setting or state id changed, in every place it is named."""
    scen, ens = model.scenario, model.ensemble
    if side == "state":
        ens = HiddenStateEnsemble(tuple(EnsembleEntry(new if e.state_id == old else e.state_id, e.weight)
                                        for e in ens.entries))
        rekey = lambda s, a, b: (new if s == old else s, a, b)
    elif side == "alice":
        scen = Scenario(tuple(Setting(new if s.id == old else s.id, s.direction) for s in scen.alice_settings),
                        scen.bob_settings)
        rekey = lambda s, a, b: (s, new if a == old else a, b)
    else:
        scen = Scenario(scen.alice_settings,
                        tuple(Setting(new if s.id == old else s.id, s.direction) for s in scen.bob_settings))
        rekey = lambda s, a, b: (s, a, new if b == old else b)
    cells = {rekey(*key): dist for key, dist in model.kernel.cells.items()}
    return TheoryModel(model.name, scen, ens, ResponseKernel(cells))


@st.composite
def variants(draw) -> TheoryModel:
    """A genmodels model with up to three faults or oddities applied."""
    model = draw(BASES)
    for fault in draw(st.lists(st.sampled_from(
            ("missing", "extra", "value", "shift", "sum", "rounding", "mixed", "permute", "weight",
             "duplicate", "surrogate")),
            max_size=3)):
        cells = dict(model.kernel.cells)
        keys = list(cells)
        if fault == "missing" and keys:
            del cells[draw(st.sampled_from(keys))]
        elif fault == "extra":
            cells[(draw(st.sampled_from(["zz", *model.ensemble.state_ids()])), "a1", "zz")] = (
                OutcomeDistribution.point(+1, -1))
        elif fault == "shift" and keys:
            # mass moved between two entries: one may leave [0, 1] while the sum holds
            key = draw(st.sampled_from(keys))
            values = list(cells[key].values())
            i, j = draw(st.permutations(range(4)))[:2]
            step = draw(st.sampled_from([Fraction(1, 2), Fraction(1)]))
            step = step if isinstance(values[i], Fraction) else float(step)
            values[i], values[j] = values[i] - step, values[j] + step
            cells[key] = OutcomeDistribution(*values)
        elif fault == "rounding" and keys:
            # floats whose sum is 1 in one order of addition and not in another
            cells[draw(st.sampled_from(keys))] = OutcomeDistribution(
                *draw(st.sampled_from([(0.4, 0.3, 0.2, 0.1), (0.1, 0.2, 0.3, 0.4), (0.7, 0.1, 0.1, 0.1)])))
        elif fault in ("value", "sum", "mixed") and keys:
            key, label = draw(st.sampled_from(keys)), draw(st.sampled_from(CELL_KEYS))
            new = old = ref.as_dict(cells[key])[label]
            if fault == "value":
                new = draw(st.sampled_from(ODD_VALUES))
            elif fault == "sum":
                new = old + (Fraction(1, 8) if isinstance(old, Fraction) else 0.125)
            elif abs(old) < 2:  # the same value as the other kind, where it has one
                new = float(old) if isinstance(old, Fraction) else Fraction(old)
            cells[key] = ref.from_mapping({**ref.as_dict(cells[key]), label: new})
        elif fault == "permute":
            random.Random(draw(st.integers(0, 2**16))).shuffle(keys)
            cells = {key: cells[key] for key in keys}
        elif fault == "weight":
            entries = list(model.ensemble.entries)
            i = draw(st.integers(0, len(entries) - 1))
            entries[i] = EnsembleEntry(entries[i].state_id, draw(st.sampled_from([Fraction(0), 0.0])))
            model = TheoryModel(model.name, model.scenario, HiddenStateEnsemble(tuple(entries)), model.kernel)
        elif fault in ("duplicate", "surrogate"):
            side = draw(st.sampled_from(["state", "alice", "bob"]))
            ids = {"state": model.ensemble.state_ids(), "alice": model.scenario.alice_ids(),
                   "bob": model.scenario.bob_ids()}[side]
            old = draw(st.sampled_from(ids))
            new = draw(st.sampled_from(ids)) if fault == "duplicate" else old + "\ud800"
            model = _renamed(model, side, old, new)
            continue
        model = _with_cells(model, cells)
    return model


class TestValidationOracle:
    @settings(max_examples=300, deadline=None)
    @given(model=variants(), tol=st.sampled_from([None, 0.0, 1e-6, 0.05]))
    def test_array_rules_match_the_dict_walk(self, model, tol):
        want = [(v.location, v.message) for v in ref.validate_theory(model, tol)]
        got = [(v.location, v.message) for v in validate_theory(model, tol)]
        assert got == want

    @settings(max_examples=100, deadline=None)
    @given(model=variants())
    def test_parsed_models_match_the_dict_walk(self, model):
        # a spec of the model, where one can be written, checked as parsed
        try:
            text = json.dumps(theory_to_dict(model))
        except (UnknownIdError, ValueError):  # a missing cell, or NaN
            return
        try:
            parsed = parse_theory(text)
        except SpecFormatError:  # a NaN or infinite value, or an id holding a surrogate
            return
        want = [(v.location, v.message) for v in ref.validate_theory(parsed)]
        assert [(v.location, v.message) for v in validate_theory(parsed)] == want


def _typed(values: tuple | list) -> list[tuple[str, str]]:
    """Each value of a sequence, or of a sequence of columns, as its type and repr."""
    return [typed(v) for column in values for v in (column if type(column) in (tuple, list) else (column,))]


class TestParsedTensor:
    @settings(max_examples=150, deadline=None)
    @given(model=st.one_of(BASES, genmodels.anticorr_mixtures()))
    def test_parse_gives_the_tensor_of_the_model_written(self, model):
        if validate_theory(model):
            return
        parsed = parse_theory(json.dumps(theory_to_dict(model)))
        assert parsed.is_exact == model.is_exact
        assert parsed.kernel.is_exact == model.kernel.is_exact
        assert _typed(parsed.tensor.K) == _typed(model.tensor.K)
        assert _typed(parsed.tensor.w) == _typed(model.tensor.w)
        if model.kernel.is_exact:
            for got, want in zip(parsed.tensor.integer_form, model.tensor.integer_form):
                assert _typed(got) == _typed(want)
        assert _typed(parsed.tensor.as_float()) == _typed(model.tensor.as_float())

    def test_exact_text_is_stored_as_reduced_ratios(self):
        doc = {"name": "m", "scenario": {"alice_settings": [{"id": "a"}], "bob_settings": [{"id": "b"}]},
               "ensemble": [{"id": "s", "weight": 1}],
               "kernel": {"s": {"a|b": {"++": "2/8", "+-": "1/4", "-+": " 1/2", "--": 0}}}}
        model = parse_theory(json.dumps(doc))
        assert "rows" not in vars(model.kernel)  # no Fraction built yet
        num, den = model.kernel.ratios
        assert num == ((1, 1, 1, 0),) and den == ((4, 4, 2, 1),)
        assert validate_theory(model) == []
        N, D = model.tensor.integer_form
        assert N == ((1,), (1,), (2,), (0,)) and D == (4,)
        assert "rows" not in vars(model.kernel)
        assert model.kernel.cell("s", "a", "b") == OutcomeDistribution(
            Fraction(1, 4), Fraction(1, 4), Fraction(1, 2), Fraction(0))


#: Faults written into a spec's kernel text, each keeping every value an int
#: or a "p/q" string, so the kernel is still stored as ratios.
SPEC_FAULTS = ("missing", "extra state", "extra pair", "above one", "below zero", "sum")


@st.composite
def shuffled_exact_specs(draw) -> str:
    """The spec of an exact kernel (under exact or float weights) whose
    kernel lists its states, and each state's pairs, in a drawn order, with
    up to three faults written in."""
    exact = st.one_of(genmodels.arbitrary_models(), genmodels.anticorr_mixtures())
    doc = theory_to_dict(draw(st.one_of(exact, genmodels.float_weighted_models(exact))))
    kernel = {state: dict(draw(st.permutations(list(doc["kernel"][state].items()))))
              for state in draw(st.permutations(list(doc["kernel"])))}
    for fault in draw(st.lists(st.sampled_from(SPEC_FAULTS), max_size=3)):
        state = draw(st.sampled_from(sorted(kernel)))
        pair = draw(st.sampled_from(sorted(kernel[state]) or ["a1|b1"]))
        if fault == "missing":
            kernel[state].pop(pair, None)
        elif fault == "extra state":
            kernel["zz"] = {pair: dict(zip(CELL_KEYS, (0, 1, 0, 0)))}
        elif fault == "extra pair":
            kernel[state]["a1|zz"] = dict(zip(CELL_KEYS, (0, 0, 1, 0)))
        elif pair in kernel[state]:
            value = {"above one": "3/2", "below zero": "-1/4", "sum": "1/8"}[fault]
            kernel[state][pair] = {**kernel[state][pair], draw(st.sampled_from(CELL_KEYS)): value}
    return json.dumps({**doc, "kernel": kernel})


class TestReorderedExactKernels:
    @settings(max_examples=150, deadline=None)
    @given(text=shuffled_exact_specs())
    def test_rows_in_any_order_match_the_dict_walk(self, text):
        parsed = parse_theory(text)
        assert parsed.kernel.is_exact
        got = [(v.location, v.message) for v in validate_theory(parsed)]
        # checked on the ratios, a flagged row built on its own: no kernel-wide Fractions
        assert "_positions" not in vars(parsed.kernel) and "rows" not in vars(parsed.kernel)
        assert got == [(v.location, v.message) for v in ref.validate_theory(parsed)]

    def test_a_shuffled_valid_kernel_builds_no_fraction(self):
        text = _spec({"++": 0, "+-": "1/2", "-+": "1/2", "--": 0}, weight=1.0)
        model = parse_theory(text)
        assert model.kernel.keys != model._declared_cells
        assert validate_theory(model) == []
        assert "rows" not in vars(model.kernel) and "_positions" not in vars(model.kernel)
        assert "tensor" not in vars(model)


def _spec(values: dict, weight=1) -> str:
    return json.dumps({
        "name": "m",
        "scenario": {"alice_settings": [{"id": "a1"}, {"id": "a2"}], "bob_settings": [{"id": "b1"}]},
        "ensemble": [{"id": "s1", "weight": weight}],
        "kernel": {"s1": {"a2|b1": {"++": 0, "+-": 1, "-+": 0, "--": 0}, "a1|b1": values}},
    })


class TestCompatibility:
    """What library callers read from a parsed model keeps working."""

    @pytest.mark.parametrize("values, weight, exact", [
        ({"++": 0, "+-": "1/2", "-+": "1/2", "--": 0}, "1/1", True),
        ({"++": 0.0, "+-": 0.5, "-+": 0.5, "--": 0.0}, 1.0, False),
        ({"++": 0, "+-": 0.5, "-+": "1/2", "--": 0}, 1, False),
        ({"++": 0, "+-": "1/2", "-+": "1/2", "--": 0}, 1.0, False),
    ])
    def test_is_exact(self, values, weight, exact):
        model = parse_theory(_spec(values, weight))
        assert model.is_exact is exact
        assert require_valid(model) == (0.0 if exact else 1e-9)

    def test_cells_view_in_document_order(self):
        model = parse_theory(_spec({"++": 0, "+-": "1/2", "-+": 0.5, "--": 0}))
        cells = model.kernel.cells
        assert len(cells) == 2
        assert list(cells) == [("s1", "a2", "b1"), ("s1", "a1", "b1")]
        assert [(key, dist.values()) for key, dist in cells.items()][1] == (
            ("s1", "a1", "b1"), (Fraction(0), Fraction(1, 2), 0.5, Fraction(0)))
        assert model.kernel.cell("s1", "a1", "b1") is cells[("s1", "a1", "b1")]
        with pytest.raises(TypeError):
            cells[("s1", "a1", "b1")] = OutcomeDistribution.point(+1, +1)
        # the tensor is in declaration order, whatever the document's
        assert model.tensor.K == ((0, 0), (Fraction(1, 2), 1), (0.5, 0), (0, 0))

    def test_missing_cell_raises_unknown_id(self):
        model = parse_theory(_spec({"++": 0, "+-": 1, "-+": 0, "--": 0}).replace('"a2|b1"', '"a2|b2"'))
        with pytest.raises(UnknownIdError, match=r"state='s1', a='a2', b='b1'"):
            model.kernel.cell("s1", "a2", "b1")
        with pytest.raises(UnknownIdError, match=r"state='s1', a='a2', b='b1'"):
            model.tensor
        assert [v.location for v in validate_theory(model)] == ["kernel[s1,a2,b1]", "kernel[s1,a2,b2]"]

    @pytest.mark.parametrize("clone", [lambda m: pickle.loads(pickle.dumps(m)), copy.deepcopy])
    @pytest.mark.parametrize("values", [{"++": 0, "+-": "1/2", "-+": "1/2", "--": 0},
                                        {"++": 0.0, "+-": 0.5, "-+": 0.5, "--": 0.0}])
    def test_pickle_and_deep_copy(self, clone, values):
        model = parse_theory(_spec(values))
        require_valid(model)
        model.tensor.integer_form if model.is_exact else model.tensor.K
        twin = clone(model)
        assert twin == model
        assert twin.kernel.cells == model.kernel.cells
        assert twin.is_exact == model.is_exact
        assert _typed(twin.tensor.K) == _typed(model.tensor.K)
        for rows in (twin.kernel.rows, *twin.kernel.ratios) if twin.is_exact else (twin.kernel.rows,):
            assert type(rows) is tuple and all(type(row) is tuple for row in rows)
            with pytest.raises(TypeError):
                rows[0][0] = Fraction(1)
        assert validate_theory(twin) == []
