"""Theory-spec JSON: parsing, error reporting, serialization round trips."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import genmodels
from bell_lab.model import CELL_KEYS, parse_probability, validate_theory
from bell_lab.specio import (
    SpecFormatError,
    dump_theory,
    load_theory,
    parse_theory,
    theory_to_dict,
)

from genmodels import random_anticorr_mixture, random_product_model
from reference_audit import weight_of


class TestLoad:
    def test_two_state_fixture_loads_exact(self, fixtures_dir):
        model = load_theory(fixtures_dir / "two_state.json")
        assert model.name
        assert model.is_exact
        assert weight_of(model, "up") == Fraction(1, 2)
        assert validate_theory(model) == []

    def test_eight_pattern_fixture_loads(self, fixtures_dir):
        model = load_theory(fixtures_dir / "eight_pattern.json")
        assert len(model.ensemble.entries) == 8
        assert all(e.weight == Fraction(1, 8) for e in model.ensemble.entries)
        assert validate_theory(model) == []

    def test_missing_file_reports_path(self, tmp_path):
        with pytest.raises(SpecFormatError, match="cannot read"):
            load_theory(tmp_path / "nope.json")

    def test_malformed_json_reports_line_and_column(self, fixtures_dir):
        with pytest.raises(SpecFormatError, match=r"line \d+, column \d+"):
            load_theory(fixtures_dir / "malformed.json")

    def test_unknown_key_rejected_with_path(self, fixtures_dir):
        with pytest.raises(SpecFormatError, match=r"\$: unknown key 'comment'"):
            load_theory(fixtures_dir / "unknown_key.json")

    def test_bad_sum_parses_but_fails_validation(self, fixtures_dir):
        model = load_theory(fixtures_dir / "bad_sum.json")
        assert validate_theory(model) != []


def minimal_doc() -> dict:
    return {
        "name": "m",
        "scenario": {
            "alice_settings": [{"id": "a1"}],
            "bob_settings": [{"id": "b1"}],
        },
        "ensemble": [{"id": "s1", "weight": 1}],
        "kernel": {"s1": {"a1|b1": {"++": 0, "+-": "1/2", "-+": "1/2", "--": 0}}},
    }


class TestParse:
    def test_minimal_doc(self):
        model = parse_theory(json.dumps(minimal_doc()))
        assert model.kernel.cell("s1", "a1", "b1").pm == Fraction(1, 2)
        assert model.is_exact

    def test_int_and_string_probs_are_exact_floats_are_not(self):
        doc = minimal_doc()
        doc["kernel"]["s1"]["a1|b1"] = {"++": 0, "+-": 0.5, "-+": 0.5, "--": 0}
        model = parse_theory(json.dumps(doc))
        assert not model.is_exact
        assert isinstance(model.kernel.cell("s1", "a1", "b1").pm, float)

    def test_vector_parsed_as_direction(self):
        doc = minimal_doc()
        doc["scenario"]["alice_settings"][0]["vector"] = [0.0, 0.0, 1.0]
        model = parse_theory(json.dumps(doc))
        assert model.scenario.alice_setting("a1").direction == (0.0, 0.0, 1.0)

    @pytest.mark.parametrize(
        "mutate, path_part",
        [
            (lambda d: d.pop("name"), r"\$: missing required key 'name'"),
            (lambda d: d["scenario"].pop("bob_settings"), r"\$\.scenario: missing"),
            (lambda d: d["ensemble"][0].update(wieght=1), r"\$\.ensemble\[0\]: unknown key"),
            (lambda d: d["ensemble"][0].update(weight=True), r"\$\.ensemble\[0\]\.weight"),
            (lambda d: d["scenario"]["alice_settings"][0].update(vector=[1, 0]), r"\.vector"),
            (lambda d: d["scenario"]["bob_settings"][0].update(vector=[10**400, 0, 0]),
             r"\$\.scenario\.bob_settings\[0\]\.vector: component too large"),
            (lambda d: d.update(name="\ud800"), r"\$\.name: .* lone surrogate"),
            (lambda d: d["kernel"]["s1"].update({"a1|\udc80": {}}), r"\$\.kernel\.s1: .* lone surrogate"),
            (lambda d: d["kernel"].update({"\udc80": {}}), r"\$\.kernel: .* lone surrogate"),
            (lambda d: d["kernel"]["s1"]["a1|b1"].pop("--"), r"missing required key '--'"),
            (lambda d: d["kernel"]["s1"].update({"a1b1": {}}), r"'aId\|bId'"),
            (lambda d: d["kernel"]["s1"]["a1|b1"].update({"++": "1/0"}), r"denominator"),
            (lambda d: d.update(name=7), r"\$\.name: expected a string"),
            (lambda d: d.update(ensemble={}), r"\$\.ensemble: expected an array"),
        ],
    )
    def test_schema_errors_carry_paths(self, mutate, path_part):
        doc = minimal_doc()
        mutate(doc)
        with pytest.raises(SpecFormatError, match=path_part):
            parse_theory(json.dumps(doc))

    def test_non_object_top_level(self):
        with pytest.raises(SpecFormatError, match=r"\$: expected an object"):
            parse_theory("[1, 2]")

    def test_utf8_bytes_parse_like_text(self):
        text = json.dumps(minimal_doc())
        assert parse_theory(text.encode("utf-8")) == parse_theory(text)

    def test_a_bytearray_is_read_as_utf8_as_bytes_are(self):
        text = json.dumps(minimal_doc())
        assert parse_theory(bytearray(text.encode("utf-8"))) == parse_theory(text)
        utf16 = text.encode("utf-16")  # json.loads alone would guess this encoding
        for raw in (utf16, bytearray(utf16)):
            with pytest.raises(SpecFormatError, match="^<string>: not UTF-8 text"):
                parse_theory(raw)

    @pytest.mark.parametrize("arg", [5, None, memoryview(b"{}"), ["{}"]])
    def test_an_argument_that_is_not_text_or_bytes_is_refused(self, arg):
        with pytest.raises(SpecFormatError) as info:
            parse_theory(arg, source="arg")
        assert str(info.value) == f"arg: expected text or UTF-8 bytes, got {type(arg).__name__}"

    @pytest.mark.parametrize("arg", [5, None, b"spec.json"])
    def test_load_theory_refuses_what_is_not_a_path(self, arg):
        with pytest.raises(SpecFormatError, match=f"^cannot read {arg}: "):
            load_theory(arg)

    def test_duplicate_key_in_a_cell_is_rejected(self):
        text = json.dumps(minimal_doc()).replace('"++": 0', '"++": 0, "++": 1')
        with pytest.raises(SpecFormatError, match=r"duplicate key '\+\+'"):
            parse_theory(text, source="dup.json")


class TestRoundTrip:
    def test_exact_model_survives_dump_and_load(self, tmp_path):
        import numpy as np

        model = random_anticorr_mixture(np.random.default_rng(5), 3, 4)
        out = tmp_path / "m.json"
        dump_theory(model, out)
        back = load_theory(out)
        assert back.name == model.name
        assert back.ensemble == model.ensemble
        assert back.kernel.cells == model.kernel.cells
        assert back.is_exact

    def test_decimal_model_survives_round_trip(self, tmp_path):
        import numpy as np

        model = random_product_model(np.random.default_rng(6), 2, 2, 3)
        out = tmp_path / "m.json"
        dump_theory(model, out)
        back = load_theory(out)
        assert back.kernel.cells == model.kernel.cells
        assert not back.is_exact

    def test_singlet_round_trip_keeps_vectors(self, singlet_chsh, tmp_path):
        out = tmp_path / "singlet.json"
        dump_theory(singlet_chsh, out)
        back = load_theory(out)
        assert back.scenario == singlet_chsh.scenario
        assert back.kernel.cells == singlet_chsh.kernel.cells

    @settings(max_examples=100, deadline=None)
    @given(model=genmodels.relabelled_models())
    def test_parse_validate_dump_parse_is_identity(self, model, tmp_path_factory):
        path = tmp_path_factory.mktemp("round_trip") / "m.json"
        valid = not validate_theory(model)
        if any("|" in s.id for s in (*model.scenario.alice_settings, *model.scenario.bob_settings)):
            assert not valid
        if not valid:
            return
        dump_theory(model, path)
        text = path.read_bytes()
        parsed = parse_theory(text)
        assert parsed == model
        assert validate_theory(parsed) == []
        dump_theory(parsed, path)
        assert path.read_bytes() == text
        assert parse_theory(path.read_bytes()) == parsed

    def test_dict_form_uses_rational_strings(self):
        import numpy as np

        model = random_anticorr_mixture(np.random.default_rng(8), 2, 3)
        doc = theory_to_dict(model)
        weights = [e["weight"] for e in doc["ensemble"]]
        assert all(isinstance(w, (str, int)) for w in weights)
        text = json.dumps(doc)
        assert parse_theory(text).kernel.cells == model.kernel.cells


def cell_value(label: str, value):
    return lambda d: d["kernel"]["s1"]["a1|b1"].__setitem__(label, value)


_CELL = "$.kernel.s1.a1|b1"
_LONG = "1" * 4301 + "/2"


class TestErrorTexts:
    """One malformed spec per SpecFormatError site, with its whole message."""

    @pytest.mark.parametrize(
        "mutate, message",
        [
            # unknown, missing and mistyped keys at every level
            (lambda d: d.update(extra=1),
             "$: unknown key 'extra' (allowed: ['ensemble', 'kernel', 'name', 'scenario'])"),
            (lambda d: d.pop("kernel"), "$: missing required key 'kernel'"),
            (lambda d: d.update(scenario=[]), "$.scenario: expected an object, got list"),
            (lambda d: d["scenario"].update(carol_settings=[]),
             "$.scenario: unknown key 'carol_settings' (allowed: ['alice_settings', 'bob_settings'])"),
            (lambda d: d["scenario"].pop("alice_settings"),
             "$.scenario: missing required key 'alice_settings'"),
            (lambda d: d["scenario"].update(alice_settings={}),
             "$.scenario.alice_settings: expected an array, got dict"),
            (lambda d: d["scenario"]["bob_settings"].__setitem__(0, "b1"),
             "$.scenario.bob_settings[0]: expected an object, got str"),
            (lambda d: d["scenario"]["bob_settings"][0].update(angle=0),
             "$.scenario.bob_settings[0]: unknown key 'angle' (allowed: ['id', 'vector'])"),
            (lambda d: d["scenario"]["bob_settings"][0].pop("id"),
             "$.scenario.bob_settings[0]: missing required key 'id'"),
            (lambda d: d.update(ensemble={}), "$.ensemble: expected an array, got dict"),
            (lambda d: d["ensemble"].__setitem__(0, 1), "$.ensemble[0]: expected an object, got int"),
            (lambda d: d["ensemble"][0].update(w=1),
             "$.ensemble[0]: unknown key 'w' (allowed: ['id', 'weight'])"),
            (lambda d: d["ensemble"][0].pop("weight"), "$.ensemble[0]: missing required key 'weight'"),
            (lambda d: d.update(kernel=[]), "$.kernel: expected an object, got list"),
            (lambda d: d["kernel"].update(s1=[]), "$.kernel.s1: expected an object, got list"),
            (lambda d: d["kernel"]["s1"].update({"a1|b1": [0, 0.5, 0.5, 0]}),
             f"{_CELL}: expected an object, got list"),
            (lambda d: d["kernel"]["s1"]["a1|b1"].update({"+0": 0}),
             f"{_CELL}: unknown key '+0' (allowed: ['++', '+-', '-+', '--'])"),
            (lambda d: d["kernel"]["s1"]["a1|b1"].pop("-+"), f"{_CELL}: missing required key '-+'"),
            # ids and vectors
            (lambda d: d.update(name=7), "$.name: expected a string, got int"),
            (lambda d: d["scenario"]["bob_settings"][0].update(id=1),
             "$.scenario.bob_settings[0].id: expected a string, got int"),
            (lambda d: d["ensemble"][0].update(id=None), "$.ensemble[0].id: expected a string, got NoneType"),
            (lambda d: d["scenario"]["alice_settings"][0].update(id="a\ud800"),
             "$.scenario.alice_settings[0].id: 'a\\ud800' holds a lone surrogate"),
            (lambda d: d["kernel"].update({"\udc80": {}}), "$.kernel: '\\udc80' holds a lone surrogate"),
            (lambda d: d["kernel"]["s1"].update({"a1|\udc80": {}}),
             "$.kernel.s1: 'a1|\\udc80' holds a lone surrogate"),
            (lambda d: d["scenario"]["alice_settings"][0].update(vector="z"),
             "$.scenario.alice_settings[0].vector: expected an array, got str"),
            (lambda d: d["scenario"]["alice_settings"][0].update(vector=[0, 1]),
             "$.scenario.alice_settings[0].vector: expected three numbers"),
            (lambda d: d["scenario"]["alice_settings"][0].update(vector=[0, True, 0]),
             "$.scenario.alice_settings[0].vector: expected three numbers"),
            (lambda d: d["scenario"]["alice_settings"][0].update(vector=[0, 10**400, 0]),
             "$.scenario.alice_settings[0].vector: component too large for a float"),
            # cell keys
            (lambda d: d["kernel"]["s1"].update({"a1b1": {}}),
             "$.kernel.s1.a1b1: cell keys must look like 'aId|bId'"),
            (lambda d: d["kernel"]["s1"].update({"a1|b1|c": {}}),
             "$.kernel.s1.a1|b1|c: cell keys must look like 'aId|bId'"),
            # probabilities and weights
            (cell_value("++", True), f"{_CELL}.++: expected a number or 'p/q' string, got a bool"),
            (cell_value("--", None), f"{_CELL}.--: expected a number or 'p/q' string, got NoneType"),
            (cell_value("+-", [1]), f"{_CELL}.+-: expected a number or 'p/q' string, got list"),
            (cell_value("++", "1/0"), f"{_CELL}.++: denominator must be positive in '1/0'"),
            (cell_value("++", "0/-1"), f"{_CELL}.++: denominator must be positive in '0/-1'"),
            (cell_value("++", "1/2/3"),
             f"{_CELL}.++: rational strings must look like 'p/q', got '1/2/3'"),
            (cell_value("-+", "a/b"), f"{_CELL}.-+: non-integer term in 'a/b'"),
            (cell_value("++", "1.5/2"), f"{_CELL}.++: non-integer term in '1.5/2'"),
            (cell_value("++", _LONG), f"{_CELL}.++: non-integer term in '{_LONG}'"),
            (cell_value("++", 10**400), f"{_CELL}.++: too large for a float"),
            (cell_value("++", f"{10**400}/1"), f"{_CELL}.++: too large for a float"),
            (lambda d: d["ensemble"][0].update(weight="x"),
             "$.ensemble[0].weight: rational strings must look like 'p/q', got 'x'"),
            (lambda d: d["ensemble"][0].update(weight=False),
             "$.ensemble[0].weight: expected a number or 'p/q' string, got a bool"),
            (lambda d: d["ensemble"][0].update(weight="1/0"),
             "$.ensemble[0].weight: denominator must be positive in '1/0'"),
        ],
    )
    def test_message(self, mutate, message):
        doc = minimal_doc()
        mutate(doc)
        with pytest.raises(SpecFormatError) as info:
            parse_theory(json.dumps(doc))
        assert str(info.value) == message

    def test_non_object_top_level(self):
        with pytest.raises(SpecFormatError) as info:
            parse_theory("[]")
        assert str(info.value) == "$: expected an object, got list"

    @pytest.mark.parametrize(
        "literal, message",
        [
            ("NaN", f"{_CELL}.+-: must be finite, got nan"),
            ("Infinity", f"{_CELL}.+-: must be finite, got inf"),
            ("-Infinity", f"{_CELL}.+-: must be finite, got -inf"),
            ("1e400", f"{_CELL}.+-: must be finite, got inf"),
        ],
    )
    def test_non_finite_literals(self, literal, message):
        text = json.dumps(minimal_doc()).replace('"+-": "1/2"', f'"+-": {literal}')
        with pytest.raises(SpecFormatError) as info:
            parse_theory(text)
        assert str(info.value) == message

    def test_duplicate_key(self):
        text = json.dumps(minimal_doc()).replace('"s1": {"a1|b1"', '"s1": {}, "s1": {"a1|b1"')
        with pytest.raises(SpecFormatError) as info:
            parse_theory(text, source="dup.json")
        assert str(info.value) == "dup.json: duplicate key 's1'"

    def test_first_error_in_walk_order_wins(self):
        # a bad value in the first cell is reported before a bad key in a later one
        doc = minimal_doc()
        doc["scenario"]["bob_settings"].append({"id": "b2"})
        doc["kernel"]["s1"]["a1|b1"]["-+"] = "1/0"
        doc["kernel"]["s1"]["a1|b2"] = {"++": 1}
        with pytest.raises(SpecFormatError) as info:
            parse_theory(json.dumps(doc))
        assert str(info.value) == f"{_CELL}.-+: denominator must be positive in '1/0'"

    @pytest.mark.parametrize("text", [" 1/2", "+1/2", "1_0/2_0", "١/٢", "1/ 2", "2/4"])
    def test_rational_grammar(self, text):
        # what int() accepts on each side of the one '/' is accepted
        doc = minimal_doc()
        doc["kernel"]["s1"]["a1|b1"].update({"+-": text, "-+": "1/2"})
        model = parse_theory(json.dumps(doc))
        pm = model.kernel.cell("s1", "a1", "b1").pm
        assert type(pm) is Fraction and pm == Fraction(1, 2)
        assert validate_theory(model) == []


#: Kernel values of the int and "p/q" kind: zero, negative and unreduced
#: values, terms beyond the float range whose value is at most 1, values
#: beyond it, and text parse_probability refuses.
_HUGE = 10**400
KERNEL_VALUES = st.one_of(
    st.integers(-2, 3),
    st.sampled_from([_HUGE, -_HUGE]),
    st.builds("{}/{}".format, st.integers(-6, 12), st.integers(-2, 12)),
    st.builds(lambda k, d, sign: f"{sign * k}/{k + d}", st.sampled_from([_HUGE, 3 * _HUGE + 1, 2**1100]),
              st.integers(0, 3), st.sampled_from([1, -1])),
    st.builds(lambda p, q, k: f"{p * k}/{q * k}", st.integers(-1, 4), st.integers(1, 4),
              st.sampled_from([_HUGE, 2**1100])),
    st.sampled_from([f"{_HUGE}/1", "1/2/3", "a/b", " 1/2", "1.5/2"]),
)


class TestExactKernelText:
    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(KERNEL_VALUES, min_size=4, max_size=16))
    def test_each_value_is_stored_as_parse_probability_reads_it(self, values):
        values = values[:len(values) // 4 * 4]
        cells = [dict(zip(CELL_KEYS, values[i:i + 4])) for i in range(0, len(values), 4)]
        doc = {**minimal_doc(), "kernel": {"s1": {f"a{i}|b1": cell for i, cell in enumerate(cells)}}}
        refusals = []
        for i, value in enumerate(values):
            try:
                parse_probability(value, "")
            except ValueError as exc:
                refusals.append(f"$.kernel.s1.a{i // 4}|b1.{CELL_KEYS[i % 4]}{exc}")
        if refusals:
            with pytest.raises(SpecFormatError) as info:
                parse_theory(json.dumps(doc))
            assert str(info.value) == refusals[0]
            return
        kernel = parse_theory(json.dumps(doc)).kernel
        assert "rows" not in vars(kernel)  # stored as ratios, no Fraction row built
        ratios = [parse_probability(value).as_integer_ratio() for value in values]
        num, den = ([r[part] for r in ratios] for part in (0, 1))
        assert kernel.ratios == (tuple(zip(*[iter(num)] * 4)), tuple(zip(*[iter(den)] * 4)))
