"""Theory-spec JSON: parsing, error reporting, serialization round trips."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings

import genmodels
from bell_lab.model import validate_theory
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
