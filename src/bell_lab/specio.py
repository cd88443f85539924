"""Theory-spec file format: JSON in, JSON out.

Layout::

    {
      "name": "two-state demo",
      "scenario": {
        "alice_settings": [{"id": "a1", "vector": [0.0, 0.0, 1.0]}, ...],
        "bob_settings":   [{"id": "b1"}, ...]
      },
      "ensemble": [{"id": "s1", "weight": "1/2"}, ...],
      "kernel": {
        "s1": {"a1|b1": {"++": 0, "+-": "1/2", "-+": "1/2", "--": 0}, ...}
      }
    }

Weights and probabilities accept numbers or "p/q" strings; ints and "p/q"
parse as exact rationals, other numbers as decimals.  Unknown and duplicate
keys are rejected so typos fail loudly instead of being silently ignored.
Parse errors carry line/column; schema errors carry the offending path.
Every input that is not a spec (bytes that are not UTF-8, nesting too deep
for the parser) raises SpecFormatError.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from typing import Any

from .model import (
    BellLabError,
    EnsembleEntry,
    HiddenStateEnsemble,
    OutcomeDistribution,
    ResponseKernel,
    Scenario,
    Setting,
    TheoryModel,
    format_probability,
    is_text,
    parse_probability,
)

_CELL_KEYS = ("++", "+-", "-+", "--")


class SpecFormatError(BellLabError):
    """Malformed theory-spec input; message pinpoints path or line/column."""


def _require_keys(obj: dict[str, Any], allowed: set[str], required: set[str], path: str) -> None:
    for key in obj:
        if key not in allowed:
            raise SpecFormatError(f"{path}: unknown key {key!r} (allowed: {sorted(allowed)})")
    for key in required:
        if key not in obj:
            raise SpecFormatError(f"{path}: missing required key {key!r}")


def _as_dict(value: Any, path: str) -> dict[str, Any]:
    if not isinstance(value, dict):
        raise SpecFormatError(f"{path}: expected an object, got {type(value).__name__}")
    return value


def _as_list(value: Any, path: str) -> list[Any]:
    if not isinstance(value, list):
        raise SpecFormatError(f"{path}: expected an array, got {type(value).__name__}")
    return value


def _as_str(value: Any, path: str) -> str:
    if not isinstance(value, str):
        raise SpecFormatError(f"{path}: expected a string, got {type(value).__name__}")
    if not is_text(value):
        raise SpecFormatError(f"{path}: {value!r} holds a lone surrogate")
    return value


def _parse_setting(obj: Any, path: str) -> Setting:
    d = _as_dict(obj, path)
    _require_keys(d, {"id", "vector"}, {"id"}, path)
    sid = _as_str(d["id"], f"{path}.id")
    direction = None
    if "vector" in d:
        vec = _as_list(d["vector"], f"{path}.vector")
        if len(vec) != 3 or not all(isinstance(c, (int, float)) and not isinstance(c, bool) for c in vec):
            raise SpecFormatError(f"{path}.vector: expected three numbers")
        try:
            direction = (float(vec[0]), float(vec[1]), float(vec[2]))
        except OverflowError:
            raise SpecFormatError(f"{path}.vector: component too large for a float") from None
    return Setting(id=sid, direction=direction)


def _parse_prob(value: Any, path: str) -> Fraction | float:
    try:
        return parse_probability(value, path)
    except ValueError as exc:
        raise SpecFormatError(str(exc)) from exc


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """JSON object hook: a repeated key is an error, not last-wins."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen: set[str] = set()
        for key, _ in pairs:
            if key in seen:
                raise ValueError(f"duplicate key {key!r}")
            seen.add(key)
    return obj


def parse_theory(text: str | bytes, source: str = "<string>") -> TheoryModel:
    """Parse theory-spec JSON (text, or UTF-8 bytes) into a TheoryModel.

    Only the shape is enforced here; numeric invariants (normalization,
    ranges, completeness of the kernel) are the job of validate_theory.
    """
    try:
        if isinstance(text, bytes):
            text = text.decode("utf-8")
        raw = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise SpecFormatError(
            f"{source}: JSON parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except UnicodeDecodeError as exc:
        raise SpecFormatError(f"{source}: not UTF-8 text: {exc}") from exc
    except RecursionError:
        raise SpecFormatError(f"{source}: JSON nested too deeply to parse") from None
    except ValueError as exc:
        raise SpecFormatError(f"{source}: {exc}") from exc

    top = _as_dict(raw, "$")
    _require_keys(top, {"name", "scenario", "ensemble", "kernel"}, {"name", "scenario", "ensemble", "kernel"}, "$")
    name = _as_str(top["name"], "$.name")

    scen_obj = _as_dict(top["scenario"], "$.scenario")
    _require_keys(scen_obj, {"alice_settings", "bob_settings"}, {"alice_settings", "bob_settings"}, "$.scenario")
    alice = tuple(
        _parse_setting(item, f"$.scenario.alice_settings[{i}]")
        for i, item in enumerate(_as_list(scen_obj["alice_settings"], "$.scenario.alice_settings"))
    )
    bob = tuple(
        _parse_setting(item, f"$.scenario.bob_settings[{i}]")
        for i, item in enumerate(_as_list(scen_obj["bob_settings"], "$.scenario.bob_settings"))
    )
    scenario = Scenario(alice_settings=alice, bob_settings=bob)

    entries = []
    for i, item in enumerate(_as_list(top["ensemble"], "$.ensemble")):
        path = f"$.ensemble[{i}]"
        d = _as_dict(item, path)
        _require_keys(d, {"id", "weight"}, {"id", "weight"}, path)
        entries.append(
            EnsembleEntry(
                state_id=_as_str(d["id"], f"{path}.id"),
                weight=_parse_prob(d["weight"], f"{path}.weight"),
            )
        )
    ensemble = HiddenStateEnsemble(entries=tuple(entries))

    kernel_obj = _as_dict(top["kernel"], "$.kernel")
    cells: dict[tuple[str, str, str], OutcomeDistribution] = {}
    for state_id, by_pair in kernel_obj.items():
        _as_str(state_id, "$.kernel")
        pair_obj = _as_dict(by_pair, f"$.kernel.{state_id}")
        for pair_key, cell in pair_obj.items():
            path = f"$.kernel.{state_id}.{pair_key}"
            _as_str(pair_key, f"$.kernel.{state_id}")
            if pair_key.count("|") != 1:
                raise SpecFormatError(f"{path}: cell keys must look like 'aId|bId'")
            a_id, b_id = pair_key.split("|")
            cell_d = _as_dict(cell, path)
            _require_keys(cell_d, set(_CELL_KEYS), set(_CELL_KEYS), path)
            cells[(state_id, a_id, b_id)] = OutcomeDistribution(
                pp=_parse_prob(cell_d["++"], f"{path}.++"),
                pm=_parse_prob(cell_d["+-"], f"{path}.+-"),
                mp=_parse_prob(cell_d["-+"], f"{path}.-+"),
                mm=_parse_prob(cell_d["--"], f"{path}.--"),
            )
    return TheoryModel(name=name, scenario=scenario, ensemble=ensemble, kernel=ResponseKernel(cells))


def load_theory(path: str | Path) -> TheoryModel:
    p = Path(path)
    try:
        raw = p.read_bytes()
    except OSError as exc:
        raise SpecFormatError(f"cannot read {p}: {exc}") from exc
    return parse_theory(raw, source=str(p))


def theory_to_dict(model: TheoryModel) -> dict[str, Any]:
    def setting_obj(s: Setting) -> dict[str, Any]:
        obj: dict[str, Any] = {"id": s.id}
        if s.direction is not None:
            obj["vector"] = list(s.direction)
        return obj

    kernel: dict[str, dict[str, Any]] = {}
    for e in model.ensemble.entries:
        by_pair: dict[str, Any] = {}
        for a in model.scenario.alice_settings:
            for b in model.scenario.bob_settings:
                dist = model.kernel.cell(e.state_id, a.id, b.id)
                by_pair[f"{a.id}|{b.id}"] = {
                    key: format_probability(p) for key, p in dist.as_dict().items()
                }
        kernel[e.state_id] = by_pair

    return {
        "name": model.name,
        "scenario": {
            "alice_settings": [setting_obj(s) for s in model.scenario.alice_settings],
            "bob_settings": [setting_obj(s) for s in model.scenario.bob_settings],
        },
        "ensemble": [
            {"id": e.state_id, "weight": format_probability(e.weight)}
            for e in model.ensemble.entries
        ],
        "kernel": kernel,
    }


def dump_theory(model: TheoryModel, path: str | Path) -> None:
    Path(path).write_text(json.dumps(theory_to_dict(model), indent=2) + "\n", encoding="utf-8")
