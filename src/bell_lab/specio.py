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

`parse_theory` walks the kernel once into its stored form
(`ResponseKernel`, tuples of rows): ints and "p/q" strings become int
numerators and denominators with no Fraction built, each distinct text
read once, and a path is formatted only for the error that names it,
the first in document order.
"""

from __future__ import annotations

import json
import math
import sys
from operator import itemgetter
from pathlib import Path
from typing import Any, Iterable

from .model import (
    CELL_KEYS,
    BellLabError,
    EnsembleEntry,
    HiddenStateEnsemble,
    Prob,
    ResponseKernel,
    Scenario,
    Setting,
    TheoryModel,
    format_probability,
    is_text,
    parse_probability,
)

_CELL_KEY_SET = frozenset(CELL_KEYS)
_cell_values = itemgetter(*CELL_KEYS)


class SpecFormatError(BellLabError):
    """Malformed theory-spec input; message pinpoints path or line/column."""


_KINDS = {dict: "an object", list: "an array", str: "a string"}


def _as(kind: type, value: Any, path: str, *args: object) -> Any:
    """`value` if it is a `kind`; `path` is formatted with `args` only for the error."""
    if not isinstance(value, kind):
        raise SpecFormatError(f"{path.format(*args)}: expected {_KINDS[kind]}, got {type(value).__name__}")
    if kind is str and not is_text(value):
        raise SpecFormatError(f"{path.format(*args)}: {value!r} holds a lone surrogate")
    return value


def _fields(value: Any, allowed: tuple[str, ...], required: tuple[str, ...], path: str, *args) -> dict:
    """`value` as an object with only `allowed` keys and every `required` one."""
    obj = _as(dict, value, path, *args)
    for key in obj:
        if key not in allowed:
            raise SpecFormatError(f"{path.format(*args)}: unknown key {key!r} (allowed: {sorted(allowed)})")
    for key in required:
        if key not in obj:
            raise SpecFormatError(f"{path.format(*args)}: missing required key {key!r}")
    return obj


def _prob(value: Any, path: str, *args: object) -> Prob:
    """parse_probability, its error message led by the formatted path."""
    try:
        return parse_probability(value, "")
    except ValueError as exc:
        raise SpecFormatError(path.format(*args) + str(exc)) from exc


def _parse_setting(obj: Any, side: str, i: int) -> Setting:
    path = "$.scenario.{}_settings[{}]"
    d = _fields(obj, ("id", "vector"), ("id",), path, side, i)
    sid = _as(str, d["id"], path + ".id", side, i)
    direction = None
    if "vector" in d:
        vec = _as(list, d["vector"], path + ".vector", side, i)
        if len(vec) != 3 or not all(isinstance(c, (int, float)) and not isinstance(c, bool) for c in vec):
            raise SpecFormatError(f"{path.format(side, i)}.vector: expected three numbers")
        try:
            direction = (float(vec[0]), float(vec[1]), float(vec[2]))
        except OverflowError:
            raise SpecFormatError(f"{path.format(side, i)}.vector: component too large for a float") from None
    return Setting(id=sid, direction=direction)


def _ratio(value: int | str) -> tuple[int, int]:
    """An int or 'p/q' text in lowest terms; ValueError where parse_probability refuses it."""
    if type(value) is int:
        return value, 1
    num, den = map(int, value.split("/"))
    if den <= 0:
        raise ValueError(value)
    g = math.gcd(num, den)
    return num // g, den // g


def _columns(flat: list[Any], keys: list[tuple[str, str, str]]) -> dict[str, Any]:
    """Kernel values, four per cell of `keys`, as ints-only `ratios` or as
    `rows`; the first value parse_probability refuses raises."""
    kinds = set(map(type, flat))
    try:
        if kinds <= {int, str}:
            distinct = dict.fromkeys(flat)  # each distinct value is read once
            ratio = dict(zip(distinct, map(_ratio, distinct)))
            if max(map(abs, map(itemgetter(0), ratio.values())), default=0) <= sys.float_info.max:
                at = list(map(ratio.__getitem__, flat))
                return {"ratios": (_rows(map(itemgetter(0), at)), _rows(map(itemgetter(1), at)))}
        elif kinds <= {float} and all(map(math.isfinite, flat)):
            return {"rows": _rows(flat)}
    except ValueError:
        pass
    return {"rows": _rows([_prob(value, "$.kernel.{}.{}|{}.{}", *keys[i // 4], CELL_KEYS[i % 4])
                           for i, value in enumerate(flat)])}


def _rows(values: Iterable[Any]) -> tuple[tuple[Any, ...], ...]:
    """`values` four to a row."""
    return tuple(zip(*[iter(values)] * 4))


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

    top_keys = ("name", "scenario", "ensemble", "kernel")
    top = _fields(raw, top_keys, top_keys, "$")
    name = _as(str, top["name"], "$.name")

    sides = ("alice_settings", "bob_settings")
    scen_obj = _fields(top["scenario"], sides, sides, "$.scenario")
    alice, bob = (
        tuple(_parse_setting(item, side, i) for i, item in
              enumerate(_as(list, scen_obj[f"{side}_settings"], "$.scenario.{}_settings", side)))
        for side in ("alice", "bob")
    )
    scenario = Scenario(alice_settings=alice, bob_settings=bob)

    entries = []
    for i, item in enumerate(_as(list, top["ensemble"], "$.ensemble")):
        d = _fields(item, ("id", "weight"), ("id", "weight"), "$.ensemble[{}]", i)
        state_id = _as(str, d["id"], "$.ensemble[{}].id", i)
        entries.append(EnsembleEntry(state_id, _prob(d["weight"], "$.ensemble[{}].weight", i)))
    ensemble = HiddenStateEnsemble(entries=tuple(entries))

    # one walk: cell keys in document order, and every value in one flat
    # list, four per cell in CELL_KEYS order
    kernel_obj = _as(dict, top["kernel"], "$.kernel")
    keys: list[tuple[str, str, str]] = []
    flat: list[Any] = []
    pairs: dict[str, tuple[str, str]] = {}
    try:
        for state_id, by_pair in kernel_obj.items():
            _as(str, state_id, "$.kernel")
            for pair_key, cell in _as(dict, by_pair, "$.kernel.{}", state_id).items():
                a_b = pairs.get(pair_key)
                if a_b is None:  # each distinct cell key is checked once
                    _as(str, pair_key, "$.kernel.{}", state_id)
                    if pair_key.count("|") != 1:
                        raise SpecFormatError(f"$.kernel.{state_id}.{pair_key}: cell keys must look like 'aId|bId'")
                    a_b = pairs[pair_key] = tuple(pair_key.split("|"))
                if type(cell) is not dict or cell.keys() != _CELL_KEY_SET:
                    _fields(cell, CELL_KEYS, CELL_KEYS, "$.kernel.{}.{}", state_id, pair_key)
                keys.append((state_id, *a_b))
                flat.extend(_cell_values(cell))
    except SpecFormatError:
        _columns(flat, keys)  # a bad value earlier in the document is reported first
        raise
    kernel = ResponseKernel(keys=tuple(keys), **_columns(flat, keys))
    return TheoryModel(name=name, scenario=scenario, ensemble=ensemble, kernel=kernel)


def load_theory(path: str | Path) -> TheoryModel:
    p = Path(path)
    try:
        raw = p.read_bytes()
    except OSError as exc:
        raise SpecFormatError(f"cannot read {p}: {exc}") from exc
    return parse_theory(raw, source=str(p))


def theory_to_dict(model: TheoryModel) -> dict[str, Any]:
    def setting_obj(s: Setting) -> dict[str, Any]:
        return {"id": s.id} if s.direction is None else {"id": s.id, "vector": list(s.direction)}

    pair_keys = [f"{a}|{b}" for a, b in model.scenario.pairs()]
    K, per = list(zip(*model.tensor.K)), len(pair_keys)
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
        "kernel": {e.state_id: {key: dict(zip(CELL_KEYS, map(format_probability, row)))
                                for key, row in zip(pair_keys, K[s * per:(s + 1) * per])}
                   for s, e in enumerate(model.ensemble.entries)},
    }


def dump_theory(model: TheoryModel, path: str | Path) -> None:
    Path(path).write_text(json.dumps(theory_to_dict(model), indent=2) + "\n", encoding="utf-8")
