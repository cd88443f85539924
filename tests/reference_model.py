"""The per-cell dict walk of `validate_theory`, kept as a test oracle.

This is `validate_theory` as bell_lab shipped it before validation moved
onto the kernel's flat arrays: one pass over `model.kernel.cells.items()`
in the kernel's own order, with a Fraction or float comparison per entry
and an `OutcomeDistribution.total` per cell.  Property tests hold the
array rules to it, violation for violation and in the same order.
Nothing in the package calls it, and it never marks a model valid.
`as_dict` and `from_mapping` are the cell helpers that
`OutcomeDistribution` shipped as methods for tests alone.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

from bell_lab.model import (
    OutcomeDistribution,
    Prob,
    TheoryModel,
    Violation,
    is_text,
    resolve_tolerance,
)

_FLOAT_MAX = int(sys.float_info.max)


def as_dict(dist: OutcomeDistribution) -> dict[str, Prob]:
    return {"++": dist.pp, "+-": dist.pm, "-+": dist.mp, "--": dist.mm}


def from_mapping(cells: dict[str, Prob]) -> OutcomeDistribution:
    return OutcomeDistribution(pp=cells["++"], pm=cells["+-"], mp=cells["-+"], mm=cells["--"])


def _sum_fault(total: Prob, t: float, what: str) -> str | None:
    if isinstance(total, Fraction):
        return None if total == 1 else f"{what} must sum to 1 exactly, got {total}"
    return f"{what} must sum to 1 within {t}, got {total!r}" if abs(total - 1.0) > t else None


def _loc(template: str, *ids: str) -> str:
    return template.format(*(repr(i) if isinstance(i, str) and not is_text(i) else i for i in ids))


def _check_id(id_: str, seen: set[str], where: str, kind: str, out: list[Violation]) -> None:
    if id_ in seen:
        out.append(Violation(_loc(where, id_), f"duplicate {kind} id"))
    seen.add(id_)
    if not is_text(id_):
        out.append(Violation(_loc(where, id_), f"{kind} id holds a lone surrogate"))


def _value_fault(value: object) -> str | None:
    if isinstance(value, bool) or not isinstance(value, (int, float, Fraction)):
        return f"must be an int, a float or a Fraction, got {type(value).__name__}"
    if isinstance(value, float):
        return None if math.isfinite(value) else f"must be finite, got {value!r}"
    return "too large for a float" if abs(value) > _FLOAT_MAX else None


def _direction_fault(direction) -> str | None:
    try:
        components = list(direction)
    except TypeError:
        return "direction must have three components"
    if len(components) != 3:
        return "direction must have three components"
    for c in components:
        if type(c) is bool or not isinstance(c, (int, float)):
            return f"direction components must be ints or floats, got {direction!r}"
    squares = 0
    for c in components:
        c = float(c) if isinstance(c, float) else c
        squares += c * c
    try:
        norm = math.sqrt(squares)
    except OverflowError:
        norm = math.inf
    return None if abs(norm - 1.0) <= 1e-9 else f"direction must be a unit vector, norm is {norm!r}"


def validate_theory(model: TheoryModel, tol: float | None = None) -> list[Violation]:
    out: list[Violation] = []
    t = resolve_tolerance(model, tol)
    scen = model.scenario

    if not isinstance(model.name, str):
        out.append(Violation("name", f"name must be a str, got {type(model.name).__name__}"))
    elif not is_text(model.name):
        out.append(Violation("name", f"{model.name!r} holds a lone surrogate"))
    if not scen.alice_settings:
        out.append(Violation("scenario.alice_settings", "at least one setting required"))
    if not scen.bob_settings:
        out.append(Violation("scenario.bob_settings", "at least one setting required"))
    for side, settings in (("alice", scen.alice_settings), ("bob", scen.bob_settings)):
        where = f"scenario.{side}_settings[{{}}]"
        seen: set[str] = set()
        for s in settings:
            _check_id(s.id, seen, where, "setting", out)
            if "|" in s.id:
                out.append(Violation(_loc(where, s.id), "setting id must not contain '|'"))
            if s.direction is not None and (fault := _direction_fault(s.direction)):
                out.append(Violation(_loc(where + ".direction", s.id), fault))

    if not model.ensemble.entries:
        out.append(Violation("ensemble", "at least one hidden state required"))
    seen = set()
    weight_sum: Prob = Fraction(0)
    weight_at = "ensemble[{}].weight"
    for e in model.ensemble.entries:
        _check_id(e.state_id, seen, "ensemble[{}]", "hidden-state", out)
        w = e.weight
        fault = _value_fault(w)
        if fault:
            out.append(Violation(_loc(weight_at, e.state_id), f"weight {fault}"))
            if not isinstance(w, float):
                continue
        elif w <= 0:
            out.append(Violation(_loc(weight_at, e.state_id), f"weight must be > 0, got {w}"))
        weight_sum = weight_sum + w
    if model.ensemble.entries and (fault := _sum_fault(weight_sum, t, "weights")):
        out.append(Violation("ensemble", fault))

    expected = dict.fromkeys((e.state_id, a.id, b.id) for e in model.ensemble.entries
                             for a in scen.alice_settings for b in scen.bob_settings)
    cell, entry = "kernel[{},{},{}]", "kernel[{},{},{}].{}"
    for key in expected:
        if key not in model.kernel.cells:
            out.append(Violation(_loc(cell, *key),
                                 "missing cell: every (state, a, b) needs an outcome distribution"))
    for key, dist in model.kernel.cells.items():
        if key not in expected:
            out.append(Violation(_loc(cell, *key),
                                 "cell references ids outside the scenario or ensemble"))
            continue
        summable = True
        for label, p in as_dict(dist).items():
            fault = _value_fault(p)
            if fault:
                if not isinstance(p, float):
                    summable = False
                out.append(Violation(_loc(entry, *key, label), f"probability {fault}"))
            elif isinstance(p, Fraction):
                if p < 0 or p > 1:
                    out.append(Violation(_loc(entry, *key, label), f"probability out of [0,1]: {p}"))
            elif p < -t or p > 1 + t:
                out.append(Violation(_loc(entry, *key, label), f"probability out of [0,1]: {p!r}"))
        if summable and (fault := _sum_fault(dist.total(), t, "cell")):
            out.append(Violation(_loc(cell, *key), fault))
    return out
