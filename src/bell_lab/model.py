"""Core data model for candidate hidden-state theories.

A theory is a finite ensemble of hidden states, each carrying a weight and a
conditional outcome kernel: for every hidden state and every pair of detector
settings (one per wing), a distribution over the four joint outcomes
(A, B) with A, B in {+1, -1}.  Averaging the kernel over the ensemble yields
the observable behavior P(A, B | a, b).

Probabilities come in two flavors and the distinction is load-bearing:

* exact rationals (`fractions.Fraction`), on which checks demand exact zeros;
* decimal floats, on which checks apply a tolerance (default 1e-9).

A model is *exact* when every weight and every kernel entry is a Fraction.
Mixed models are treated as decimal.  All containers are frozen: the
model is a `Record`, its parts are NamedTuples, and the kernel keeps its
values in tuples, so a model cannot change after it is built, and equal
models hash alike.  That lets a model remember the tolerances
at which `validate_theory` found it valid: `require_valid` validates once
per tolerance, however many checks a model passes through.
`resolve_tolerance` is the one tolerance rule, for models and behavior
tables alike.  `validate_theory` states each invariant once, and every
builder in the package (`make_quantum_theory`, `realize_model`) ends
with `require_valid`, so no model it returns fails validation.
Functions here are pure and never mutate their inputs.

The kernel is stored once, as rows of four values per cell
(`ResponseKernel`); the `cells` mapping and `TheoryModel.tensor`, a
`KernelTensor` of one column `K[j][cell]` per joint outcome and the
weights `w[state]`, the model's own values in declaration order, are
built from it on first read.  The checks apply Python's operators to
those values, a column at a time through `map`, so every value keeps its
type and its bits; numpy is not imported.  `KernelTensor.scaled` decides
once, by the kernel alone, how the per-state checks count: an exact
kernel's integer form `(N, D)`, one denominator `D[state]` per state and
Python-int numerators `N = K * D[state]`, else `(K, None)`.  The audits
and the derivation compare `scaled` values with `at_most` bounds and
build a Fraction only for a value they report, whatever the weights.
`validate_theory` checks the stored rows in their own order.

The engines (`specio`, `audit`, `instructions`, `harness`, `montecarlo`,
`singlet`) import only this module, so the vocabulary they share is here:
an `Axis` (alice_id, bob_id), found by `auto_equal_axes`, `resolve_axes`
and `equal_axes`, whose pairs `axis_pairs` checks, `CHSH_CONVENTION` with
its one signed form, and `Record`, the frozen class of the records that
are not NamedTuples.  No module of the package imports `dataclasses`,
which would load `inspect` with it.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from functools import cached_property, reduce
from itertools import chain, repeat, starmap
from operator import add, attrgetter, floordiv, gt, mul, truediv
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, NamedTuple, NoReturn

Prob = Fraction | float

OUTCOMES: tuple[int, int] = (+1, -1)

#: Joint outcomes in canonical order; also the order of cell keys "++", "+-", ...
JOINT_OUTCOMES: tuple[tuple[int, int], ...] = ((+1, +1), (+1, -1), (-1, +1), (-1, -1))

#: The keys of a spec cell, in the order of JOINT_OUTCOMES and of a kernel row.
CELL_KEYS: tuple[str, ...] = ("++", "+-", "-+", "--")

_FIELDS = dict(zip(JOINT_OUTCOMES, ("pp", "pm", "mp", "mm")))

DEFAULT_TOL = 1e-9

_UNIT_NORM_TOL = 1e-9

#: The largest float as an int: an exact value beyond it cannot meet a float.
_FLOAT_MAX = int(sys.float_info.max)


class BellLabError(Exception):
    """Base class for errors raised by this package."""


class UnknownIdError(BellLabError):
    """A referenced setting or hidden-state id does not exist."""


class EnumerationLimitError(BellLabError):
    """Too many settings or axes to enumerate every strategy or class."""


class EqualAxisError(BellLabError):
    """No equal-axis pairs were declared and none could be auto-detected."""


class InvalidModelError(BellLabError):
    """A theory model failed validation; carries the full violation report."""

    def __init__(self, violations: tuple[Violation, ...]):
        self.violations = violations
        lines = "; ".join(f"{v.location}: {v.message}" for v in violations[:5])
        more = "" if len(violations) <= 5 else f" (+{len(violations) - 5} more)"
        super().__init__(f"invalid theory model: {lines}{more}")


def value_fault(value: object) -> str | None:
    """Why `value` is no weight or kernel entry, or None: the one rule for
    both, by which `parse_probability` also reads a spec's numbers.  A
    value is an int that is not a bool, a float (numpy's float64 is one)
    or a Fraction; it is finite and no larger than the largest float, as
    a decimal model sums its exact and float values as floats."""
    if isinstance(value, bool) or not isinstance(value, (int, float, Fraction)):
        return f"must be an int, a float or a Fraction, got {type(value).__name__}"
    if isinstance(value, float):
        return None if math.isfinite(value) else f"must be finite, got {value!r}"
    return "too large for a float" if abs(value) > _FLOAT_MAX else None


def parse_probability(value: object, where: str = "probability") -> Prob:
    """Convert a JSON-ish value into a probability.

    Ints and "p/q" strings become exact Fractions; a float or a Fraction
    is returned as it is.  Denominators must be positive, and every other
    value is held to `value_fault`'s rule.
    """
    if isinstance(value, str):
        parts = value.split("/")
        if len(parts) != 2:
            raise ValueError(f"{where}: rational strings must look like 'p/q', got {value!r}")
        try:
            num, den = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ValueError(f"{where}: non-integer term in {value!r}") from exc
        if den <= 0:
            raise ValueError(f"{where}: denominator must be positive in {value!r}")
        if abs(num) > den * _FLOAT_MAX:
            raise ValueError(f"{where}: too large for a float")
        return Fraction(num, den)
    if isinstance(value, bool) or not isinstance(value, (int, float, Fraction)):
        kind = "a bool" if isinstance(value, bool) else type(value).__name__
        raise ValueError(f"{where}: expected a number or 'p/q' string, got {kind}")
    if fault := value_fault(value):
        raise ValueError(f"{where}: {fault}")
    return value if isinstance(value, (float, Fraction)) else Fraction(value)


def format_probability(value: Prob) -> object:
    """Inverse of parse_probability for serialization: Fractions to 'p/q' or int."""
    if type(value) is float:  # skips the ABC check of isinstance(value, Fraction)
        return value
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return int(value)
        return f"{value.numerator}/{value.denominator}"
    return value


def is_text(value: str) -> bool:
    """False when `value` holds a lone surrogate, which no UTF-8 output can
    carry; JSON admits one as an escape such as "\\ud800"."""
    return value.isascii() or not any("\ud800" <= c <= "\udfff" for c in value)


def is_exact(value: Prob) -> bool:
    return isinstance(value, Fraction)


class Setting(NamedTuple):
    """One detector setting on one wing; `direction` is an optional unit
    vector.  Equals the plain tuple of its fields and iterates over them."""

    id: str
    direction: tuple[float, float, float] | None = None


#: One shared axis: an (alice_id, bob_id) pair of settings.
Axis = tuple[str, str]

_AXIS_MATCH_TOL = 1e-12


class Scenario(NamedTuple):
    """Measurement scenario: the settings available to each wing.

    Outcomes are fixed at {+1, -1} per wing.  Setting ids must be unique
    within their wing; the same id may appear on both wings (handy for
    shared-axis scenarios).  Equals the plain tuple of its fields and
    iterates over them.
    """

    alice_settings: tuple[Setting, ...]
    bob_settings: tuple[Setting, ...]

    def alice_ids(self) -> tuple[str, ...]:
        return tuple(s.id for s in self.alice_settings)

    def bob_ids(self) -> tuple[str, ...]:
        return tuple(s.id for s in self.bob_settings)

    def alice_setting(self, setting_id: str) -> Setting:
        for s in self.alice_settings:
            if s.id == setting_id:
                return s
        raise UnknownIdError(f"unknown Alice setting id {setting_id!r}")

    def bob_setting(self, setting_id: str) -> Setting:
        for s in self.bob_settings:
            if s.id == setting_id:
                return s
        raise UnknownIdError(f"unknown Bob setting id {setting_id!r}")

    def pair_indices(self, pairs) -> tuple[list[int], list[int]]:
        """Declaration positions of (alice_id, bob_id) pairs, as an Alice
        list and a Bob list; the first unknown id raises UnknownIdError."""
        found = [(self.alice_settings.index(self.alice_setting(a_id)),
                  self.bob_settings.index(self.bob_setting(b_id))) for a_id, b_id in pairs]
        return [a for a, _ in found], [b for _, b in found]

    def default_chsh_roles(self) -> tuple[str, str, str, str] | None:
        """The CHSH roles (a, a', b, b') in declaration order on a
        two-by-two scenario; None on any other shape."""
        if len(self.alice_settings) != 2 or len(self.bob_settings) != 2:
            return None
        return (*self.alice_ids(), *self.bob_ids())

    def pairs(self) -> list[tuple[str, str]]:
        """All (alice_id, bob_id) setting pairs in declaration order."""
        return [(a.id, b.id) for a in self.alice_settings for b in self.bob_settings]

    def far_pairs(self) -> Iterator[tuple[str, str, int, str, str]]:
        """(side, own setting, outcome, far setting, later far setting) for
        every pair of far settings, Alice's side first: the order in which
        no-signalling deltas are reported."""
        for side, own_ids, far_ids in (
            ("alice", self.alice_ids(), self.bob_ids()),
            ("bob", self.bob_ids(), self.alice_ids()),
        ):
            for own in own_ids:
                for outcome in OUTCOMES:
                    for i, far in enumerate(far_ids):
                        for later in far_ids[i + 1:]:
                            yield side, own, outcome, far, later


CHSH_CONVENTION = "S = E(a,b) + E(a,b') + E(a',b) - E(a',b')"

#: the signs of E(a,b), E(a,b'), E(a',b), E(a',b') in CHSH_CONVENTION
CHSH_SIGNS = (+1, +1, +1, -1)


def _chsh_form(signs: tuple[int, int, int, int], e, a, a2, b, b2):
    """s1*E(a,b) + s2*E(a,b') + s3*E(a',b) + s4*E(a',b') for a pairing `e`:
    correlators of named settings, or the product of two +-1 outcomes."""
    return signs[0] * e(a, b) + signs[1] * e(a, b2) + signs[2] * e(a2, b) + signs[3] * e(a2, b2)


def auto_equal_axes(scenario: Scenario) -> list[Axis]:
    """Setting pairs that name one shared axis.

    A pair qualifies when both direction vectors agree within 1e-12 per
    component, or when the ids match and no vectors contradict; a shared
    id with two different vectors does not qualify.
    """
    return [(a.id, b.id) for a in scenario.alice_settings for b in scenario.bob_settings
            if (a.id == b.id if a.direction is None or b.direction is None else
                all(abs(x - y) <= _AXIS_MATCH_TOL for x, y in zip(a.direction, b.direction)))]


def axis_pairs(axes: list[Axis], error: type[BellLabError] = BellLabError) -> list[Axis]:
    """`axes` if it is a list or tuple of (alice_id, bob_id) tuples of two
    str ids, else `error`, a BellLabError."""
    if not isinstance(axes, (list, tuple)) or not all(
            isinstance(p, tuple) and len(p) == 2 and all(isinstance(i, str) for i in p) for p in axes):
        raise error(f"setting pairs must be a list or tuple of (a_id, b_id), got {axes!r}")
    return axes


def equal_axes(scenario: Scenario, axes: list[Axis] | None, message: str) -> list[Axis]:
    """`axes`, checked by `axis_pairs`, or when None the auto-detected ones;
    EqualAxisError with the caller's `message` when that leaves none, and
    BellLabError for an axis given twice."""
    if not (axes := auto_equal_axes(scenario) if axes is None else axis_pairs(axes)):
        raise EqualAxisError(message)
    if len(set(axes)) != len(axes):
        raise BellLabError(f"an axis is given twice in {axes!r}")
    return axes


def resolve_axes(scenario: Scenario, names: list[str | tuple[str, str | None]]) -> list[Axis]:
    """Resolve axis names to (alice_id, bob_id) pairs.

    A name is an 'aId=bId' pair, split at its first '=', or a bare id; a
    tuple names its ids verbatim, (aId, bId) a pair and (id, None) a bare
    id, so an id holding '=' can be named.  A bare id matches a Bob
    setting of the same id, else a Bob setting with an equal direction
    vector.
    """
    if not isinstance(names, (list, tuple)):
        raise BellLabError(f"axis names must be a list or tuple of names, got {names!r}")
    vector_pairs = dict(auto_equal_axes(scenario))
    out: list[Axis] = []
    for name in names:
        if isinstance(name, str):
            a_id, pair, b_id = name.partition("=")
            name = (a_id, b_id if pair else None)
        elif not (isinstance(name, tuple) and len(name) == 2 and isinstance(name[0], str)
                  and isinstance(name[1], (str, type(None)))):
            raise BellLabError(f"axis name must be a string or an (aId, bId or None) tuple, got {name!r}")
        a_id, b_id = name
        scenario.alice_setting(a_id)
        if b_id is not None:
            scenario.bob_setting(b_id)
            out.append((a_id, b_id))
        elif any(s.id == a_id for s in scenario.bob_settings):
            out.append((a_id, a_id))
        elif a_id in vector_pairs:
            out.append((a_id, vector_pairs[a_id]))
        else:
            raise BellLabError(f"cannot resolve axis {a_id!r}: no same-id or same-vector Bob setting")
    return out


class EnsembleEntry(NamedTuple):
    """One hidden state and its weight; equals and iterates as the plain
    tuple of its fields, (state_id, weight)."""

    state_id: str
    weight: Prob


class HiddenStateEnsemble(NamedTuple):
    """Finite collection of hidden states with strictly positive weights;
    equals the plain tuple of its fields and iterates over them."""

    entries: tuple[EnsembleEntry, ...]

    def state_ids(self) -> tuple[str, ...]:
        return tuple(e.state_id for e in self.entries)


class OutcomeDistribution(NamedTuple):
    """Distribution over the four joint outcomes of one (state, a, b) cell.

    Field names spell the outcome pair: `pm` is P(A=+1, B=-1), etc.  It
    equals the plain tuple of its fields and iterates over them.
    """

    pp: Prob
    pm: Prob
    mp: Prob
    mm: Prob

    def prob(self, outcome_a: int, outcome_b: int) -> Prob:
        try:
            return getattr(self, _FIELDS[(outcome_a, outcome_b)])
        except (KeyError, TypeError):
            raise ValueError(f"outcomes must be +1 or -1, got ({outcome_a}, {outcome_b})") from None

    def marginal_a(self, outcome_a: int) -> Prob:
        return self.prob(outcome_a, +1) + self.prob(outcome_a, -1)

    def marginal_b(self, outcome_b: int) -> Prob:
        return self.prob(+1, outcome_b) + self.prob(-1, outcome_b)

    def total(self) -> Prob:
        return self.pp + self.pm + self.mp + self.mm

    def values(self) -> tuple[Prob, Prob, Prob, Prob]:
        return (self.pp, self.pm, self.mp, self.mm)

    @staticmethod
    def point(outcome_a: int, outcome_b: int) -> OutcomeDistribution:
        """Deterministic cell: all mass on one joint outcome, exact; the
        ValueError of `prob` for an outcome other than +1 or -1."""
        dist = OutcomeDistribution(*(Fraction(int(ab == (outcome_a, outcome_b))) for ab in JOINT_OUTCOMES))
        dist.prob(outcome_a, outcome_b)
        return dist


class ResponseKernel:
    """Per-state conditional outcome distributions, keyed (state_id, a_id, b_id):
    `keys` in the order given and one row (++, +-, -+, --) per key, as
    tuples of the values (`rows`) or of an exact kernel's reduced numerators
    and denominators (`ratios`, a numerator and a denominator tuple of
    rows), each built from the other on first read, as is the `cells` view.
    Equal kernels hold equal cells, in any order, and hash alike."""

    def __init__(self, cells: Mapping[tuple[str, str, str], OutcomeDistribution] | None = None, *,
                 keys: tuple = (), rows: tuple | None = None, ratios: tuple | None = None):
        if cells is not None:
            keys, rows = tuple(cells), tuple(dist.values() for dist in cells.values())
        self.keys = keys
        if rows is not None:
            self.rows = rows
        if ratios is not None:
            self.ratios, self.is_exact = ratios, True

    @cached_property
    def rows(self) -> tuple[tuple[Prob, ...], ...]:
        return tuple(tuple(map(Fraction, n, d)) for n, d in zip(*self.ratios))

    @cached_property
    def ratios(self) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
        return tuple(tuple(tuple(map(attrgetter(part), row)) for row in self.rows)
                     for part in ("numerator", "denominator"))

    @cached_property
    def is_exact(self) -> bool:
        return all(map(is_exact, chain.from_iterable(self.rows)))

    @cached_property
    def cells(self) -> Mapping[tuple[str, str, str], OutcomeDistribution]:
        return MappingProxyType(dict(zip(self.keys, starmap(OutcomeDistribution, self.rows))))

    @cached_property
    def _positions(self) -> dict[tuple[str, str, str], int]:
        return dict(zip(self.keys, range(len(self.keys))))

    def _position(self, key: tuple[str, str, str]) -> int:
        """The row of cell `key`; UnknownIdError if there is none."""
        try:
            return self._positions[key]
        except (KeyError, TypeError):  # an unhashable id names no cell either
            raise UnknownIdError("kernel has no cell for (state={!r}, a={!r}, b={!r})".format(*key)) from None

    def cell(self, state_id: str, a_id: str, b_id: str) -> OutcomeDistribution:
        return self.cells[self.keys[self._position((state_id, a_id, b_id))]]

    def __eq__(self, other: object) -> bool:
        return self.cells == other.cells if isinstance(other, ResponseKernel) else NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self.cells.items()))

    def __repr__(self) -> str:
        return f"ResponseKernel({dict(self.cells)!r})"

    def __getstate__(self) -> dict:
        # the cells view is a mappingproxy, which cannot be pickled
        return {k: v for k, v in vars(self).items() if k != "cells"}


class KernelTensor:
    """A model's kernel in declaration order, one column per joint outcome.

    `K[j][cell]` is P(A, B | a, b, state) for the outcome pair j = 2A + B
    (index 0 for +1, as in a kernel row), cell = (state * na + a) * nb + b
    over the `shape` (states, na, nb), and `w[state]` the state's weight:
    the model's own Fraction or float values in tuples, arranged from the
    kernel's rows on first read.
    """

    def __init__(self, w: tuple, kernel: ResponseKernel, order: list | None, shape: tuple[int, int, int]):
        self.w, self.shape = w, shape
        self._kernel, self._order = kernel, order

    def _columns(self, rows: tuple) -> tuple[tuple, ...]:
        """Kernel `rows`, in declaration order, as one column per joint outcome."""
        flat = list(chain.from_iterable(rows if self._order is None else map(rows.__getitem__, self._order)))
        return tuple(tuple(flat[j::4]) for j in range(4))

    def per_cell(self, values: Iterable) -> list:
        """A per-state sequence repeated over each state's cells."""
        return list(chain.from_iterable(map(repeat, values, repeat(self.shape[1] * self.shape[2]))))

    @cached_property
    def K(self) -> tuple[tuple[Prob, ...], ...]:
        return self._columns(self._kernel.rows)

    @cached_property
    def integer_form(self) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
        """An exact kernel as Python ints `(N, D)`: `D[state]` the lcm of the
        state's denominators and `N[j][cell]` = K[j][cell] * D[state]."""
        (num, den), (S, na, nb) = map(self._columns, self._kernel.ratios), self.shape
        D = tuple(math.lcm(*chain.from_iterable(d[s * na * nb:(s + 1) * na * nb] for d in den)) for s in range(S))
        unit = self.per_cell(D)
        return tuple(tuple(map(mul, n, map(floordiv, unit, d))) for n, d in zip(num, den)), D

    @cached_property
    def scaled(self) -> tuple[tuple, tuple[int, ...] | None]:
        """The kernel as the audits and the derivation compare it, `(X, D)`:
        the integer form `(N, D)` of an exact kernel, else `(K, None)`.  A
        value x of state s stands for x / D[s], or for x itself."""
        return self.integer_form if self._kernel.is_exact else (self.K, None)

    def at_most(self, value: float) -> tuple:
        """Per state, the bound b with x <= b exactly when a `scaled` value x
        stands for at most `value`: floor(value * D[state]), or `value`."""
        p, q = Fraction(value).as_integer_ratio()
        D = self.scaled[1]
        return (value,) * len(self.w) if D is None else tuple(p * d // q for d in D)

    def unscaled(self, x: int | Prob, state: int) -> Prob:
        """What a `scaled` value x of `state` stands for: x / D[state], or x."""
        D = self.scaled[1]
        return x if D is None else Fraction(x, D[state])

    def as_float(self) -> list[list[float]]:
        """K as floats, column by column, correctly rounded: an exact
        kernel's reduced numerator over its denominator."""
        if self._kernel.is_exact:
            return [list(map(truediv, n, d)) for n, d in zip(*map(self._columns, self._kernel.ratios))]
        return [list(map(float, column)) for column in self.K]


class Record:
    """A frozen record of the fields its class annotates, made as a frozen
    dataclass made it: fields by position or keyword, then the class's
    `__post_init__`; equality and hash by the fields within one class, and
    the dataclass repr.  Its `__dict__` also holds `cached_property` values."""

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(cls.__annotations__)

    def __init__(self, *args, **kwargs) -> None:
        given = dict(zip(self._fields, args))
        if len(args) > len(self._fields) or given.keys() & kwargs or {*given, *kwargs} != set(self._fields):
            raise TypeError(f"{type(self).__name__}() takes the fields ({', '.join(self._fields)}), each once")
        given.update(kwargs)
        self.__dict__.update((name, given[name]) for name in self._fields)
        getattr(self, "__post_init__", lambda: None)()

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other: object) -> bool:
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(map('{}={!r}'.format, self._fields, self._values()))})"

    def __setattr__(self, name: str, *value) -> NoReturn:
        raise AttributeError(f"{type(self).__name__} is frozen: {name!r} cannot be set or deleted")

    __delattr__ = __setattr__


class TheoryModel(Record):
    name: str
    scenario: Scenario
    ensemble: HiddenStateEnsemble
    kernel: ResponseKernel

    @cached_property
    def is_exact(self) -> bool:
        """True iff every weight and kernel entry is an exact Fraction."""
        return all(is_exact(e.weight) for e in self.ensemble.entries) and self.kernel.is_exact

    @cached_property
    def _declared_cells(self) -> tuple[tuple[str, str, str], ...]:
        """Every cell key the model needs, in declaration order."""
        pairs = self.scenario.pairs()
        return tuple((e.state_id, a, b) for e in self.ensemble.entries for a, b in pairs)

    @cached_property
    def _valid_at(self) -> set[float]:
        """Resolved tolerances at which `validate_theory` found no violation."""
        return set()

    @cached_property
    def tensor(self) -> KernelTensor:
        """The kernel as one tensor; UnknownIdError for a missing cell."""
        declared = self._declared_cells
        order = None if self.kernel.keys == declared else list(map(self.kernel._position, declared))
        w = tuple(e.weight for e in self.ensemble.entries)
        shape = (len(w), len(self.scenario.alice_settings), len(self.scenario.bob_settings))
        return KernelTensor(w, self.kernel, order, shape)


class BehaviorTable(NamedTuple):
    """Observable behavior: ensemble-averaged joint distributions per setting
    pair; equals the plain tuple of its fields and iterates over them."""

    scenario: Scenario
    cells: Mapping[tuple[str, str], OutcomeDistribution]

    def cell(self, a_id: str, b_id: str) -> OutcomeDistribution:
        try:
            return self.cells[(a_id, b_id)]
        except (KeyError, TypeError):  # an unhashable id names no cell either
            raise UnknownIdError(f"behavior has no cell for (a={a_id!r}, b={b_id!r})") from None

    @property
    def is_exact(self) -> bool:
        """True iff every cell entry is an exact Fraction."""
        return all(is_exact(p) for dist in self.cells.values() for p in dist.values())


class Violation(NamedTuple):
    """One validation failure, located by a dotted path into the model;
    equals and iterates as the plain tuple of its fields."""

    location: str
    message: str


def resolve_tolerance(subject: TheoryModel | BehaviorTable | bool, tol: float | None) -> float:
    """The tolerance every check compares with: an explicit `tol` wins,
    else 0 for an exact model or table (or `True`) and DEFAULT_TOL for a
    decimal one.  A negative, NaN or infinite `tol` would turn failing
    comparisons into passes, and a bool or a non-number (not an int or a
    float) is no tolerance a report could carry, so each raises
    BellLabError.  A float subclass, such as numpy's float64, is returned
    as the plain float it equals."""
    if tol is not None:
        if isinstance(tol, bool) or not isinstance(tol, (int, float)) or not 0 <= tol < math.inf:
            raise BellLabError(f"tolerance must be a finite number >= 0, got {tol!r}")
        return float(tol) if isinstance(tol, float) else tol
    exact = subject if isinstance(subject, bool) else subject.is_exact
    return 0.0 if exact else DEFAULT_TOL


def direction_fault(direction) -> str | None:
    """Why `direction` is no direction, or None: three components, each an
    int that is not a bool or a float, with a unit norm.  One rule for
    models and singlets, and the spec parser reads only such vectors."""
    try:
        # a float subclass as the plain float: numpy's float64 warns where a square overflows
        components = [float(c) if isinstance(c, float) else c for c in direction]
    except TypeError:
        components = []
    if len(components) != 3:
        return "direction must have three components"
    if not all(isinstance(c, (int, float)) and not isinstance(c, bool) for c in components):
        return f"direction components must be ints or floats, got {direction!r}"
    try:
        norm = math.sqrt(sum(c * c for c in components))
    except OverflowError:
        norm = math.inf
    if abs(norm - 1.0) <= _UNIT_NORM_TOL:
        return None
    return f"direction must be a unit vector, norm is {norm!r}"


def _sum_fault(total: Prob, t: float, what: str) -> str | None:
    """Why `total` is not 1 (exactly for a Fraction, else within `t`), or None."""
    if isinstance(total, Fraction):
        return None if total == 1 else f"{what} must sum to 1 exactly, got {total}"
    return f"{what} must sum to 1 within {t}, got {total!r}" if abs(total - 1.0) > t else None


def _loc(template: str, *ids: str) -> str:
    """`template` naming each id, by repr if it holds a lone surrogate (no UTF-8 can print it)."""
    return template.format(*(repr(i) if isinstance(i, str) and not is_text(i) else i for i in ids))


def _check_id(id_: str, seen: set[str], where: str, kind: str, out: list[Violation]) -> None:
    """Flag `id_` when it is in `seen` or holds a lone surrogate; add it to `seen`."""
    if id_ in seen:
        out.append(Violation(_loc(where, id_), f"duplicate {kind} id"))
    seen.add(id_)
    if not is_text(id_):
        out.append(Violation(_loc(where, id_), f"{kind} id holds a lone surrogate"))


_CELL, _ENTRY = "kernel[{},{},{}]", "kernel[{},{},{}].{}"


def _cell_faults(key: tuple[str, str, str], values: tuple, t: float) -> list[Violation]:
    """One declared cell's violations: its entries in order, then its sum."""
    out, summable = [], True
    for label, p in zip(CELL_KEYS, values):
        if fault := value_fault(p):
            summable = summable and isinstance(p, float)  # a NaN or infinite entry still sums
            out.append(Violation(_loc(_ENTRY, *key, label), f"probability {fault}"))
        elif isinstance(p, Fraction):
            if p < 0 or p > 1:
                out.append(Violation(_loc(_ENTRY, *key, label), f"probability out of [0,1]: {p}"))
        elif p < -t or p > 1 + t:
            out.append(Violation(_loc(_ENTRY, *key, label), f"probability out of [0,1]: {p!r}"))
    if summable and (fault := _sum_fault(OutcomeDistribution(*values).total(), t, "cell")):
        out.append(Violation(_loc(_CELL, *key), fault))
    return out


def _suspect_rows(kernel: ResponseKernel, t: float) -> Iterable[int]:
    """The rows, in the kernel's order, that `_cell_faults` may flag: every
    row unless all exact (0 <= num <= den, and over the lcm L of the row's
    denominators, num * (L / den) summing to L, each distinct row checked
    once) or all float (each entry in [-t, 1 + t], and the sum in
    `OutcomeDistribution.total`'s order within t of 1, which no NaN or
    infinite entry leaves it)."""
    if kernel.is_exact:
        rows = list(zip(*kernel.ratios))  # (numerators, denominators) per row
        bad = {(n, d) for n, d, L in ((*row, math.lcm(*row[1])) for row in set(rows))
               if min(n) < 0 or any(map(gt, n, d)) or sum(map(mul, n, map(floordiv, repeat(L), d))) != L}
        return [i for i, row in enumerate(rows) if row in bad] if bad else []
    if set(map(type, chain.from_iterable(kernel.rows))) <= {float}:
        return [i for i, row in enumerate(kernel.rows)
                if min(row) < -t or max(row) > 1 + t or not abs(reduce(add, row) - 1.0) <= t]
    return range(len(kernel.keys))


def validate_theory(model: TheoryModel, tol: float | None = None) -> list[Violation]:
    """Check every structural invariant; an empty list means the model is valid.

    Exact quantities are held to exact equalities; decimal ones to `tol`
    (default 1e-9).  A weight or kernel entry that `value_fault` refuses,
    a direction that `direction_fault` refuses, setting ids containing
    '|' (the separator of kernel keys), a name that is not a str and a
    name or id holding a lone surrogate are violations too, so a model
    built through the library is held to what the spec parser accepts.
    Every violation is reported, not just the first.
    """
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
                # kernel keys and simulation counts join setting ids with '|'
                out.append(Violation(_loc(where, s.id), "setting id must not contain '|'"))
            if s.direction is not None and (fault := direction_fault(s.direction)):
                out.append(Violation(_loc(where + ".direction", s.id), fault))

    if not model.ensemble.entries:
        out.append(Violation("ensemble", "at least one hidden state required"))
    seen = set()
    weight_sum: Prob = Fraction(0)
    weight_at = "ensemble[{}].weight"
    for e in model.ensemble.entries:
        _check_id(e.state_id, seen, "ensemble[{}]", "hidden-state", out)
        w = e.weight
        if fault := value_fault(w):
            out.append(Violation(_loc(weight_at, e.state_id), f"weight {fault}"))
        elif w <= 0:
            out.append(Violation(_loc(weight_at, e.state_id), f"weight must be > 0, got {w}"))
        if not fault or isinstance(w, float):  # a NaN or infinite weight still sums
            weight_sum = weight_sum + w
    if model.ensemble.entries and (fault := _sum_fault(weight_sum, t, "weights")):
        out.append(Violation("ensemble", fault))

    # the declared cells the kernel lacks, then its own rows in its order:
    # those outside the declared cells and those its arrays flag
    kernel, expected = model.kernel, dict.fromkeys(model._declared_cells)
    present = set(kernel.keys)
    out.extend(Violation(_loc(_CELL, *key), "missing cell: every (state, a, b) needs an outcome "
                         "distribution") for key in expected if key not in present)
    foreign = (i for i, key in enumerate(kernel.keys) if key not in expected)
    for i in sorted({*_suspect_rows(kernel, t), *foreign}):
        key = kernel.keys[i]
        if key in expected:
            # an exact row is built from its own ratios, not the whole `rows` tuple
            row = tuple(map(Fraction, *(part[i] for part in kernel.ratios))) if kernel.is_exact else kernel.rows[i]
            out.extend(_cell_faults(key, row, t))
        else:
            out.append(Violation(_loc(_CELL, *key), "cell references ids outside the scenario or ensemble"))
    if not out:
        model._valid_at.add(t)
    return out


def require_valid(model: TheoryModel, tol: float | None = None) -> float:
    """Raise InvalidModelError unless the model is valid at `tol`; return
    the resolved tolerance.  Validates only at a tolerance at which the
    model has not yet been found valid."""
    t = resolve_tolerance(model, tol)
    if t not in model._valid_at:
        violations = validate_theory(model, t)
        if violations:
            raise InvalidModelError(tuple(violations))
    return t


def behavior(model: TheoryModel, tol: float | None = None) -> BehaviorTable:
    """Ensemble-average the kernel into the observable behavior table.

    An exact model's cells are one integer sum over the states, w * K =
    w * N / D, over the common denominator of every w * D, so exactness
    propagates: an all-rational model yields all-rational cells.  Any
    other model folds w * K over the states in order, starting from
    Fraction(0).  Raises InvalidModelError if the model fails validation.
    """
    require_valid(model, tol)
    kt = model.tensor
    per = kt.shape[1] * kt.shape[2]
    # column[c::per] holds one cell of every state, in state order
    if model.is_exact:
        N, D = kt.integer_form
        scale = [w.denominator * d for w, d in zip(kt.w, D)]
        common = math.lcm(*scale)
        factor = [w.numerator * (common // d) for w, d in zip(kt.w, scale)]
        mean = [[Fraction(sum(map(mul, factor, column[c::per])), common) for c in range(per)] for column in N]
    else:
        mean = [[sum(map(mul, kt.w, column[c::per]), Fraction(0)) for c in range(per)] for column in kt.K]
    cells = dict(zip(model.scenario.pairs(), starmap(OutcomeDistribution, zip(*mean))))
    return BehaviorTable(scenario=model.scenario, cells=cells)
