"""Audits for Bell Locality, Signal Locality, and perfect anti-correlation.

Bell Locality is checked at the hidden-state level in two equivalent forms:
the conditional form (each wing's outcome probability conditioned on the far
wing's setting, or setting and outcome, must match its own-setting marginal)
and the factorized form (each joint cell must equal the product of the two
own-setting marginals).  Signal Locality is checked at the observable level:
each wing's marginal must not move when the far setting changes.

The scalar `worst_residual` scores only the factorized form, as the largest
absolute difference between a joint cell and the matching product of
marginals.  That choice of metric is this tool's, not a standard one, and
reports say so.  Conditional-form failures still appear as violations; for
strictly positive kernels the two forms agree on the verdict.

The hidden-state audits read the kernel tensor's `scaled` values: the
integer form `N = K * D[state]` of an exact kernel, else the model's own
values `K[j][cell]`.  Each of the 16 locality checks of a cell is one
pass of Python's operators over those columns and their marginals, and
only the decide step differs: with the tolerance written
as its exact ratio p / q, an integer check is an inequality between
cross-multiplied Python ints, which decides as the Fraction comparison
with the float tolerance does.  The anti-correlation audit compares the
++ and -- entries of each state's axis cells with the per-state bound
`at_most(t)`.  Fractions are built only for the values a report lists.
The signal audit reads the behavior table.  The axes come from
`model.equal_axes`, as for the derivation.

The locality report keeps its failing checks as columns.  Its rows
(`LocalityViolation`, a NamedTuple) are zipped from them on first read,
without a Python call per row; the CLI writes JSON from the columns.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import chain, compress, cycle, islice, repeat
from operator import add, and_, getitem, gt, mul, sub, truediv
from typing import Iterator, NamedTuple

from .model import (
    BehaviorTable,
    JOINT_OUTCOMES,
    KernelTensor,
    OUTCOMES,
    Prob,
    Record,
    TheoryModel,
    behavior,
    equal_axes,
    format_probability,
    require_valid,
    resolve_tolerance,
)

RESIDUAL_METRIC = "max absolute difference between joint cells and products of marginals"

class LocalityViolation(NamedTuple):
    """One cell where a locality equation fails.

    `form` is "factorization" (joint vs product of marginals) or
    "conditional-alice"/"conditional-bob" (far-setting or far-outcome
    dependence of the named wing's marginal; the far outcome slot is None
    when only the far setting was varied).  A row is a tuple of its nine
    fields, so it is immutable, iterable and indexable, and equals the
    plain tuple of its fields.
    """

    form: str
    state_id: str
    a_id: str
    b_id: str
    outcome_a: int | None
    outcome_b: int | None
    lhs: Prob
    rhs: Prob
    residual: Prob

    def to_dict(self) -> dict:
        return {
            "form": self.form,
            "state": self.state_id,
            "a": self.a_id,
            "b": self.b_id,
            "outcome_a": self.outcome_a,
            "outcome_b": self.outcome_b,
            "lhs": format_probability(self.lhs),
            "rhs": format_probability(self.rhs),
            "residual": format_probability(self.residual),
        }


class LocalityReport(Record):
    """Outcome of the Bell Locality audit, its failing checks as columns:
    the state, a, b and `SLOTS` index lists (`failing`) of the `ids`, and
    the lhs, rhs and residual lists (`values`).  `violations` is built on
    first read, and `rows(n)` zips only the first n.

    `worst_residual` is the maximum residual among factorization-form
    violations only (0 when there are none); conditional-form entries are
    listed but scored separately, so the scalar always means the same thing.
    """

    ids: tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...]]
    failing: tuple[list[int], list[int], list[int], list[int]]
    values: tuple[list[Prob], list[Prob], list[Prob]]
    worst_residual: Prob
    tolerance: float

    @property
    def bell_local(self) -> bool:
        return not self.failing[0]

    @property
    def verdict(self) -> str:
        return "BellLocal" if self.bell_local else "NotBellLocal"

    def rows(self, stop: int | None = None) -> Iterator[LocalityViolation]:
        (states, a_ids, b_ids), (s, a, b, k) = self.ids, self.failing
        columns = (map(_FORMS.__getitem__, k), map(states.__getitem__, s),
                   map(a_ids.__getitem__, a), map(b_ids.__getitem__, b),
                   map(_OUTCOMES_A.__getitem__, k), map(_OUTCOMES_B.__getitem__, k), *self.values)
        # tuple.__new__ is what LocalityViolation._make calls, without a
        # Python frame per row
        return islice(map(tuple.__new__, repeat(LocalityViolation), zip(*columns)), stop)

    @cached_property
    def violations(self) -> tuple[LocalityViolation, ...]:
        return tuple(self.rows())

    def to_dict(self, as_columns: bool = False) -> dict:
        """With `as_columns`, the report itself stands for its rows, which
        `cli.emit_json`'s encoder hook writes from the columns."""
        return {
            "verdict": self.verdict,
            "worst_residual": format_probability(self.worst_residual),
            "residual_metric": RESIDUAL_METRIC,
            "tolerance": self.tolerance,
            "violations": self if as_columns else [v.to_dict() for v in self.violations],
        }


#: (form, A, B) of the 16 checks on one (state, a, b) cell, in report
#: order: the far-setting forms, the far-outcome forms per joint outcome,
#: then factorization
SLOTS = (
    [("conditional-alice", A, None) for A in OUTCOMES]
    + [("conditional-bob", None, B) for B in OUTCOMES]
    + [(form, A, B) for A, B in JOINT_OUTCOMES for form in ("conditional-alice", "conditional-bob")]
    + [("factorization", A, B) for A, B in JOINT_OUTCOMES]
)
_FORMS, _OUTCOMES_A, _OUTCOMES_B = zip(*SLOTS)
_FACTORIZATION = tuple(form == "factorization" for form in _FORMS)


def _checks(kt: KernelTensor, t: float):
    """The 16 checks of every cell on the kernel's `scaled` values, each
    slot one pass over the columns of the cells in declaration order: the
    state, a, b and slot index lists of the failing checks, in that
    order, and their lhs, rhs and residual lists.  Only deciding depends
    on D: without one, Python's operators divide and subtract the model's
    own values; with one, each side is a ratio of ints, lhs = Ln / Ld and
    rhs = Rn / Rd, which with t = p / q fails when |Ln Rd - Rn Ld| q >
    p Ld Rd, and a Fraction is built only for a check that fails."""
    X, D = kt.scaled  # X[2A + B][cell], outcome index 0 for +1 and 1 for -1
    S, na, nb = kt.shape
    per = na * nb
    Ma = [list(map(add, X[0], X[1])), list(map(add, X[2], X[3]))]  # P(A | a, b)
    Mb = [list(map(add, X[0], X[2])), list(map(add, X[1], X[3]))]  # P(B | a, b)
    # P(A | a, first b) and P(B | first a, b)
    own_a = [list(chain.from_iterable(map(repeat, m[::nb], repeat(nb)))) for m in Ma]
    own_b = [list(chain.from_iterable(m[s * per:s * per + nb] * na for s in range(S))) for m in Mb]
    bound = kt.per_cell(kt.at_most(t))
    alive_a, alive_b = ([list(map(gt, m, bound)) for m in M] for M in (Ma, Mb))
    # a far-setting form skips the reference far setting
    far_b, far_a = ([False] + [True] * (nb - 1)) * (S * na), ([False] * nb + [True] * (per - nb)) * S
    # per slot: lhs (over `given` when one is named), rhs (times `factor`), and the cells it checks
    slots = ([(Ma[A], None, own_a[A], None, far_b) for A in (0, 1)]
             + [(Mb[B], None, own_b[B], None, far_a) for B in (0, 1)]
             + [check for A in (0, 1) for B in (0, 1) for check in (
                 (X[2 * A + B], Mb[B], own_a[A], None, alive_b[B]),
                 (X[2 * A + B], Ma[A], own_b[B], None, alive_a[A]))]
             + [(X[2 * A + B], None, own_a[A], own_b[B], None) for A in (0, 1) for B in (0, 1)])
    if D is not None:
        p, q = Fraction(t).as_integer_ratio()
        D = kt.per_cell(D)
        DD = list(map(mul, D, D))
    columns = []  # per slot: whether each cell fails, then lhs, rhs and residual, or Ln, Ld, Rn and Rd
    for num, given, r, factor, live in slots:
        rhs = r if factor is None else list(map(mul, r, factor))
        if D is None:
            # divide by 1 in a cell the form skips
            lhs = num if given is None else list(map(truediv, num, map(getitem, zip(repeat(1), given), live)))
            res = list(map(abs, map(sub, lhs, rhs)))
            bad, sides = map(gt, res, repeat(t)), (lhs, rhs, res)
        else:
            Ld, Rd = (D if given is None else given), (D if factor is None else DD)
            cross = map(abs, map(sub, map(mul, num, Rd), map(mul, rhs, Ld)))
            bad = map(gt, map(mul, cross, repeat(q)), map(mul, map(mul, repeat(p), Ld), Rd))
            sides = (num, Ld, rhs, Rd)
        columns.append((list(bad if live is None else map(and_, live, bad)), *sides))
    # each column in the order state, a, b, slot, and the failing checks' indices and values
    flat = lambda column: chain.from_iterable(zip(*column))
    bads, *sides = zip(*columns)
    bad = list(flat(bads)) if any(map(any, bads)) else []
    digit = lambda n, inner: cycle(chain.from_iterable(map(repeat, range(n), repeat(inner))))
    failing = [list(compress(digit(n, inner), bad))
               for n, inner in ((S, 16 * per), (na, 16 * nb), (nb, 16), (16, 1))]
    sides = [list(compress(flat(side), bad)) for side in sides]
    if D is None:
        return failing, sides
    lhs, rhs = (list(map(Fraction, n, d)) for n, d in (sides[:2], sides[2:]))
    return failing, [lhs, rhs, list(map(abs, map(sub, lhs, rhs)))]


def check_bell_locality(model: TheoryModel, tol: float | None = None) -> LocalityReport:
    """Audit every (state, a, b, A, B) cell for both locality forms.

    Reference marginals are taken against the first far setting in
    declaration order; far-setting dependence then surfaces as a violation
    on the cell that moved.  Conditioning on zero-probability far outcomes
    is skipped (the factorized form still covers those cells).  Each of
    the 16 checks of a cell is one pass over the kernel tensor's columns,
    on its integer form for an exact model, and violations come out in
    the order state, a, b, form.
    """
    t = require_valid(model, tol)
    failing, (lhs, rhs, resid) = _checks(model.tensor, t)
    ids = model.ensemble.state_ids(), model.scenario.alice_ids(), model.scenario.bob_ids()
    # every residual listed exceeds t >= 0, and max keeps the first of equals
    worst = max(compress(resid, map(_FACTORIZATION.__getitem__, failing[3])), default=Fraction(0))
    return LocalityReport(ids, failing, (lhs, rhs, resid), worst_residual=worst, tolerance=t)


class SignalDelta(NamedTuple):
    """Shift of one wing's observable marginal across a far-setting pair;
    equals and iterates as the plain tuple of its fields."""

    side: str
    outcome: int
    own_setting: str
    far_pair: tuple[str, str]
    delta: Prob

    def to_dict(self) -> dict:
        return {**self._asdict(), "far_pair": list(self.far_pair), "delta": format_probability(self.delta)}


class SignalReport(NamedTuple):
    """The signal audit's deltas; equals and iterates as the plain tuple of its fields."""

    deltas: tuple[SignalDelta, ...]
    tolerance: float

    @property
    def max_delta(self) -> Prob:
        return max((d.delta for d in self.deltas), default=Fraction(0))

    @property
    def signal_local(self) -> bool:
        return all(d.delta <= self.tolerance for d in self.deltas)

    @property
    def verdict(self) -> str:
        return "SignalLocal" if self.signal_local else "Signalling"

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "max_delta": format_probability(self.max_delta),
            "tolerance": self.tolerance,
            "deltas": [d.to_dict() for d in self.deltas],
        }


def signal_deltas(table: BehaviorTable, tol: float | None = None) -> SignalReport:
    """Signal audit of an already-computed behavior table, at the tolerance
    `resolve_tolerance` gives the table for `tol`."""
    t = resolve_tolerance(table, tol)

    def marginal(side: str, own: str, far: str, outcome: int) -> Prob:
        if side == "alice":
            return table.cell(own, far).marginal_a(outcome)
        return table.cell(far, own).marginal_b(outcome)

    deltas = tuple(
        SignalDelta(side, outcome, own, (far, later),
                    abs(marginal(side, own, far, outcome) - marginal(side, own, later, outcome)))
        for side, own, outcome, far, later in table.scenario.far_pairs()
    )
    return SignalReport(deltas=deltas, tolerance=t)


def check_signal_locality(model: TheoryModel, tol: float | None = None) -> SignalReport:
    """Marginalize the model to its behavior, then compare far-setting marginals."""
    t = require_valid(model, tol)
    return signal_deltas(behavior(model, t), t)


class AxisCheck(NamedTuple):
    """One state's same-outcome probabilities on one axis; equals and
    iterates as the plain tuple of its fields."""

    state_id: str
    a_id: str
    b_id: str
    same_plus: Prob
    same_minus: Prob
    ok: bool

    def to_dict(self) -> dict:
        return {
            "state": self.state_id,
            "a": self.a_id,
            "b": self.b_id,
            "p_plus_plus": format_probability(self.same_plus),
            "p_minus_minus": format_probability(self.same_minus),
            "ok": self.ok,
        }


class AntiCorrelationReport(NamedTuple):
    """The anti-correlation audit's checks; equals and iterates as the
    plain tuple of its fields."""

    axes_checked: tuple[tuple[str, str], ...]
    checks: tuple[AxisCheck, ...]
    tolerance: float

    @property
    def holds(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def verdict(self) -> str:
        return "AntiCorrelated" if self.holds else "NotAntiCorrelated"

    def offending(self) -> tuple[AxisCheck, ...]:
        return tuple(c for c in self.checks if not c.ok)

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "axes": [list(p) for p in self.axes_checked],
            "tolerance": self.tolerance,
            "checks": [c.to_dict() for c in self.checks],
        }


def check_anticorrelation(
    model: TheoryModel,
    equal_axis_pairs: list[tuple[str, str]] | None = None,
    tol: float | None = None,
) -> AntiCorrelationReport:
    """Require zero same-outcome probability on every declared equal axis.

    Weights are strictly positive, so the per-state requirement here is
    equivalent to the observable-level one.  With `equal_axis_pairs` omitted
    the axes are auto-detected from matching direction vectors.
    """
    t = require_valid(model, tol)
    equal_axis_pairs = equal_axes(model.scenario, equal_axis_pairs, "no equal-axis pairs: "
                                  "declare them explicitly or give both wings matching vectors")
    alice, bob = model.scenario.pair_indices(equal_axis_pairs)
    kt = model.tensor
    X, (_, na, nb), bound = kt.scaled[0], kt.shape, kt.at_most(t)
    checks = []
    for s, state in enumerate(model.ensemble.state_ids()):
        for (a_id, b_id), i, j in zip(equal_axis_pairs, alice, bob):
            pp, mm = X[0][(s * na + i) * nb + j], X[3][(s * na + i) * nb + j]
            checks.append(AxisCheck(state, a_id, b_id, kt.unscaled(pp, s), kt.unscaled(mm, s),
                                    pp <= bound[s] and mm <= bound[s]))
    return AntiCorrelationReport(axes_checked=tuple(equal_axis_pairs), checks=tuple(checks), tolerance=t)
