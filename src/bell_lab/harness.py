"""Bell tests on behavior tables: CHSH, the three-axis inequality, and
exact local-polytope membership.

Conventions, stated once and printed in reports:

* Correlator: E(a, b) = P(+,+) - P(+,-) - P(-,+) + P(-,-).
* CHSH: `model.CHSH_CONVENTION`, S = E(a,b) + E(a,b') + E(a',b) -
  E(a',b'), for named roles (a, a', b, b'), evaluated by `model`'s one
  signed form (`CHSH_SIGNS`), which the Monte Carlo estimate shares.  Its
  local bound is computed from the form's coefficients, never assumed.
* Tolerance: `model.resolve_tolerance`, the rule models follow too: an
  explicit `tol`, else 0 for an exact table and 1e-9 for a decimal one.
* Three-axis inequality over axes (1, 2, 3), each a `model.Axis`, an
  (alice_id, bob_id) pair that `model.resolve_axes` resolves from names:
  |E(1,2) - E(1,3)| <= 1 + E(2,3), valid for
  local models that are perfectly anti-correlated on each axis; the
  anti-correlation precondition is enforced before evaluating.

Membership in the local polytope is decided by exact rational feasibility
over the enumerated deterministic strategies: floats are converted to
Fractions exactly and scaled by one common denominator to integers, and a
revised phase-1 simplex with Bland's rule, which stores only the integer
(Edmonds-Bareiss) block [det * B^-1 | basic values] and prices each
strategy's 0/1 column on demand from its support, either returns convex
weights (inside) or a separating affine functional read off the simplex
multipliers (outside).  Both kinds of certificate are checked exactly
before they are returned: the weights must rebuild every cell; the
functional, affine or a CHSH facet (tried first on two-setting scenarios,
so it is recognizable), must exceed its maximum over the deterministic
strategies, which the best-response oracle `_local_max` computes, as it
computes every local bound here.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from operator import itemgetter
from typing import NamedTuple

from .model import (
    Axis,
    BehaviorTable,
    BellLabError,
    CHSH_CONVENTION,
    CHSH_SIGNS,
    EnumerationLimitError,
    JOINT_OUTCOMES,
    Prob,
    Scenario,
    _chsh_form,
    axis_pairs,
    format_probability,
    resolve_tolerance,
)

_MAX_SETTINGS_PER_SIDE = 4


class ScenarioShapeError(BellLabError):
    """The scenario does not have the setting counts this test needs."""


class AntiCorrelationPreconditionError(BellLabError):
    """The three-axis inequality was asked of a behavior that is not
    perfectly anti-correlated on its axes; use chsh for such behaviors."""


def correlator(table: BehaviorTable, a_id: str, b_id: str) -> Prob:
    """E(a, b) = P(+,+) - P(+,-) - P(-,+) + P(-,-)."""
    dist = table.cell(a_id, b_id)
    return dist.pp - dist.pm - dist.mp + dist.mm


class DeterministicStrategy(NamedTuple):
    """One local deterministic response: a fixed sign per setting per wing;
    equals and iterates as the plain tuple of its fields."""

    alice: tuple[tuple[str, int], ...]
    bob: tuple[tuple[str, int], ...]

    @property
    def alice_map(self) -> dict[str, int]:
        return dict(self.alice)

    @property
    def bob_map(self) -> dict[str, int]:
        return dict(self.bob)

    def label(self) -> str:
        fmt = lambda pairs: ",".join(f"{sid}:{'+' if v > 0 else '-'}" for sid, v in pairs)
        return f"A[{fmt(self.alice)}] B[{fmt(self.bob)}]"


def enumerate_strategies(scenario: Scenario) -> list[DeterministicStrategy]:
    """All 2^(na) * 2^(nb) deterministic strategies, in a fixed order."""
    na, nb = len(scenario.alice_settings), len(scenario.bob_settings)
    if na > _MAX_SETTINGS_PER_SIDE or nb > _MAX_SETTINGS_PER_SIDE:
        raise EnumerationLimitError(
            f"enumeration limit: {na}x{nb} settings exceeds "
            f"{_MAX_SETTINGS_PER_SIDE} per side"
        )
    a_ids, b_ids = scenario.alice_ids(), scenario.bob_ids()
    return [DeterministicStrategy(alice=tuple(zip(a_ids, a_signs)), bob=tuple(zip(b_ids, b_signs)))
            for a_signs in itertools.product((+1, -1), repeat=na)
            for b_signs in itertools.product((+1, -1), repeat=nb)]


def _local_max(coeffs: dict[tuple[str, str, int, int], int]) -> int:
    """Exact max of sum c[a,b,A,B] * P(A,B|a,b) over the deterministic strategies, by best
    response: for each sign map of the Alice settings named, each named Bob setting takes its best sign."""
    a_ids = list(dict.fromkeys(a for a, *_ in coeffs))
    b_ids = dict.fromkeys(b for _, b, *_ in coeffs)
    best = lambda signs, b: max(sum(coeffs.get((a, b, A, B), 0) for a, A in zip(a_ids, signs)) for B in (+1, -1))
    return max(sum(best(signs, b) for b in b_ids) for signs in itertools.product((+1, -1), repeat=len(a_ids)))


def _chsh_coefficients(signs: tuple[int, int, int, int], pairs: list[Axis]) -> dict[tuple[str, str, int, int], int]:
    """A signed CHSH form's cell coefficients s * A * B, its signs summed where its pairs repeat."""
    totals = {pair: sum(s for s, p in zip(signs, pairs) if p == pair) for pair in pairs}
    return {(a, b, A, B): A * B * s for (a, b), s in totals.items() for A, B in JOINT_OUTCOMES}


@functools.cache
def _chsh_bound(signs: tuple[int, int, int, int], same_a: bool, same_b: bool) -> Fraction:
    """`_local_max` of a signed CHSH form, cached by what it depends on:
    its signs and which roles coincide (a = a', b = b'), not the ids."""
    a2, b2 = "a" if same_a else "a'", "b" if same_b else "b'"
    pairs = [("a", "b"), ("a", b2), (a2, "b"), (a2, b2)]
    return Fraction(_local_max(_chsh_coefficients(signs, pairs)))


#: The bound of |E(1,2) - E(1,3)| - E(2,3): its max over the 8
#: anti-correlated sign patterns, E(i, j) = -s_i s_j, brute-forced once at
#: import (Bell 1964)
_BELL1964_BOUND = max(abs(s1 * s3 - s1 * s2) + s2 * s3
                      for s1, s2, s3 in itertools.product((+1, -1), repeat=3))


class CHSHResult(NamedTuple):
    """CHSH evaluation under the fixed convention, with its local bound;
    equals and iterates as the plain tuple of its fields."""

    roles: tuple[str, str, str, str]
    correlators: dict[tuple[str, str], Prob]
    chsh_value: Prob
    local_bound: Prob
    violated: bool
    tolerance: float
    convention: str = CHSH_CONVENTION

    def to_dict(self) -> dict:
        return {**self._asdict(), "roles": dict(zip(("a", "a_prime", "b", "b_prime"), self.roles)),
                "correlators": {f"{k[0]}|{k[1]}": format_probability(v) for k, v in self.correlators.items()},
                "chsh_value": format_probability(self.chsh_value),
                "local_bound": format_probability(self.local_bound)}


def chsh(
    table: BehaviorTable,
    a: str,
    a_prime: str,
    b: str,
    b_prime: str,
    tol: float | None = None,
) -> CHSHResult:
    """Evaluate S for the given roles and compare against the local bound.

    The bound is S's maximum over the deterministic strategies, from
    `_local_max` through `_chsh_bound`'s cache; flipping Alice's signs
    negates S, so it bounds |S|.
    """
    t = resolve_tolerance(table, tol)
    pairs = [(a, b), (a, b_prime), (a_prime, b), (a_prime, b_prime)]
    corr = {pair: correlator(table, *pair) for pair in pairs}
    value = _chsh_form(CHSH_SIGNS, lambda x, y: corr[(x, y)], a, a_prime, b, b_prime)
    bound = _chsh_bound(CHSH_SIGNS, a == a_prime, b == b_prime)
    return CHSHResult(
        roles=(a, a_prime, b, b_prime),
        correlators=corr,
        chsh_value=value,
        local_bound=bound,
        violated=abs(value) - bound > t,
        tolerance=t,
    )


class Bell1964Result(NamedTuple):
    """|E(1,2) - E(1,3)| <= 1 + E(2,3) over three anti-correlated axes;
    equals and iterates as the plain tuple of its fields."""

    axes: tuple[Axis, Axis, Axis]
    correlators: dict[str, Prob]
    lhs: Prob
    rhs: Prob
    satisfied: bool
    tolerance: float

    @property
    def violated(self) -> bool:
        return not self.satisfied

    def to_dict(self) -> dict:
        return {**self._asdict(), "axes": [list(axis) for axis in self.axes],
                "correlators": {k: format_probability(v) for k, v in self.correlators.items()},
                "lhs": format_probability(self.lhs), "rhs": format_probability(self.rhs)}


def bell1964(
    table: BehaviorTable, axes: tuple[Axis, Axis, Axis], tol: float | None = None
) -> Bell1964Result:
    """Evaluate the three-axis inequality; axes are (alice_id, bob_id) pairs.

    Precondition: the behavior is perfectly anti-correlated on each axis
    (same-outcome probability within tolerance of 0 on the diagonal cells).
    Without that the inequality does not apply and chsh is the right test.
    """
    if len(axis_pairs(axes)) != 3:
        raise ScenarioShapeError(f"three axes required, got {len(axes)}")
    t = resolve_tolerance(table, tol)
    for a_id, b_id in axes:
        dist = table.cell(a_id, b_id)
        if dist.pp > t or dist.mm > t:
            raise AntiCorrelationPreconditionError(
                f"axis ({a_id}, {b_id}) is not perfectly anti-correlated "
                f"(P(+,+)={float(dist.pp)!r}, P(-,-)={float(dist.mm)!r}); "
                "this inequality requires it - use chsh for general behaviors"
            )
    ax1, ax2, ax3 = axes
    e12 = correlator(table, ax1[0], ax2[1])
    e13 = correlator(table, ax1[0], ax3[1])
    e23 = correlator(table, ax2[0], ax3[1])
    lhs = abs(e12 - e13)
    rhs = _BELL1964_BOUND + e23
    # compare the difference to t: rhs + t would coerce exact rationals to float
    return Bell1964Result(
        axes=(ax1, ax2, ax3),
        correlators={"E(1,2)": e12, "E(1,3)": e13, "E(2,3)": e23},
        lhs=lhs,
        rhs=rhs,
        satisfied=lhs - rhs <= t,
        tolerance=t,
    )


# ---------------------------------------------------------------------------
# Local-polytope membership via exact phase-1 simplex


class SeparatingFunctional(NamedTuple):
    """Affine functional with f(v) <= bound on every deterministic strategy
    but f(behavior) = value > bound; equals and iterates as the plain
    tuple of its fields."""

    kind: str
    description: str
    coefficients: dict[tuple[str, str, int, int], Prob]
    bound: Prob
    value: Prob

    @property
    def margin(self) -> Prob:
        return self.value - self.bound

    def to_dict(self) -> dict:
        return {**self._asdict(), "bound": format_probability(self.bound),
                "value": format_probability(self.value), "margin": format_probability(self.margin),
                "coefficients": {f"{a}|{b}|{'+' if A > 0 else '-'}{'+' if B > 0 else '-'}": format_probability(c)
                                 for (a, b, A, B), c in self.coefficients.items()}}


class MembershipCertificate(NamedTuple):
    """Verdict plus evidence: convex weights inside, a functional outside;
    equals and iterates as the plain tuple of its fields."""

    inside: bool
    weights: dict[DeterministicStrategy, Prob] | None
    functional: SeparatingFunctional | None
    residual: Prob
    tolerance: float

    def to_dict(self) -> dict:
        out: dict = {
            "inside": self.inside,
            "residual": format_probability(self.residual),
            "tolerance": self.tolerance,
        }
        if self.weights is not None:
            out["weights"] = {s.label(): format_probability(w) for s, w in self.weights.items()}
        if self.functional is not None:
            out["functional"] = self.functional.to_dict()
        return out


def _phase1_simplex(
    supports: list[tuple[int, ...]], rhs: list[int]
) -> tuple[list[int], list[int] | None, int]:
    """Exact feasibility of {Vw = rhs, w >= 0} for integer rhs >= 0 and a
    0/1 matrix V whose column j holds its 1s in the rows supports[j].

    A revised simplex on the full tableau's pivot path.  It stores the
    block [det * B^-1 | basic values] and the phase-1 objective over the
    artificials and rhs: integers whose true values are entry / det, det
    being the last pivot (1 at the start).  Column j's reduced cost is
    priced when needed, -sum(det - obj[i] for i in supports[j]), in index
    order up to the first negative one (Bland's entering rule); the
    entering column sums the block's columns on its support.  A pivot on p
    keeps its row and maps every other entry x to
    (x*p - column[i]*prow[k]) // det (Edmonds-Bareiss), exact because each
    entry is a minor of the starting matrix.  det stays positive, so signs
    read the same and ratios compare by cross-multiplying: Bland's rule
    keeps the pivoting finite despite the degeneracy of redundant
    probability rows.

    Returns (w, y, det).  w / det is the final basic solution on the
    structural columns.  y is None when the system is feasible (w / det
    then solves it); otherwise y / det is a Farkas vector:
    y . column_j <= 0 for every j but y . rhs > 0.
    """
    m, n = len(rhs), len(supports)
    # itemgetter gives a bare item for one index, so a short support reads a slice
    picks = [itemgetter(*s) if len(s) > 1 else itemgetter(slice(s[0], s[0] + 1) if s else slice(0))
             for s in supports]
    block = [[int(k == i) for k in range(m)] + [rhs[i]] for i in range(m)]
    basis = [n + i for i in range(m)]
    # phase-1 reduced costs (cost 1 on the artificials), priced out; the
    # row pivots like the others, so it shares their divisor
    obj = [0] * m + [-sum(rhs)]
    det = 1

    while True:
        # det times the simplex multipliers; the rhs entry is never picked
        dual = [det - x for x in obj]
        enter = next((j for j, pick in enumerate(picks) if sum(pick(dual)) > 0), None)
        if enter is not None:
            pick = picks[enter]
            factor = -sum(pick(dual))
            column = [sum(pick(row)) for row in block]
        else:
            enter = next((n + k for k in range(m) if obj[k] < 0), None)
            if enter is None:
                break
            factor = obj[enter - n]
            column = [row[enter - n] for row in block]
        leave = None
        for i in range(m):
            coeff = column[i]
            if coeff > 0:
                if leave is None:
                    leave = i
                    continue
                # ratio_i < ratio_leave, both coefficients positive
                here = block[i][-1] * column[leave]
                best = block[leave][-1] * coeff
                if here < best or (here == best and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            raise BellLabError("phase-1 objective unbounded; this cannot happen")
        prow = block[leave]
        pivot = column[leave]
        for i in range(m):
            if i != leave:
                block[i] = _eliminate(block[i], prow, column[i], pivot, det)
        obj = _eliminate(obj, prow, factor, pivot, det)
        det = pivot
        basis[leave] = enter

    w = [0] * n
    for i, var in enumerate(basis):
        if var < n:
            w[var] = block[i][-1]
    if obj[-1] == 0:
        return w, None, det
    return w, dual[:m], det


def _eliminate(row: list[int], prow: list[int], factor: int, pivot: int, det: int) -> list[int]:
    """One non-pivot row after an integer-preserving pivot; `factor` is
    its entry in the entering column."""
    if factor == 0:
        if pivot == det:
            return row
        return [x * pivot // det for x in row]
    return [(x * pivot - factor * y) // det for x, y in zip(row, prow)]


def _chsh_facet_certificate(table: BehaviorTable, t: float) -> SeparatingFunctional | None:
    """Search the eight CHSH sign variants of a 2x2 scenario for one the
    behavior exceeds, bounded by `_chsh_bound`, and recompute that one's
    value exactly from its coefficients and the cells before returning it."""
    roles = table.scenario.default_chsh_roles()
    if roles is None:
        return None
    a, a2, b, b2 = roles
    pairs = [(a, b), (a, b2), (a2, b), (a2, b2)]
    corrs = {pair: correlator(table, *pair) for pair in pairs}
    for signs in itertools.product((+1, -1), repeat=4):
        if signs[0] * signs[1] * signs[2] * signs[3] != -1:
            continue
        value = _chsh_form(signs, lambda x, y: corrs[(x, y)], a, a2, b, b2)
        bound = _chsh_bound(signs, a == a2, b == b2)
        if value > bound + t:
            coeffs = _chsh_coefficients(signs, pairs)
            if not sum(c * Fraction(table.cell(x, y).prob(A, B)) for (x, y, A, B), c in coeffs.items()) - bound > t:
                raise BellLabError("facet certificate failed verification; facet search bug")
            terms = " ".join(f"{'+' if s > 0 else '-'}E({p[0]},{p[1]})" for s, p in zip(signs, pairs))
            return SeparatingFunctional(
                kind="chsh",
                description=f"{terms} <= {bound} for every local behavior",
                coefficients={key: Fraction(c) for key, c in coeffs.items()},
                bound=bound,
                value=value,
            )
    return None


def local_polytope_membership(
    table: BehaviorTable, tol: float | None = None
) -> MembershipCertificate:
    """Decide membership in the convex hull of deterministic strategies.

    All arithmetic is exact: decimal behaviors are converted digit-for-bit
    to Fractions, scaled by one common denominator to integers, and the
    phase-1 infeasibility (the `residual`) is compared against the
    tolerance (0 for exact tables, else 1e-9).  Both kinds of certificate
    are checked exactly before they are returned.
    """
    scenario = table.scenario
    t = resolve_tolerance(table, tol)
    strategies = enumerate_strategies(scenario)

    row_keys = [(a_id, b_id, A, B) for a_id, b_id in scenario.pairs() for A, B in JOINT_OUTCOMES]
    # a strategy's column: its joint outcome's row per pair, then normalization
    row = {key: i for i, key in enumerate(row_keys)}
    supports = [(*(row[a, b, A, B] for a, A in strat.alice for b, B in strat.bob), len(row_keys))
                for strat in strategies]
    probs = [Fraction(table.cell(a, b).prob(A, B)) for (a, b, A, B) in row_keys] + [Fraction(1)]
    scale = math.lcm(*(p.denominator for p in probs))
    rhs = [p.numerator * (scale // p.denominator) for p in probs]

    # true weights are w / (det * scale), true multipliers y / det
    w, y, det = _phase1_simplex(supports, rhs)
    denom = det * scale
    # phase-1 optimum: the artificial mass left in the basis, which doubles
    # as an infeasibility residual when y is a Farkas certificate
    residual_num = 0 if y is None else sum(y_i * r for y_i, r in zip(y, rhs))
    residual = Fraction(residual_num, denom)
    if y is None or residual <= t:
        # the basic solution misses each row by that row's artificial,
        # so by at most the residual (exactly nothing when feasible)
        used = {j: w_j for j, w_j in enumerate(w) if w_j != 0}
        rebuilt = [0] * len(rhs)
        for j, w_j in used.items():
            for i in supports[j]:
                rebuilt[i] += w_j
        misses = (abs(x - r * det) for x, r in zip(rebuilt, rhs))
        if min(used.values(), default=0) < 0 or max(misses) > residual_num:
            raise BellLabError("inside certificate failed verification; simplex bug")
        weights = {strategies[j]: Fraction(w_j, denom) for j, w_j in used.items()}
        return MembershipCertificate(inside=True, weights=weights, functional=None, residual=residual, tolerance=t)

    # y . rhs > t holds here; y must also be <= 0 at every vertex, whose
    # best value is the cells' best response plus the normalization's y[-1]
    cells = {key: y_i for key, y_i in zip(row_keys, y) if y_i != 0}
    if (bound := _local_max(cells)) + y[-1] > 0:
        raise BellLabError("outside certificate failed verification; simplex bug")

    facet = _chsh_facet_certificate(table, t)
    if facet is not None:
        return MembershipCertificate(inside=False, weights=None, functional=facet, residual=residual, tolerance=t)

    # fold the normalization-row multiplier into the bound so the reported
    # functional reads off cell probabilities only
    functional = SeparatingFunctional(
        kind="affine",
        description="affine separating functional from phase-1 simplex multipliers",
        coefficients={key: Fraction(y_i, det) for key, y_i in cells.items()},
        bound=Fraction(bound, det),
        value=residual - Fraction(y[-1], det),
    )
    return MembershipCertificate(
        inside=False, weights=None, functional=functional, residual=residual, tolerance=t
    )


class BellTestResult(NamedTuple):
    """Aggregate of the harness tests actually run on one behavior; equals
    and iterates as the plain tuple of its fields."""

    correlators: dict[tuple[str, str], Prob]
    chsh: CHSHResult | None
    bell1964: Bell1964Result | None
    membership: MembershipCertificate | None

    def to_dict(self) -> dict:
        return {
            "correlators": {f"{k[0]}|{k[1]}": format_probability(v) for k, v in self.correlators.items()},
            "chsh": self.chsh.to_dict() if self.chsh else None,
            "bell1964": self.bell1964.to_dict() if self.bell1964 else None,
            "membership": self.membership.to_dict() if self.membership else None,
        }


def all_correlators(table: BehaviorTable) -> dict[tuple[str, str], Prob]:
    return {pair: correlator(table, *pair) for pair in table.scenario.pairs()}
