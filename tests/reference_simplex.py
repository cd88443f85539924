"""Reference oracles: the exact phase-1 simplex over a full tableau.

`_phase1_simplex` is the membership simplex as bell_lab shipped it before
integer pivoting, over a Fraction tableau.  `_integer_phase1_simplex` is
the integer-preserving (Edmonds-Bareiss) full tableau that followed it,
over dense 0/1 columns, before membership moved to the revised simplex.
Both are kept verbatim so property tests can hold the revised simplex in
`bell_lab.harness` to the same Bland pivot path and the same results.
Nothing in the package calls them.
"""

from __future__ import annotations

from fractions import Fraction

from bell_lab.model import BellLabError


def _phase1_simplex(
    columns: list[list[Fraction]], rhs: list[Fraction]
) -> tuple[bool, list[Fraction]]:
    """Exact feasibility of {Vw = rhs, w >= 0} with rhs >= 0.

    Returns (True, w) on feasibility or (False, y) with a Farkas vector:
    y . column_j <= 0 for every j but y . rhs > 0.  Bland's rule keeps the
    pivoting finite despite the degeneracy of redundant probability rows.
    """
    m, n = len(rhs), len(columns)
    width = n + m + 1
    tableau = []
    for i in range(m):
        row = [columns[j][i] for j in range(n)]
        row += [Fraction(1) if k == i else Fraction(0) for k in range(m)]
        row.append(rhs[i])
        tableau.append(row)
    basis = [n + i for i in range(m)]
    # reduced costs for phase-1 objective (cost 1 on artificials), priced out
    obj = [Fraction(0)] * width
    for j in range(width):
        col_sum = sum(tableau[i][j] for i in range(m))
        cost = Fraction(1) if n <= j < n + m else Fraction(0)
        obj[j] = cost - col_sum
    obj[-1] = -sum(rhs)

    while True:
        enter = next((j for j in range(n + m) if obj[j] < 0), None)
        if enter is None:
            break
        leave, best_ratio = None, None
        for i in range(m):
            coeff = tableau[i][enter]
            if coeff > 0:
                ratio = tableau[i][-1] / coeff
                if best_ratio is None or ratio < best_ratio or (
                    ratio == best_ratio and basis[i] < basis[leave]
                ):
                    leave, best_ratio = i, ratio
        if leave is None:
            raise BellLabError("phase-1 objective unbounded; this cannot happen")
        pivot = tableau[leave][enter]
        tableau[leave] = [x / pivot for x in tableau[leave]]
        for i in range(m):
            if i != leave and tableau[i][enter] != 0:
                factor = tableau[i][enter]
                tableau[i] = [x - factor * y for x, y in zip(tableau[i], tableau[leave])]
        if obj[enter] != 0:
            factor = obj[enter]
            obj = [x - factor * y for x, y in zip(obj, tableau[leave])]
        basis[leave] = enter

    infeasibility = -obj[-1]
    if infeasibility == 0:
        w = [Fraction(0)] * n
        for i, var in enumerate(basis):
            if var < n:
                w[var] = tableau[i][-1]
        return True, w
    y = [Fraction(1) - obj[n + i] for i in range(m)]
    return False, y


def _integer_phase1_simplex(
    columns: list[list[int]], rhs: list[int]
) -> tuple[list[int], list[int] | None, int]:
    """Exact feasibility of {Vw = rhs, w >= 0} for integer V and rhs >= 0.

    Integer-preserving (Edmonds-Bareiss) pivoting: the tableau holds
    integers whose true values are entry / det, det being the last pivot
    (1 at the start).  A pivot on p = T[r][s] keeps row r and maps every
    other entry x to (x*p - T[i][s]*T[r][j]) // det, a division that is
    always exact because each entry is a minor of the starting matrix.
    det stays positive, so signs read the same and ratios compare by
    cross-multiplying: Bland's rule walks the pivot path of the rational
    tableau and keeps it finite despite the degeneracy of redundant
    probability rows.

    Returns (w, y, det).  w / det is the final basic solution on the
    structural columns.  y is None when the system is feasible (w / det
    then solves it); otherwise y / det is a Farkas vector:
    y . column_j <= 0 for every j but y . rhs > 0.
    """
    m, n = len(rhs), len(columns)
    tableau = []
    for i in range(m):
        row = [col[i] for col in columns]
        row += [1 if k == i else 0 for k in range(m)]
        row.append(rhs[i])
        tableau.append(row)
    basis = [n + i for i in range(m)]
    # reduced costs for phase-1 objective (cost 1 on artificials), priced
    # out; the row pivots like the others, so it shares their divisor
    obj = [-sum(col) for col in columns] + [0] * m + [-sum(rhs)]
    det = 1

    while True:
        enter = next((j for j in range(n + m) if obj[j] < 0), None)
        if enter is None:
            break
        leave = None
        for i in range(m):
            coeff = tableau[i][enter]
            if coeff > 0:
                if leave is None:
                    leave = i
                    continue
                # ratio_i < ratio_leave, both coefficients positive
                here = tableau[i][-1] * tableau[leave][enter]
                best = tableau[leave][-1] * coeff
                if here < best or (here == best and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            raise BellLabError("phase-1 objective unbounded; this cannot happen")
        prow = tableau[leave]
        pivot = prow[enter]
        for i in range(m):
            if i != leave:
                tableau[i] = _eliminate(tableau[i], prow, enter, pivot, det)
        obj = _eliminate(obj, prow, enter, pivot, det)
        det = pivot
        basis[leave] = enter

    w = [0] * n
    for i, var in enumerate(basis):
        if var < n:
            w[var] = tableau[i][-1]
    if obj[-1] == 0:
        return w, None, det
    return w, [det - obj[n + i] for i in range(m)], det


def _eliminate(row: list[int], prow: list[int], enter: int, pivot: int, det: int) -> list[int]:
    """One non-pivot row after an integer-preserving pivot."""
    factor = row[enter]
    if factor == 0:
        if pivot == det:
            return row
        return [x * pivot // det for x in row]
    return [(x * pivot - factor * y) // det for x, y in zip(row, prow)]
