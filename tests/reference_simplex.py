"""Reference oracle: the exact phase-1 simplex over a Fraction tableau.

This is the membership simplex as bell_lab shipped it before integer
pivoting, kept verbatim so property tests can hold the integer tableau in
`bell_lab.harness` to the same Bland pivot path and the same results.
Nothing in the package calls it.
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
