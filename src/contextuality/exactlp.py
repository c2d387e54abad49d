"""Exact linear programming over rationals, tableau simplex with Bland's rule.

Small dense problems only. The tableau is integer-preserving (Edmonds;
Bareiss, Math. Comp. 22, 1968): rows of ``A`` are scaled to integers by
their own LCDs and ``b`` by a common one, and every entry is then an
integer over one common denominator ``D``, the current basis determinant.
Positive scaling keeps the ratio test and the signs of the reduced costs,
so Bland's rule (lowest eligible index for entering and leaving ties)
makes the same pivots, and reaches the same vertex, as a tableau of
fractions; it also guarantees termination under the degeneracy these
polytopes are full of. Fractions are built only for the result.

The tableau is compact, as in lrs (Avis): it holds ``[T | b]`` over the n
nonbasic columns only, with a list naming the variable in each column, and
never stores the m unit columns of the basis. A pivot swaps the entering
variable's column for the leaving one's, whose entries follow from the
pivot row alone. Bland's rule reads variable indices, not column
positions: the entering variable is the lowest-indexed nonbasic one with a
positive reduced cost, exactly the one the full tableau picks, since every
basic column there has reduced cost zero. So the pivots, the vertex and
``D`` are those of the full tableau, at half the row-update work when m
is about n.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence


def _integer_row(values: Sequence) -> tuple[list[int], int]:
    """values times their least common denominator, and that denominator."""
    if all(type(v) is int for v in values):  # incidence rows: nothing to scale
        return list(values), 1
    fracs = [v if type(v) is int else Fraction(v) for v in values]
    scale = lcm(*(f.denominator for f in fracs))
    return [f.numerator * (scale // f.denominator) for f in fracs], scale


def _integer_rows(lhs: Sequence[Sequence], rhs: Sequence) -> tuple[list[list[int]], list[int], int]:
    """Integer rows [A_i | b_i]: lhs row i times the LCD L_i of its entries,
    then every b_i times one common L. Returns the rows, the L_i and L;
    x at the vertex is then counted in units of 1/L."""
    rows, scales, bs = [], [], []
    for row, b in zip(lhs, rhs):
        scaled, scale = _integer_row(row)
        rows.append(scaled)
        scales.append(scale)
        bs.append(Fraction(b) * scale)
    common = lcm(*(b.denominator for b in bs))
    for row, b in zip(rows, bs):
        row.append(b.numerator * (common // b.denominator))
    return rows, scales, common


def _simplex(rows: list[list[int]], cost: list[int]) -> tuple[list[int], int]:
    """max cost.x over A x + s = b >= 0, x, s >= 0, from the slack basis.

    ``rows`` are integer ``[A_i | b_i]`` and ``cost`` the integer reduced
    costs of A's columns. Returns the vertex (x, s) times ``D``, and ``D``.
    Variable j < n is x_j and n + i is the slack of row i. The tableau
    carries only the n nonbasic columns; ``rows`` are updated in place.
    """
    m, n = len(rows), len(cost)
    nonbasic = list(range(n))
    basis = [n + i for i in range(m)]
    denom = 1
    while True:
        # Bland: the lowest variable index, not column position, enters
        enter, var = None, n + m
        for j, c in enumerate(cost):
            if c > 0 and nonbasic[j] < var:
                enter, var = j, nonbasic[j]
        if enter is None:
            break
        # least b_i / a_ie over a_ie > 0, compared by cross-multiplying
        leave = None
        for i, row in enumerate(rows):
            a = row[enter]
            if a > 0:
                if leave is not None:
                    lo, hi = row[-1] * best_a, best_b * a
                    if lo > hi or (lo == hi and basis[i] > basis[leave]):
                        continue
                leave, best_a, best_b = i, a, row[-1]
        if leave is None:
            raise ArithmeticError("objective unbounded")
        # the pivot row keeps its entries and its pivot is the new D; each
        # entry is D times the rational tableau's, an entry of adj(B)[A | I | b],
        # so every // below is exact. Column ``enter`` then holds the leaving
        # variable: D in the pivot row, -f in every other row.
        prow = rows[leave]
        p = prow[enter]
        for i, row in enumerate(rows):
            f = row[enter]
            if f and i != leave:
                row = rows[i] = [(p * a - f * b) // denom for a, b in zip(row, prow)]
                row[enter] = -f
            elif not f and p != denom:
                rows[i] = [p * a // denom for a in row]
        f = cost[enter]
        cost = [(p * a - f * b) // denom for a, b in zip(cost, prow)]
        cost[enter] = -f
        prow[enter] = denom
        nonbasic[enter], basis[leave] = basis[leave], var
        denom = p
    values = [0] * (n + m)
    for row, var in zip(rows, basis):
        values[var] = row[-1]
    return values, denom


def maximize(cost: Sequence, lhs: Sequence[Sequence], rhs: Sequence) -> tuple[Fraction, list[Fraction]]:
    """max cost.x subject to lhs x <= rhs, x >= 0; rhs must be nonnegative.

    Returns the exact optimum and an optimal vertex.
    """
    rows, _, unit = _integer_rows(lhs, rhs)
    if any(row[-1] < 0 for row in rows):
        raise ValueError("nonnegative right-hand side required")
    c, scale = _integer_row(cost)
    values, denom = _simplex(rows, c)
    x = values[:len(c)]
    value = Fraction(sum(cj * xj for cj, xj in zip(c, x)), scale * denom * unit)
    return value, [Fraction(v, denom * unit) for v in x]


def feasible_equalities(lhs: Sequence[Sequence], rhs: Sequence) -> list[Fraction] | None:
    """Find x >= 0 with lhs x = rhs, or None; phase-one simplex."""
    rows, scales, unit = _integer_rows(lhs, rhs)
    rows = [[-v for v in row] if row[-1] < 0 else row for row in rows]
    n = len(rows[0]) - 1 if rows else 0
    # maximizing -sum(artificials), column j's reduced cost is the column
    # sum of the sign-corrected A; here times the LCD of the row scales
    common = lcm(*scales)
    weights = [common // s for s in scales]
    cost = [sum(w * row[j] for w, row in zip(weights, rows)) for j in range(n)]
    values, denom = _simplex(rows, cost)
    if any(values[n:]):
        return None
    return [Fraction(v, denom * unit) for v in values[:n]]
