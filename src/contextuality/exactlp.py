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

Pivots are chosen on Python ints, and the row update is one whole-array
step: ``[T | b]`` over the cost row is one 2-D numpy array, and a pivot
computes ``(p T - f prow) // D`` and puts the pivot row back, the same
formulas as a row-by-row update, so every ``//`` stays exact. The array is
int64 while every |entry| is below 2^31, which keeps ``p a - f b`` below
2^63. An upper bound on the entries follows each pivot; once it reaches
2^31 the entries are measured, and if they reach it the array holds Python
ints (``dtype=object``) from then on, so nothing wraps around. Only the
integers of ``_integer_rows`` enter the array, and it is read through
``tolist``, so every value that leaves is a Python int.

On the 64x64 three-party X/Y LP this is about 3x faster than updating
lists of Python ints row by row, and about 10x on the 256x256 four-party
one. On the small LPs of 3-qubit scans, of 4 and 8 pivots, numpy's cost
per call makes it about 20 us per LP slower (Python 3.11.7, numpy 2.4.6,
a 2-vCPU Xeon).

``maximize`` is the one entry to the simplex. ``feasible_equalities`` is
phase one posed as a ``maximize`` LP; the package no longer calls it, and
it stays because the benchmark's tracer wraps it by name.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

import numpy as np

# while every |entry| is below 2^31, p * a - f * b stays below 2^63
_INT64_SAFE = 1 << 31


def _integer_row(values: Sequence) -> tuple[list[int], int]:
    """values times their least common denominator, and that denominator,
    as Python ints even where a value is a numpy integer."""
    if all(type(v) is int for v in values):  # incidence rows: nothing to scale
        return list(values), 1
    fracs = [(int(f.numerator), int(f.denominator)) for f in map(Fraction, values)]
    scale = lcm(*(den for _, den in fracs))
    return [num * (scale // den) for num, den in fracs], scale


def _integer_rows(lhs: Sequence[Sequence], rhs: Sequence) -> tuple[list[list[int]], int]:
    """Integer rows [A_i | b_i]: lhs row i times the LCD L_i of its entries,
    then every b_i times one common L. Returns the rows and L; x at the
    vertex is then counted in units of 1/L."""
    rows, bs = [], []
    for row, b in zip(lhs, rhs):
        scaled, scale = _integer_row(row)
        rows.append(scaled)
        b = b if type(b) in (int, Fraction) else Fraction(b)
        # b * scale in lowest terms, as num / den, without a Fraction product;
        # int() turns a numpy integer's numerator into a Python int
        g = gcd(b.denominator, scale)
        bs.append((int(b.numerator) * (scale // g), int(b.denominator) // g))
    common = lcm(*(den for _, den in bs))
    for row, (num, den) in zip(rows, bs):
        row.append(num * (common // den))
    return rows, common


def _simplex(rows: list[list[int]], cost: list[int]) -> tuple[list[int], int]:
    """max cost.x over A x + s = b >= 0, x, s >= 0, from the slack basis.

    ``rows`` are integer ``[A_i | b_i]`` and ``cost`` the integer reduced
    costs of A's columns. Returns the vertex (x, s) times ``D``, and ``D``,
    all Python ints. Variable j < n is x_j and n + i is the slack of row i.
    The tableau carries only the n nonbasic columns, with the cost row last.
    """
    m, n = len(rows), len(cost)
    table = rows + [cost + [0]]
    try:
        table = np.array(table, dtype=np.int64)
    except OverflowError:  # an entry beyond int64 already
        table = np.array(table, dtype=object)
    bound = _INT64_SAFE  # so the entries are measured before the first pivot
    nonbasic = list(range(n))
    basis = [n + i for i in range(m)]
    denom = 1
    while True:
        # Bland: the lowest variable index, not column position, enters
        enter, var = None, n + m
        for j, c in enumerate(table[-1, :-1].tolist()):
            if c > 0 and nonbasic[j] < var:
                enter, var = j, nonbasic[j]
        if enter is None:
            break
        # least b_i / a_ie over a_ie > 0, compared by cross-multiplying
        column, rhs = table[:, enter].tolist(), table[:-1, -1].tolist()
        leave = None
        for i, (a, b) in enumerate(zip(column, rhs)):
            if a > 0:
                if leave is not None:
                    lo, hi = b * best_a, best_b * a
                    if lo > hi or (lo == hi and basis[i] > basis[leave]):
                        continue
                leave, best_a, best_b = i, a, b
        if leave is None:
            raise ArithmeticError("objective unbounded")
        # int64 keeps p a - f b exact while every |entry| is below 2^31;
        # ``bound`` is at least every |entry|, and from 2^31 up they are
        # measured, the table becoming Python ints if they reach it
        if bound >= _INT64_SAFE and table.dtype != object:
            bound = max(int(table.max()), -int(table.min()))
            if bound >= _INT64_SAFE:
                table = table.astype(object)
        # (p a - f b) // D on every row at once, a row with f = 0 becoming
        # p a // D; the pivot row keeps its entries and its pivot is the new
        # D. Each entry is D times the rational tableau's, an entry of
        # adj(B)[A | I | b], so every // is exact. Column ``enter`` then
        # holds the leaving variable: D in the pivot row, -f elsewhere.
        prow, f = table[leave], table[:, enter]
        new = (table * best_a if best_a != 1 else table) - f[:, None] * prow
        if denom != 1:
            new //= denom
        new[leave] = prow
        new[:, enter] = -f
        new[leave, enter] = denom
        table = new
        # new entries are at most bound (p + max |f|) // D, old D, or old ones
        bound = max(bound, denom, bound * (best_a + max(map(abs, column))) // denom)
        nonbasic[enter], basis[leave] = basis[leave], var
        denom = best_a
    values = [0] * (n + m)
    for var, b in zip(basis, table[:-1, -1].tolist()):
        values[var] = b
    return values, denom


def maximize(cost: Sequence, lhs: Sequence[Sequence], rhs: Sequence) -> tuple[Fraction, list[Fraction]]:
    """max cost.x subject to lhs x <= rhs, x >= 0; rhs must be nonnegative.

    Returns the exact optimum and an optimal vertex.
    """
    rows, unit = _integer_rows(lhs, rhs)
    if any(row[-1] < 0 for row in rows):
        raise ValueError("nonnegative right-hand side required")
    c, scale = _integer_row(cost)
    values, denom = _simplex(rows, c)
    x = values[:len(c)]
    value = Fraction(sum(cj * xj for cj, xj in zip(c, x)), scale * denom * unit)
    return value, [Fraction(v, denom * unit) for v in x]


def feasible_equalities(lhs: Sequence[Sequence], rhs: Sequence) -> list[Fraction] | None:
    """Find x >= 0 with lhs x = rhs, or None: phase one as a ``maximize`` LP.

    With rows signed so that rhs >= 0, max sum_i (lhs x)_i subject to
    lhs x <= rhs reaches sum(rhs) exactly when the equalities hold. The
    costs are a positive multiple of phase one's, so Bland's rule makes the
    same pivots to the same vertex."""
    flip = [Fraction(b) < 0 for b in rhs]
    rows = [[-Fraction(v) for v in row] if f else row for f, row in zip(flip, lhs)]
    rhs = [abs(Fraction(b)) for b in rhs]
    value, x = maximize([sum(map(Fraction, col)) for col in zip(*rows)], rows, rhs)
    return x if value == sum(rhs) else None
