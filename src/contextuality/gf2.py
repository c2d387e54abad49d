"""GF(2) linear algebra on integer bitmask rows.

A vector of width w is an int whose bit i is coordinate i. Everything here
is exact and deterministic; pivots are chosen at the lowest set bit.
"""

from __future__ import annotations


def lowest_bit(x: int) -> int:
    return (x & -x).bit_length() - 1


def rref(rows: list[int]) -> tuple[list[int], list[int]]:
    """Reduced row echelon form.

    Returns (reduced nonzero rows sorted by pivot, pivot positions).
    Each pivot coordinate appears in exactly one row.
    """
    basis = AffineBasis(max(rows, default=0).bit_length())
    for r in rows:
        basis.add(r, 0)
    pivots = sorted(basis.rows)
    return [basis.rows[p][0] for p in pivots], pivots


def nullspace(rows: list[int], width: int) -> list[int]:
    """Basis of all v with even overlap against every row."""
    reduced, pivots = rref(rows)
    pivot_set = set(pivots)
    free = [i for i in range(width) if i not in pivot_set]
    basis = []
    for f in free:
        v = 1 << f
        for p, row in zip(pivots, reduced):
            if (row >> f) & 1:
                v |= 1 << p
        basis.append(v)
    return basis


class AffineBasis:
    """Incremental GF(2) affine system with combination tracking.

    Each inserted equation is (coefficients, constant). The basis remembers
    which input equations combine into each stored row, so an inconsistency
    surfaces as the exact subset of inputs summing to 0 = 1.
    """

    def __init__(self, width: int):
        self.width = width
        self.rows: dict[int, tuple[int, int, int]] = {}  # pivot -> (coef, const, combo)
        self.pivots = 0  # mask of the pivot coordinates
        self.count = 0
        self.conflict: int | None = None  # combo mask of first 0 = 1 derivation

    def reduce(self, coef: int, const: int = 0, combo: int = 0) -> tuple[int, int, int]:
        """Add the stored rows at coef's pivot bits: coef comes back 0 exactly
        when it is in the span, and combo then names the inputs summing to it."""
        # rows are fully reduced, so coef's pivot bits name the rows to apply
        hits = coef & self.pivots
        while hits:
            bc, bk, bm = self.rows[lowest_bit(hits)]
            coef ^= bc
            const ^= bk
            combo ^= bm
            hits &= hits - 1
        return coef, const, combo

    def add(self, coef: int, const: int) -> None:
        coef, const, combo = self.reduce(coef, const, 1 << self.count)
        self.count += 1
        if coef == 0:
            if const == 1 and self.conflict is None:
                self.conflict = combo
            return
        p = lowest_bit(coef)
        for q, (qc, qk, qm) in self.rows.items():
            if (qc >> p) & 1:
                self.rows[q] = (qc ^ coef, qk ^ const, qm ^ combo)
        self.rows[p] = (coef, const, combo)
        self.pivots |= 1 << p

    def solution(self) -> int | None:
        """A satisfying vector with free coordinates zero, or None."""
        if self.conflict is not None:
            return None
        sol = 0
        for p, (_, const, _) in self.rows.items():
            if const:
                sol |= 1 << p
        return sol
