"""GF(2) linear algebra on integer bitmask rows.

A vector of width w is an int whose bit i is coordinate i. Everything here
is exact and deterministic; pivots are chosen at the lowest set bit.
``AffineBasis`` is the one eliminator; only ``pauli._parity_rows`` keeps
its own, because a product's phase is not GF(2)-linear in its words.
"""

from __future__ import annotations


def lowest_bit(x: int) -> int:
    return (x & -x).bit_length() - 1


def nullspace(rows: list[int], width: int) -> list[int]:
    """Basis of all v with even overlap against every row."""
    system = AffineBasis()
    for r in rows:
        system.add(r, 0)
    reduced = system.echelon()
    basis = []
    for f in range(width):
        if system.pivots >> f & 1:
            continue
        v = 1 << f
        for row in reduced:
            if (row >> f) & 1:
                v |= row & -row
        basis.append(v)
    return basis


class AffineBasis:
    """Incremental GF(2) affine system with combination tracking.

    Each inserted equation is (coefficients, constant). The basis remembers
    which input equations combine into each stored row, so an inconsistency
    surfaces as the exact subset of inputs summing to 0 = 1.
    """

    def __init__(self):
        self.rows: dict[int, tuple[int, int, int]] = {}  # pivot -> (coef, const, combo)
        self.pivots = 0  # mask of the pivot coordinates
        self.held = 0  # the OR of every coef stored: no row outside it has a bit set
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
        # rows fed in reduced and in falling-pivot order skip this scan
        if (self.held >> p) & 1:
            for q, (qc, qk, qm) in self.rows.items():
                if (qc >> p) & 1:
                    self.rows[q] = (qc ^ coef, qk ^ const, qm ^ combo)
        self.rows[p] = (coef, const, combo)
        self.pivots |= 1 << p
        self.held |= coef

    def echelon(self) -> list[int]:
        """The stored coefs by ascending pivot: the unique reduced echelon basis."""
        return [self.rows[p][0] for p in sorted(self.rows)]

    def solution(self) -> int | None:
        """A satisfying vector with free coordinates zero, or None."""
        if self.conflict is not None:
            return None
        sol = 0
        for p, (_, const, _) in self.rows.items():
            if const:
                sol |= 1 << p
        return sol
