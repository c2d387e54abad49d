import random

from contextuality.gf2 import AffineBasis, lowest_bit, nullspace, rref


def brute_span(rows, width):
    """Every GF(2) combination of the rows, as a set of bitmasks."""
    out = {0}
    for r in rows:
        out |= {v ^ r for v in out}
    return out


def test_lowest_bit():
    assert lowest_bit(1) == 0
    assert lowest_bit(8) == 3
    assert lowest_bit(0b1010100) == 2


def test_rref_small():
    rows, pivots = rref([0b110, 0b011, 0b101])
    # rank 2: the three rows sum to zero
    assert len(rows) == 2
    assert len(pivots) == 2
    # reduced form: each pivot appears in exactly one row
    for p in pivots:
        assert sum((r >> p) & 1 for r in rows) == 1


def test_rref_preserves_span():
    rng = random.Random(3)
    for _ in range(50):
        width = rng.randrange(1, 9)
        rows = [rng.randrange(1 << width) for _ in range(rng.randrange(0, 6))]
        reduced, pivots = rref(rows)
        assert brute_span(reduced, width) == brute_span(rows, width)
        assert len(reduced) == len(pivots)
        assert 0 not in reduced


def test_nullspace_kernel_property():
    rng = random.Random(4)
    for _ in range(50):
        width = rng.randrange(1, 8)
        rows = [rng.randrange(1 << width) for _ in range(rng.randrange(0, 5))]
        basis = nullspace(rows, width)
        # every basis vector annihilates every row
        for v in basis:
            for r in rows:
                assert bin(r & v).count("1") % 2 == 0
        # dimension check: rank + nullity = width
        rank = len(rref(rows)[0])
        assert len(basis) == width - rank
        # basis vectors are independent
        assert len(brute_span(basis, width)) == 1 << len(basis)


def test_in_span():
    basis = AffineBasis(3)
    basis.add(0b110, 0)
    basis.add(0b011, 0)
    assert basis.reduce(0b101) == (0, 0, 0b11)
    assert basis.reduce(0) == (0, 0, 0)
    assert basis.reduce(0b100)[0] != 0


def reference_rref(rows):
    """Gauss-Jordan on a dict of pivot -> row, without combinations."""
    basis = {}
    for r in rows:
        for p, b in basis.items():
            if (r >> p) & 1:
                r ^= b
        if r:
            p = lowest_bit(r)
            for q in list(basis):
                if (basis[q] >> p) & 1:
                    basis[q] ^= r
            basis[p] = r
    pivots = sorted(basis)
    return [basis[p] for p in pivots], pivots


def test_rref_matches_reference_elimination():
    # a reduced echelon basis is unique, so any elimination gives these rows
    rng = random.Random(6)
    for _ in range(300):
        width = rng.randrange(1, 12)
        rows = [rng.randrange(1 << width) for _ in range(rng.randrange(0, 16))]
        assert rref(rows) == reference_rref(rows)


def test_affine_basis_consistent_system():
    sys_ = AffineBasis(3)
    sys_.add(0b011, 1)  # x0 + x1 = 1
    sys_.add(0b110, 0)  # x1 + x2 = 0
    assert sys_.conflict is None
    sol = sys_.solution()
    assert ((sol >> 0) ^ (sol >> 1)) & 1 == 1
    assert ((sol >> 1) ^ (sol >> 2)) & 1 == 0


def test_affine_basis_conflict_combination():
    sys_ = AffineBasis(2)
    sys_.add(0b01, 0)
    sys_.add(0b10, 1)
    sys_.add(0b11, 0)  # contradicts the sum of the first two
    assert sys_.conflict == 0b111


def test_affine_basis_random_against_brute_force():
    rng = random.Random(5)
    for _ in range(80):
        width = rng.randrange(1, 6)
        eqs = [(rng.randrange(1 << width), rng.randrange(2))
               for _ in range(rng.randrange(1, 7))]
        sys_ = AffineBasis(width)
        for coef, const in eqs:
            sys_.add(coef, const)
        brute = [x for x in range(1 << width)
                 if all(bin(x & c).count("1") % 2 == k for c, k in eqs)]
        if brute:
            assert sys_.conflict is None
            sol = sys_.solution()
            assert sol in brute
        else:
            assert sys_.conflict is not None
            # the flagged subset of equations really sums to 0 = 1
            coef = 0
            const = 0
            for i, (c, k) in enumerate(eqs):
                if (sys_.conflict >> i) & 1:
                    coef ^= c
                    const ^= k
            assert coef == 0 and const == 1
