import functools
import json
import random
import sys
import tracemalloc
from itertools import combinations, product
from operator import attrgetter

import numpy as np
import pytest

from contextuality import (
    ClosureLimitError,
    DeterminingTree,
    LinearEquation,
    LinearTheory,
    ParseError,
    PauliOperator,
    PatternTestResult,
    PauliSet,
    ValidationError,
    identity,
    is_consistent,
    is_state_independent_avn,
    kl_pattern_test,
    kl_witness,
    measurement_cover,
    partial_closure,
    pattern_key,
    scenario_of,
    state_independent_theory,
    validate_scenario,
)
from contextuality import cli, gf2, pauli
from contextuality.pauli import (
    CLOSURE_LIMIT,
    GRAPH_CLASS_NAMES,
    PATTERN_TABLE,
    _EDGE_ORDER,
    _PERMS4,
    _closure_with_derivations,
    _cover,
    _intransitive,
    _kl_generators,
    _max_cliques,
    _mul,
    _neighbors,
    _operator,
    _parity_rows,
    _replay_dsets,
    _swap,
    _vertices,
    _word,
)
from contextuality.corpus import mermin_square_set, mermin_star_set, xz222_set
from contextuality.scan import _positive_paulis
from contextuality.scenario import Context, MeasurementScenario

I2 = np.eye(2, dtype=complex)
MX = np.array([[0, 1], [1, 0]], dtype=complex)
MY = np.array([[0, -1j], [1j, 0]], dtype=complex)
MZ = np.array([[1, 0], [0, -1]], dtype=complex)
KRON = {"I": I2, "X": MX, "Y": MY, "Z": MZ}
SIGNS = {"": 1, "i": 1j, "-": -1, "-i": -1j}


def dense(op):
    """Rebuild the matrix from the string form, independent of to_matrix."""
    text = str(op)
    for pre in ("-i", "-", "i", ""):
        if text.startswith(pre) and all(ch in "IXYZ" for ch in text[len(pre):]):
            m = np.array([[SIGNS[pre]]], dtype=complex)
            for ch in text[len(pre):]:
                m = np.kron(m, KRON[ch])
            return m
    raise AssertionError(text)


def positive_two_qubit_paulis(include_identity=True):
    ops = []
    for x in range(4):
        for z in range(4):
            phase = bin(x & z).count("1") % 4
            ops.append(PauliOperator(2, phase, x, z))
    ops = [p for p in ops if p.sign_exponent() == 0]
    if not include_identity:
        ops = [p for p in ops if not p.is_identity_like()]
    return ops


def test_from_string_round_trip():
    for text in ("XX", "-YY", "iXZ", "-iZI", "II", "XYZ"):
        op = PauliOperator.from_string(text)
        assert str(op) == text
    with pytest.raises(ParseError):
        PauliOperator.from_string("XQ")
    with pytest.raises(ParseError):
        PauliOperator.from_string("")
    with pytest.raises(ParseError):
        PauliOperator.from_string("--XX")


def test_hermiticity_and_identity_predicates():
    assert PauliOperator.from_string("XY").is_hermitian()
    assert not PauliOperator.from_string("iXY").is_hermitian()
    assert PauliOperator.from_string("-II").is_identity_like()
    assert not PauliOperator.from_string("-II").is_identity()
    assert identity(3).is_identity()


def test_multiply_and_commute_against_dense_oracle():
    ops = positive_two_qubit_paulis()
    assert len(ops) == 16
    pairs = 0
    for a, b in product(ops, ops):
        ma, mb = dense(a), dense(b)
        assert np.allclose(dense(a * b), ma @ mb)
        assert a.commutes(b) == np.allclose(ma @ mb, mb @ ma)
        pairs += 1
    assert pairs == 256


def test_known_products():
    xx = PauliOperator.from_string("XX")
    zz = PauliOperator.from_string("ZZ")
    yy = PauliOperator.from_string("YY")
    assert str(xx * zz) == "-YY"
    assert str(zz * xx) == "-YY"
    assert xx * yy == PauliOperator.from_string("-ZZ")
    assert (xx * xx).is_identity()
    x, y = PauliOperator.from_string("X"), PauliOperator.from_string("Y")
    assert str(x * y) == "iZ"
    assert str(y * x) == "-iZ"


def test_to_matrix_qubit_order():
    # qubit 0 is the leftmost letter, the most significant index bit
    xi = PauliOperator.from_string("XI").to_matrix()
    assert np.allclose(xi, np.kron(MX, I2))


def test_pauli_set_canonicalization():
    # canonical member order is (phase, x bits, z bits), so ZZ sorts first
    s = PauliSet.from_strings(["ZZ", "XX", "ZZ"])
    assert s.labels() == ("ZZ", "XX")
    with pytest.raises(ValidationError):
        PauliSet.from_strings(["iXX"])
    with pytest.raises(ValidationError):
        PauliSet.from_strings(["X", "XX"])


def test_mermin_square_cover():
    s = mermin_square_set()
    assert len(s) == 9
    cover = measurement_cover(s)
    covered = {m for c in cover for m in c.members}
    assert sorted(covered) == sorted(s.labels())
    assert len(cover) == 6
    assert all(len(c) == 3 for c in cover)
    sc = scenario_of(s)
    assert validate_scenario(sc) == []


def test_cover_excludes_identity_like():
    s = PauliSet.from_strings(["II", "XX", "ZZ"])
    cover = measurement_cover(s)
    assert all("II" not in c.members for c in cover)


def test_partial_closure_xz222():
    closed = partial_closure(xz222_set())
    labels = sorted(str(p) for p in closed.members)
    expected = sorted(
        [p for base in ("II", "ZI", "IZ", "ZZ", "XI", "XZ", "IX", "ZX", "XX", "YY")
         for p in (base, "-" + base)])
    assert labels == expected


def test_partial_closure_is_idempotent_and_deterministic():
    closed = partial_closure(mermin_square_set())
    again = partial_closure(closed)
    assert closed == again
    assert closed == partial_closure(mermin_square_set())
    assert len(partial_closure(mermin_star_set()).members) == 72


def test_closure_cap():
    labels = []
    for i in range(7):
        labels.append("".join("X" if j == i else "I" for j in range(7)))
        labels.append("".join("Z" if j == i else "I" for j in range(7)))
    with pytest.raises(ClosureLimitError):
        partial_closure(PauliSet.from_strings(labels))
    assert CLOSURE_LIMIT == 4096


def test_state_independent_theory_square():
    t = state_independent_theory(mermin_square_set())
    rendered = sorted(e.render() for e in t.equations)
    assert rendered == [
        "s(IX) + s(XI) + s(XX) = 0",
        "s(IX) + s(ZI) + s(ZX) = 0",
        "s(IZ) + s(XI) + s(XZ) = 0",
        "s(IZ) + s(ZI) + s(ZZ) = 0",
        "s(XX) + s(YY) + s(ZZ) = 1",
        "s(XZ) + s(YY) + s(ZX) = 0",
    ]
    res = is_consistent(t)
    assert not res.consistent
    assert sum(e.constant for e in res.certificate) % 2 == 1


def test_si_avn_verdicts():
    assert is_state_independent_avn(mermin_square_set())
    assert is_state_independent_avn(mermin_square_set(), in_closure=True)
    assert not is_state_independent_avn(xz222_set())
    assert is_state_independent_avn(xz222_set(), in_closure=True)
    assert not is_state_independent_avn(mermin_star_set())
    assert is_state_independent_avn(mermin_star_set(), in_closure=True)


def brute_force_ks_contextual(closed):
    """No multiplicative eigenvalue assignment exists over the closure.

    Assignments fix the positive members, extend by g(-P) = 1 + g(P), and
    must satisfy g(ab) = g(a) + g(b) for every commuting pair.
    """
    members = list(closed.members)
    # one free bit per sign orbit; a closure may hold -P without +P
    orbits = sorted({p if p.sign_exponent() == 0 else p.negate()
                     for p in members if not p.is_identity_like()}, key=str)
    assert len(orbits) <= 13
    member_set = set(members)
    pairs = [(a, b) for i, a in enumerate(members) for b in members[i:]
             if a.commutes(b) and (a * b) in member_set]

    def value(g, p):
        if p.sign_exponent() == 0:
            return 0 if p.is_identity() else g[p]
        return 1 - (0 if p.negate().is_identity() else g[p.negate()])

    for bits in product((0, 1), repeat=len(orbits)):
        g = dict(zip(orbits, bits))
        ok = all((value(g, a) + value(g, b)) % 2 == value(g, a * b) % 2
                 for a, b in pairs)
        if ok:
            return False
    return True


def test_brute_force_matches_closure_decision():
    # KS-type contextuality decided by brute force equals si-AvN in closure
    for s in (xz222_set(), mermin_square_set(),
              PauliSet.from_strings(["XX", "ZZ"]),
              PauliSet.from_strings(["XI", "IX", "XX"]),
              PauliSet.from_strings(["XX", "YY", "ZZ"])):
        closed = partial_closure(s)
        assert brute_force_ks_contextual(closed) == is_state_independent_avn(
            s, in_closure=True)


def test_pattern_key_and_classes():
    assert pattern_key([PauliOperator.from_string(t)
                        for t in ("ZI", "IZ", "XI", "IX")]) == "four-cycle"
    assert pattern_key([PauliOperator.from_string(t)
                        for t in ("XI", "IX", "XX", "ZZ")]) == "triangle-plus-pendant"
    assert set(PATTERN_TABLE) == set(GRAPH_CLASS_NAMES.values())
    with pytest.raises(ValidationError):
        pattern_key([PauliOperator.from_string("XX")])


def test_pattern_table_against_direct_decision_sampled():
    rng = random.Random(31)
    pool = positive_two_qubit_paulis(include_identity=False)
    for _ in range(60):
        subset = tuple(sorted(rng.sample(pool, 4), key=str))
        direct = is_state_independent_avn(PauliSet(2, subset), in_closure=True)
        assert PATTERN_TABLE[pattern_key(subset)] == direct


def test_pattern_table_is_the_rule_on_one_graph_per_class():
    derived = {}
    for code, name in GRAPH_CLASS_NAMES.items():
        neighbors = [0] * 4
        for bit, (i, j) in enumerate(_EDGE_ORDER):
            if code >> bit & 1:
                neighbors[i] |= 1 << j
                neighbors[j] |= 1 << i
        relabeled = [sum(1 << bit for bit, (i, j) in enumerate(_EDGE_ORDER)
                         if neighbors[perm[i]] >> perm[j] & 1) for perm in _PERMS4]
        assert min(relabeled) == code  # the representative is the class's canonical code
        derived[name] = _intransitive(neighbors, 0b1111)
    assert derived == PATTERN_TABLE


def test_kl_witness_on_corpus_sets():
    for s, expect in ((mermin_square_set(), True), (xz222_set(), True),
                      (mermin_star_set(), True),
                      (PauliSet.from_strings(["XX", "ZZ"]), False)):
        w = kl_witness(s)
        assert (w is not None) == expect
        if w is not None:
            pos, neg = w
            assert neg.operator == pos.operator.negate()
            assert pos.determining_set() == neg.determining_set()
            closed = partial_closure(s)
            pos.validate(closed)
            neg.validate(closed)


def test_kl_witness_implies_closure_avn_sampled():
    rng = random.Random(32)
    pool = positive_two_qubit_paulis(include_identity=False)
    for _ in range(40):
        subset = PauliSet(2, tuple(rng.sample(pool, 4)))
        w = kl_witness(subset)
        if w is not None:
            assert is_state_independent_avn(subset, in_closure=True)


def test_kl_pattern_test_results():
    r = kl_pattern_test(mermin_square_set())
    assert r.avn and bool(r)
    assert r.pattern == "four-cycle"
    assert [str(p) for p in r.subset] == ["ZI", "IZ", "XI", "IX"]
    r2 = kl_pattern_test(PauliSet.from_strings(["XX", "ZZ", "YY"]))
    assert not r2.avn and r2.subset is None


def test_determining_tree_validate_rejects_foreign_leaves():
    s = xz222_set()
    tree, _ = kl_witness(s)
    tree.validate(partial_closure(s))
    assert all(leaf in s.members for leaf in tree.leaves())
    with pytest.raises(ValidationError):
        tree.validate(PauliSet.from_strings(["XI", "IX"]))


# ---------------------------------------------- references for the word kernel

def random_operator(rng, n, hermitian=False):
    x, z = rng.randrange(1 << n), rng.randrange(1 << n)
    phase = (x & z).bit_count() + 2 * rng.randrange(2) if hermitian else rng.randrange(4)
    return PauliOperator(n, phase, x, z)


def random_pauli_set(rng):
    """5-8 Hermitian words on 1-4 qubits, some signed, some contradictory."""
    n = rng.randint(1, 4)
    ops = {random_operator(rng, n, hermitian=True) for _ in range(rng.randint(5, 8))}
    if rng.random() < 0.3:
        ops.add(next(iter(ops)).negate())
    return PauliSet(n, ops)


def reference_closure(s):
    """The closure loop on PauliOperator objects, first derivation kept."""
    key = attrgetter("phase", "x", "z")
    ident = identity(s.num_qubits)
    deriv = {op: None for op in s.members}
    if ident not in deriv:
        deriv[ident] = (s.members[0],) * 2 if s.members else None
    frontier = sorted(deriv, key=key)
    while frontier:
        added = {}
        for a in sorted(deriv, key=key):
            for b in frontier:
                if a != b and a.commutes(b) and a * b not in deriv and a * b not in added:
                    added[a * b] = (a, b)
        deriv.update(added)
        frontier = sorted(added, key=key)
    return sorted(deriv, key=key), deriv


def reference_kl_witness(s):
    """kl_witness on objects: replay D-sets, defect basis, gadget trees."""
    elements, deriv = reference_closure(s)
    index = {op: i for i, op in enumerate(s.members)}
    dsets, memo = {}, {}

    def dset(x):
        if x not in dsets:
            dsets[x] = (1 << index[x] if x in index else 0 if deriv[x] is None
                        else dset(deriv[x][0]) ^ dset(deriv[x][1]))
        return dsets[x]

    def tree(x):
        if x not in memo:
            memo[x] = (DeterminingTree(x) if x in index
                       else DeterminingTree(x, (tree(deriv[x][0]), tree(deriv[x][1]))))
        return memo[x]

    gens = [(dset(a) ^ dset(b) ^ dset(a * b), (a, b))
            for i, a in enumerate(elements) for b in elements[i + 1:] if a.commutes(b)]
    gens = [g for g in gens if g[0]]
    basis = {}
    for gi, (g, _) in enumerate(gens):
        combo = 1 << gi
        for p, (bm, bc) in basis.items():
            if g >> p & 1:
                g, combo = g ^ bm, combo ^ bc
        if g:
            basis[(g & -g).bit_length() - 1] = (g, combo)
    for x in elements:
        neg = x.negate()
        if neg not in deriv or (neg.phase, neg.x, neg.z) < (x.phase, x.x, x.z):
            continue
        target, combo = dset(x) ^ dset(neg), 0
        for p, (bm, bc) in basis.items():
            if target >> p & 1:
                target, combo = target ^ bm, combo ^ bc
        if target:
            continue
        tree_neg = tree(neg)
        for gi, (_, (a, b)) in enumerate(gens):
            if combo >> gi & 1:
                gadget = DeterminingTree(identity(s.num_qubits), (
                    DeterminingTree(a * b, (tree(a), tree(b))), tree(a * b)))
                tree_neg = DeterminingTree(neg, (tree_neg, gadget))
        return tree(x), tree_neg
    return None


def test_word_kernel_against_matrices():
    rng = random.Random(41)
    for n in (1, 2, 3):
        for _ in range(60):
            a, b = random_operator(rng, n), random_operator(rng, n)
            ma, mb = a.to_matrix(), b.to_matrix()
            assert np.allclose((a * b).to_matrix(), ma @ mb)
            product = _operator(_mul(_word(a), _word(b), n), n)
            assert product == a * b
            assert np.allclose(product.to_matrix(), ma @ mb)
            commute = np.allclose(ma @ mb, mb @ ma)
            assert a.commutes(b) == commute
            assert (not (_word(a) & _swap(_word(b), n)).bit_count() & 1) == commute
            assert _operator(_word(a), n) == a
            assert (_word(a) < _word(b)) == ((a.phase, a.x, a.z) < (b.phase, b.x, b.z))


def reference_max_cliques(neighbors):
    """Plain pivoting Bron-Kerbosch on bitsets, vertex classes merged: the
    search before the subspace rules, kept as the cover's reference."""
    classes = {}
    for v, nbr in enumerate(neighbors):
        closed = nbr | 1 << v
        classes[closed] = classes.get(closed, 0) | 1 << v
    widen = {c & -c: c for c in classes.values()}
    out = []

    def expand(r, p, x):
        if not p:
            if not x:
                out.append(sum(widen[bit] for bit in widen if r & bit))
            return
        pivot, best, rest = 0, -1, p | x
        while rest:
            v = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            count = (neighbors[v] & p).bit_count()
            if count > best:
                pivot, best = v, count
        todo = p & ~neighbors[pivot]
        while todo:
            bit = todo & -todo
            todo ^= bit
            nbr = neighbors[bit.bit_length() - 1]
            expand(r | bit, p & nbr, x & nbr)
            p ^= bit
            x |= bit

    expand(0, sum(widen), 0)
    return out


def brute_force_max_cliques(neighbors):
    k = len(neighbors)

    def is_clique(m):
        return all((neighbors[v] | 1 << v) & m == m for v in range(k) if m >> v & 1)

    return [m for m in range(1, 1 << k) if is_clique(m) and not any(
        neighbors[v] & m == m for v in range(k) if not m >> v & 1)]


def test_max_cliques_against_brute_force():
    """Product-free words (independent over GF(2)) never trigger the subspace
    rules, so arbitrary graphs check the pivoting core."""
    rng = random.Random(42)
    for _ in range(150):
        k = rng.randint(1, 12)
        density = rng.choice((0.2, 0.5, 0.8, 1.0))
        neighbors = [0] * k
        for i in range(k):
            for j in range(i + 1, k):
                if rng.random() < density:
                    neighbors[i] |= 1 << j
                    neighbors[j] |= 1 << i
        found = _max_cliques(neighbors, [1 << i for i in range(k)], k)
        assert len(found) == len(set(found))
        assert sorted(found) == brute_force_max_cliques(neighbors)


def test_max_cliques_on_pauli_graphs_against_brute_force():
    """Commutation graphs of signed sets, bare and closed, where the subspace
    rules fire: x with -x, +-I dropped as vertices, 1-4 qubits."""
    rng = random.Random(48)
    checked = {False: 0, True: 0}
    for _ in range(400):
        base = random_theory_set(rng, max_qubits=rng.choice((2, 4)))
        closed = rng.random() < 0.5
        s = partial_closure(base) if closed else base
        words, _ = _vertices(s)
        if not words or len(words) > 12:
            continue
        neighbors = _neighbors(words, s.num_qubits)
        found = _max_cliques(neighbors, words, s.num_qubits)
        assert len(found) == len(set(found))
        assert sorted(found) == brute_force_max_cliques(neighbors), s.labels()
        checked[closed] += 1
    assert min(checked.values()) > 100


@functools.cache
def closure_mix_sets():
    """48 closures of 5-8 positive words on 3 or 4 qubits, 16 in each of the
    member ranges 32-40, 41-96 and 97-144."""
    rng = random.Random(49)
    out = []
    for low, high in ((32, 40), (41, 96), (97, 144)) * 16:
        while True:
            n = rng.choice((3, 4))
            words = rng.sample(_positive_paulis(n), rng.randint(5, 8))
            try:
                closed = partial_closure(PauliSet(n, words))
            except ClosureLimitError:
                continue
            if low <= len(closed) <= high:
                out.append(closed)
                break
    return out


def test_max_cliques_on_closures_against_reference():
    """Equal to the reference on closures. Each branch adds a word outside
    span(R), and commuting words span at most n dimensions, so the search is
    at most n deep; a branch whose coset meets X is skipped, and a branch
    that leaves no candidates records its clique without a call, so few
    calls find no clique."""
    calls = cliques = 0
    for s in closure_mix_sets():
        words, _ = _vertices(s)
        neighbors = _neighbors(words, s.num_qubits)
        state = {"calls": 0, "depth": 0, "deepest": 0}

        def profile(frame, event, arg):
            if frame.f_code.co_name == "expand" and event in ("call", "return"):
                state["depth"] += 1 if event == "call" else -1
                state["calls"] += event == "call"
                state["deepest"] = max(state["deepest"], state["depth"])

        sys.setprofile(profile)
        try:
            found = _max_cliques(neighbors, words, s.num_qubits)
        finally:
            sys.setprofile(None)
        assert len(found) == len(set(found))
        assert sorted(found) == sorted(reference_max_cliques(neighbors)), s.labels()
        assert state["deepest"] <= s.num_qubits  # the root call holds R empty
        calls += state["calls"]
        cliques += len(found)
    assert calls <= 2 * cliques  # 2,458 for 2,115 cliques; reference_max_cliques makes 22,416


def test_parity_rows_are_the_rows_the_theory_keeps():
    """The reverse pass emits each context's reduced rows in the order
    LinearTheory's reduction keeps them."""
    contexts = 0
    for s in closure_mix_sets():
        theory = state_independent_theory(s)
        cover = _cover(*_vertices(s), s.num_qubits)
        assert [ctx for ctx, _ in cover] == list(theory.scenario.contexts)
        for (ctx, words), kept in zip(cover, theory.rows):
            rows = _parity_rows(words, s.num_qubits)
            assert rows == LinearTheory.from_rows(
                MeasurementScenario(ctx.members, [ctx]), [rows]).rows[0]
            assert rows == kept
            contexts += 1
    assert contexts > 2000


def test_closure_and_witness_against_object_reference():
    rng = random.Random(43)
    witnesses = 0
    for _ in range(40):
        s = random_pauli_set(rng)
        n = s.num_qubits
        words, deriv = _closure_with_derivations(s)
        ref_elements, ref_deriv = reference_closure(s)
        assert [_operator(w, n) for w in words] == ref_elements
        assert list(partial_closure(s)) == ref_elements
        as_ops = {_operator(w, n): None if d is None else tuple(_operator(v, n) for v in d)
                  for w, d in deriv.items()}
        assert as_ops == ref_deriv
        witness = kl_witness(s)
        assert witness == reference_kl_witness(s)
        witnesses += witness is not None
    assert 0 < witnesses < 40


def test_kl_pattern_test_against_reference_closure():
    rng = random.Random(44)
    verdicts = set()
    for _ in range(12):
        s = random_pauli_set(rng)
        expected = PatternTestResult(False, None, None)
        for subset in combinations(s.members, 4):
            closed = PauliSet(s.num_qubits, reference_closure(PauliSet(s.num_qubits, subset))[0])
            if not is_consistent(state_independent_theory(closed)).consistent:
                expected = PatternTestResult(True, subset, pattern_key(subset))
                break
        assert kl_pattern_test(s) == expected
        verdicts.add(expected.avn)
    assert verdicts == {False, True}


# The scalar pair loops that the array kernel replaced, kept as references.

def reference_closure_loop(s):
    """The word closure as one scalar loop over element x frontier pairs."""
    n = s.num_qubits
    deriv = {_word(op): None for op in s.members}
    if 0 not in deriv:
        deriv[0] = (_word(s.members[0]),) * 2 if s.members else None
    frontier = sorted(deriv)
    elements = set(deriv)
    while frontier:
        added = {}
        for a in sorted(elements):
            for b in frontier:
                if a == b or (_swap(a, n) & b).bit_count() & 1:
                    continue
                prod = _mul(a, b, n)
                if prod not in elements and prod not in added:
                    added[prod] = (a, b)
        deriv.update(added)
        elements.update(added)
        frontier = sorted(added)
    return sorted(elements), deriv


def reference_neighbors(words, n):
    """Commuting neighbour masks by one symplectic product per pair."""
    neighbors = [0] * len(words)
    for i, a in enumerate(words):
        for j in range(i + 1, len(words)):
            if not (a & _swap(words[j], n)).bit_count() & 1:
                neighbors[i] |= 1 << j
                neighbors[j] |= 1 << i
    return neighbors


def reference_kl_generators(elements, dsets, n):
    """Every commuting pair a < b with a nonzero defect, in pair order."""
    out = []
    for i, a in enumerate(elements):
        for b in elements[i + 1:]:
            if not (_swap(a, n) & b).bit_count() & 1:
                g = dsets[a] ^ dsets[b] ^ dsets[_mul(a, b, n)]
                if g:
                    out.append((g, (a, b)))
    return out


def reference_replay_dsets(s, elements, deriv):
    """Determining set of each replay tree by a recursive walk of the derivations."""
    index = {_word(op): i for i, op in enumerate(s.members)}
    dsets = {}

    def mask_of(x):
        if x in dsets:
            return dsets[x]
        if x in index:
            m = 1 << index[x]
        else:
            parents = deriv[x]
            m = 0 if parents is None else mask_of(parents[0]) ^ mask_of(parents[1])
        dsets[x] = m
        return m

    for w in elements:
        mask_of(w)
    return dsets


def kernel_test_sets():
    """Seeded sets on 1-5 qubits with signed and identity-like members, sets
    on 31, 33 and 70 qubits, whose words pass 62 bits, and a closure of 72
    members, whose D-sets pass 62 bits."""
    rng = random.Random(47)
    for _ in range(60):
        n = rng.randint(1, 5)
        ops = {random_operator(rng, n, hermitian=True) for _ in range(rng.randint(1, 8))}
        if rng.random() < 0.4:
            ops.add(next(iter(ops)).negate())
        if rng.random() < 0.3:
            ops.add(PauliOperator(n, rng.choice((0, 2)), 0, 0))
        yield PauliSet(n, ops)
    for n in (31, 33, 70):
        for _ in range(4):
            # sparse words, so that many pairs commute
            ops = set()
            for _ in range(rng.randint(4, 7)):
                x = sum(1 << rng.randrange(n) for _ in range(3))
                z = sum(1 << rng.randrange(n) for _ in range(3))
                ops.add(PauliOperator(n, (x & z).bit_count() + 2 * rng.randrange(2), x, z))
            yield PauliSet(n, ops)
    yield partial_closure(mermin_star_set())


def test_pair_kernel_against_scalar_loops(monkeypatch):
    witnesses = sizes = 0
    for s in kernel_test_sets():
        n = s.num_qubits
        ref_elements, ref_deriv = reference_closure_loop(s)
        ref_witness = reference_kl_witness(s)
        words, _ = _vertices(s)
        assert _neighbors(words, n) == reference_neighbors(words, n)
        assert _neighbors(ref_elements, n) == reference_neighbors(ref_elements, n)
        dsets = reference_replay_dsets(s, ref_elements, ref_deriv)
        assert _replay_dsets(s, ref_deriv) == dsets
        first = {}
        for g, pair in reference_kl_generators(ref_elements, dsets, n):
            first.setdefault(g, pair)
        # the default block, and blocks of one or a few rows
        for block in (1 << 16, 37):
            monkeypatch.setattr(pauli, "_BLOCK", block)
            elements, deriv = _closure_with_derivations(s)
            assert elements == ref_elements
            assert list(deriv.items()) == list(ref_deriv.items())
            assert all(type(w) is int for w in elements)
            generators = _kl_generators(elements, dsets, n, len(s.members))
            assert generators == list(first.items())
            assert all(type(g) is int and type(a) is int for g, (a, b) in generators)
            assert kl_witness(s) == ref_witness
        witnesses += ref_witness is not None
        sizes = max(sizes, len(ref_elements))
    assert witnesses > 5 and sizes > 200


def test_closure_cap_stays_in_bounded_blocks():
    labels = ["".join("X" if j == i else "I" for j in range(7)) for i in range(7)]
    labels += ["".join("Z" if j == i else "I" for j in range(7)) for i in range(7)]
    s = PauliSet.from_strings(labels)
    tracemalloc.start()
    try:
        with pytest.raises(ClosureLimitError, match="exceeds 4096 members"):
            _closure_with_derivations(s)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20


def reference_span_combo(generators, target):
    """kl_witness's former elimination: each generator reduced by the rows
    stored before it, with no back-substitution, then the target. Returns
    the combination over generator indices that sums to the target, or None
    when the target is outside the span."""
    basis = {}  # pivot -> (mask, combination over generators)
    for gi, g in enumerate(generators):
        combo = 1 << gi
        for p, (bm, bc) in basis.items():
            if (g >> p) & 1:
                g, combo = g ^ bm, combo ^ bc
        if g:
            basis[gf2.lowest_bit(g)] = (g, combo)
    combo = 0
    for p, (bm, bc) in basis.items():
        if (target >> p) & 1:
            target, combo = target ^ bm, combo ^ bc
    return combo if target == 0 else None


def test_affine_basis_gives_the_kl_combination():
    # both eliminations store the generators outside the span of the earlier
    # ones, so a target's combination over them is unique: the same gadgets
    rng = random.Random(83)
    seen = {"in": 0, "out": 0, "dependent": 0}
    for _ in range(500):
        width = rng.randrange(1, 11)
        # a random subspace, so that some generators and targets fall outside
        span = [rng.randrange(1, 1 << width) for _ in range(rng.randrange(1, width + 1))]
        gens = []
        for _ in range(rng.randrange(1, 201)):
            g = 0
            for v in span:
                g ^= v if rng.random() < 0.5 else 0
            gens.append(g or span[0])
        basis = gf2.AffineBasis(width)
        for g in gens:
            basis.add(g, 0)
        seen["dependent"] += len(basis.rows) < len(gens)
        targets = [rng.randrange(1 << width) for _ in range(3)]
        targets.append(0)
        for g in gens:
            targets[-1] ^= g if rng.random() < 0.5 else 0
        for target in targets:
            expected = reference_span_combo(gens, target)
            rest, const, combo = basis.reduce(target)
            assert (rest == 0) == (expected is not None) and const == 0
            if expected is not None:
                assert combo == expected
            seen["in" if expected is not None else "out"] += 1
    assert min(seen.values()) > 200


# ------------------------------------------- the closure reference for the rule

def reference_closure_avn(s):
    """The closure-building decision: one GF(2) system over the closure's cover."""
    return is_state_independent_avn(partial_closure(s))


def test_closure_avn_rule_against_closure_reference():
    rng = random.Random(46)
    two, three = _positive_paulis(2), _positive_paulis(3)
    sets = [PauliSet(2, c) for k in (2, 3, 4) for c in combinations(two, k)]
    sets += [PauliSet(2, rng.sample(two, k)) for k in (5, 6) for _ in range(40)]
    sets += [PauliSet(3, rng.sample(three, k)) for k in range(4, 9) for _ in range(12)]
    signed = [random_theory_set(rng, max_qubits=3) for _ in range(150)]
    verdicts = set()
    for s in sets + signed:
        expected = reference_closure_avn(s)
        assert is_state_independent_avn(s, in_closure=True) == expected, s.labels()
        verdicts.add((len(s.members), expected))
    assert {(4, False), (4, True), (5, False), (5, True), (8, True)} <= verdicts
    assert any(s.num_qubits == 1 for s in signed)
    assert any(op.negate() in s for s in signed for op in s if not op.is_identity_like())
    assert any(op.is_identity_like() for s in signed for op in s)


def test_four_closure_avn_verdicts_agree():
    """The witness search, the 4-subset scan, the commutation rule and the
    closure's theory give one verdict on seeded random signed sets."""
    rng = random.Random(83)
    verdicts = []
    for _ in range(80):
        n = rng.randint(2, 4)
        ops = {random_operator(rng, n, hermitian=True) for _ in range(rng.randint(3, 8))}
        if rng.random() < 0.3:
            ops.add(next(iter(ops)).negate())
        s = PauliSet(n, ops)
        avn = kl_witness(s) is not None
        assert kl_pattern_test(s).avn == avn, s.labels()
        assert is_state_independent_avn(s, in_closure=True) == avn, s.labels()
        assert (not is_consistent(state_independent_theory(partial_closure(s))).consistent) == avn
        verdicts.append(avn)
    assert 20 <= sum(verdicts) <= 60


# ------------------------------------------------- reference for the theory

def random_theory_set(rng, max_qubits=4):
    """3-8 Hermitian words on 1 to max_qubits qubits: signed, some with x and -x,
    some with +-I."""
    n = rng.randint(1, max_qubits)
    ops = {random_operator(rng, n, hermitian=True) for _ in range(rng.randint(3, 8))}
    if rng.random() < 0.3:
        ops.add(min(ops, key=str).negate())
    if rng.random() < 0.2:
        ops.add(identity(n).negate() if rng.random() < 0.5 else identity(n))
    return PauliSet(n, ops)


def reference_theory(s):
    """The two-pass build on objects: one equation per kernel vector, then
    the reducing LinearTheory constructor."""
    n = s.num_qubits
    verts = [op for op in s.members if not op.is_identity_like()]
    neighbors = [sum(1 << j for j, b in enumerate(verts) if j != i and a.commutes(b))
                 for i, a in enumerate(verts)]
    cover = [Context(str(verts[i]) for i in range(len(verts)) if clique >> i & 1)
             for clique in (reference_max_cliques(neighbors) if verts else ())]
    scenario = MeasurementScenario([str(op) for op in verts], cover, (0, 1), "Z2")
    by_label = {str(op): op for op in verts}
    equations = []
    for ctx in scenario.contexts:
        ops = [by_label[m] for m in ctx.members]
        transpose = [sum((_word(op) >> bit & 1) << i for i, op in enumerate(ops))
                     for bit in range(2 * n)]
        for r in gf2.nullspace(transpose, len(ops)):
            prod = identity(n)
            for i, op in enumerate(ops):
                if r >> i & 1:
                    prod = prod * op
            assert prod.is_identity_like()
            equations.append(LinearEquation(
                ctx, [r >> i & 1 for i in range(len(ops))], prod.phase // 2))
    return LinearTheory(scenario, equations)


def test_theory_and_si_avn_against_two_pass_reference():
    rng = random.Random(45)
    sets = [random_theory_set(rng) for _ in range(48)]
    # the random sets are never inconsistent before closure; these are
    square, i = list(mermin_square_set()), rng.randrange(9)
    square[i] = square[i].negate()
    sets += [mermin_square_set(), mermin_star_set(), PauliSet(2, square)]
    verdicts = set()
    for s in sets:
        for b in (False, True):
            target = partial_closure(s) if b else s
            theory, reference = state_independent_theory(target), reference_theory(target)
            assert theory.scenario == reference.scenario
            assert theory.equations == reference.equations
            expected = not is_consistent(reference).consistent
            assert is_state_independent_avn(s, in_closure=b) == expected
            verdicts.add((b, expected))
    assert verdicts == {(False, False), (False, True), (True, False), (True, True)}


# --------------------------------------------- reference for the parity rows

def reference_parity_rows(words, n):
    """The kernel of the transposed bit matrix, each row's sign recovered by
    multiplying its words, then one rref."""
    k = len(words)
    transpose = [sum((w >> bit & 1) << i for i, w in enumerate(words))
                 for bit in range(2 * n)]
    rows = []
    for r in gf2.nullspace(transpose, k):
        prod = 0
        for i, w in enumerate(words):
            if r >> i & 1:
                prod = _mul(prod, w, n)
        assert prod in (0, 2 << 2 * n)
        rows.append(r | (prod >> 2 * n + 1) << k)
    return gf2.rref(rows)[0]


def test_parity_rows_against_kernel_reference():
    rng = random.Random(47)
    bare = [random_theory_set(rng) for _ in range(40)]
    closed = [partial_closure(random_theory_set(rng, max_qubits=3)) for _ in range(15)]
    closed += [partial_closure(random_pauli_set(rng)) for _ in range(8)]
    named = [mermin_square_set(), mermin_star_set(), partial_closure(mermin_star_set()),
             partial_closure(PauliSet.from_strings(["ZIII", "IZII", "IIZI", "IIIZ", "-ZZZZ",
                                                    "XXXX", "YYYY"]))]
    assert any(op.negate() in s for s in bare for op in s if not op.is_identity_like())
    assert any(op.is_identity_like() for s in bare for op in s)
    contexts = [(words, s.num_qubits) for s in bare + closed + named
                for _, words in _cover(*_vertices(s), s.num_qubits)]
    counts = {"empty": 0, "several": 0, "signed": 0}
    for words, n in contexts:
        rows = _parity_rows(words, n)
        reduced = gf2.rref(rows)[0]
        assert len(reduced) == len(rows)  # the rows are independent
        assert reduced == reference_parity_rows(words, n)
        counts["empty"] += not reduced
        counts["several"] += len(reduced) > 1
        counts["signed"] += any(row >> len(words) for row in reduced)
    assert min(counts.values()) > 50
    assert {n for _, n in contexts} == {1, 2, 3, 4}
    assert max(len(words) for words, _ in contexts) == 30  # all 15 Z words, both signs


def test_parity_rows_refuse_a_non_commuting_context():
    words = [_word(PauliOperator.from_string(t)) for t in ("X", "Z", "Y")]
    with pytest.raises(AssertionError):
        _parity_rows(words, 1)


def test_theory_builds_each_equation_once(monkeypatch, capsys):
    """Equations are built only for certificates: none for a consistent
    closure, one per certificate member for an inconsistent one."""
    built = {"equation": 0, "from_equations": 0}

    def counting(cls, key, init):
        def wrapper(self, *args, **kwargs):
            built[key] += 1
            init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", wrapper)

    counting(LinearEquation, "equation", LinearEquation.__init__)
    counting(LinearTheory, "from_equations", LinearTheory.__init__)
    consistent = PauliSet.from_strings(["XI", "ZI", "IX", "XX"])
    for base, avn in ((consistent, False), (xz222_set(), True)):
        closed = partial_closure(base)
        theory = state_independent_theory(closed)
        rendered = theory.render()
        result = is_consistent(theory)
        assert result.consistent is not avn and len(rendered) == len(theory) > 0
        expected = len(result.certificate) if avn else 0
        assert built == {"equation": expected, "from_equations": 0}
        built["equation"] = 0
        assert cli.main(["closure", *(str(op) for op in base.members)]) == 0
        assert f"si_avn: {'true' if avn else 'false'}" in capsys.readouterr().out
        assert built == {"equation": expected, "from_equations": 0}
        built["equation"] = 0
        assert is_state_independent_avn(closed) is avn
        assert built == {"equation": expected, "from_equations": 0}
        built["equation"] = 0
        assert is_state_independent_avn(base, True) is avn
        assert built == {"equation": 0, "from_equations": 0}


# ------------------------------------- reference for the closure command

def reference_closure_payload(labels):
    """The closure command's JSON as the object pipeline built it: the
    validating Context, MeasurementScenario and reducing from_rows, str()
    of each member, then render and is_consistent."""
    base = PauliSet.from_strings(labels)
    n = base.num_qubits
    words, _ = _closure_with_derivations(base)
    closed = PauliSet(n, [_operator(w, n) for w in words])
    verts = sorted((str(op), _word(op)) for op in closed.members if not op.is_identity_like())
    vwords, vlabels = [w for _, w in verts], [lab for lab, _ in verts]
    cliques = _max_cliques(_neighbors(vwords, n), vwords, n) if vwords else []
    scenario = MeasurementScenario(
        vlabels, [Context(vlabels[i] for i in range(len(verts)) if c >> i & 1) for c in cliques],
        (0, 1), "Z2")
    by_label = dict(verts)
    theory = LinearTheory.from_rows(scenario, [
        _parity_rows([by_label[m] for m in ctx.members], n) for ctx in scenario.contexts])
    payload = {
        "num_qubits": n,
        "size": len(closed.members),
        "members": [str(p) for p in closed.members],
        "cover": [list(c.members) for c in scenario.contexts],
        "equations": theory.render(),
        "si_avn": not is_consistent(theory).consistent,
    }
    return json.dumps(payload, indent=2) + "\n"


def test_closure_json_matches_the_object_pipeline(capsys):
    """closure builds its contexts, scenario and theory unchecked and makes
    each member's label once; its JSON is byte for byte the object
    pipeline's, on closures whose words pass 62 bits, signed sets with x
    and -x, and sets holding +-I."""
    rng = random.Random(50)
    signed = [random_theory_set(rng) for _ in range(40)]
    assert any(op.negate() in s for s in signed for op in s if not op.is_identity_like())
    assert {op.phase for s in signed for op in s if op.is_identity_like()} == {0, 2}
    wide = [s for s in kernel_test_sets() if s.num_qubits > 30]
    assert {s.num_qubits for s in wide} == {31, 33, 70}
    named = [mermin_square_set(), mermin_star_set(), xz222_set()]
    for s in [*closure_mix_sets(), *signed, *wide, *named]:
        labels = s.labels()
        assert cli.main(["closure", *labels, "--format", "json"]) == 0
        assert capsys.readouterr().out == reference_closure_payload(labels), labels


def test_unchecked_constructors_equal_the_validating_ones():
    """scenario_of and state_independent_theory build their objects without
    the constructors' sorts and checks; the objects equal, and hash as,
    those the validating constructors build from the same data, and on the
    bare sets those of the object pipeline."""
    rng = random.Random(51)
    sets = [(PauliSet(2, c), False) for c in combinations(_positive_paulis(2), 4)]
    assert len(sets) == 1365
    for _ in range(200):
        ops = {random_operator(rng, 3, hermitian=True) for _ in range(rng.randint(3, 8))}
        if rng.random() < 0.3:
            ops.add(min(ops, key=str).negate())
        if rng.random() < 0.2:
            ops.add(identity(3).negate() if rng.random() < 0.5 else identity(3))
        closed = rng.random() < 0.5
        sets.append((partial_closure(PauliSet(3, ops)) if closed else PauliSet(3, ops), closed))
    assert 80 < sum(closed for _, closed in sets) < 120
    for s, closed in sets:
        scenario, theory = scenario_of(s), state_independent_theory(s)
        assert scenario == theory.scenario and hash(scenario) == hash(theory.scenario)
        validated = MeasurementScenario(
            list(scenario.measurements), [Context(c.members) for c in scenario.contexts])
        assert scenario == validated and hash(scenario) == hash(validated)
        rebuilt = LinearTheory.from_rows(validated, [list(rows) for rows in theory.rows])
        assert theory == rebuilt and hash(theory) == hash(rebuilt)
        if not closed:
            reference = reference_theory(s)
            assert theory == reference and hash(theory) == hash(reference)
