"""The n-qubit Pauli group as phased symplectic bit vectors.

An operator is i^phase * prod_j X^x_j Z^z_j with X applied before Z on
each qubit; ``x`` and ``z`` pack the exponents with bit j for qubit j,
qubit 0 being the leftmost letter. Hermitian operators are exactly those
whose phase matches the Y-count parity, and they square to the identity.
Signs matter everywhere: x and -x are distinct group members, distinct
measurement labels, and distinct vertices.

On top of the group algebra this module builds measurement covers
(maximal commuting cliques), partial closures under products of commuting
members, the parity theory a set satisfies independently of any state,
and determining-tree searches in the style of Kirby and Love: a
measurement admitting determining trees for x and -x over the same
odd-multiplicity leaf set rules out any global eigenvalue assignment.
Those searches run on operators packed into one integer word,
phase<<2n | x<<n | z, the symplectic form of Aaronson and Gottesman, and
build PauliOperator objects only for what they return. No closure is
built to decide closure AvN: by Kirby and Love (PRL 123, 200501, 2019) it
holds exactly when commutation is not transitive outside the centre, the
members that commute with every member.

The cover's contexts are the maximal commuting cliques. Commutation is a
bilinear form on the unsigned words, so a word commuting with a and b
commutes with ab (Kirby and Love): on a partially closed set the contexts
are the maximal abelian subgroups of the closure. ``_max_cliques`` runs
pivoting Bron-Kerbosch with two subspace rules, valid on any set:
branching on v takes every candidate in span(R + v) into the clique R at
once, and afterwards moves that coset v + span(R) out of the candidates.
The search is at most n deep, and on a closed set R stays a subgroup.
Each call hands its children their vertices' reduced words and the coset
masks they key, both made in one walk. Vertices are kept in label order,
so a clique's set bits are its context's members in order, and the
sorted cliques are the scenario's contexts in order. ``_parity_rows``
eliminates each context's words from the last to the first, which yields
its parity rows already reduced and in ``LinearTheory``'s order. So the
contexts, the scenario and the theory are built once, from the sorted
cliques and those rows, with no sort, check or reduction run again; each
member's label is made once per set and serves the vertices and the
``closure`` command's member list.

Work over pairs of words runs as whole-array numpy kernels: ``_commuting``
gives the commutation matrix of two word arrays and ``_products`` their
products, each taking the parity of a symplectic overlap by XOR folding,
which needs no popcount and so runs on numpy 1.24 and on object arrays
alike. The closure multiplies its elements by each round's frontier, and
``kl_witness`` takes the defect of each commuting pair, in row blocks of
at most ``_BLOCK`` = 2^16 cells, so no temporary grows with the square of
the closure and a closure past the cap raises after one block. Words are
int64 while they fit in 62 bits (n <= 30 qubits) and Python ints in
``dtype=object`` arrays past that, as are D-set masks over more than 62
generators; one code path serves both, its dtype computed from the width.
``_neighbors`` stays in pure Python on bit planes, one mask per bit of
the swapped words: a cover is often a handful of words, where a numpy
call costs more than the whole loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import gf2
from .errors import ClosureLimitError, ParseError, ValidationError
from .linear_theory import LinearTheory, is_consistent
from .scenario import Context, MeasurementScenario, unchecked_contexts, unchecked_scenario

CLOSURE_LIMIT = 4096

_LETTERS = "IZXY"  # one qubit's letter, indexed by x << 1 | z
_BITS = {ch: (i >> 1, i & 1) for i, ch in enumerate(_LETTERS)}
_PHASE_PREFIX = {0: "", 1: "i", 2: "-", 3: "-i"}


@dataclass(frozen=True, order=True)
class PauliOperator:
    """One phased Pauli word; canonical order is (phase, x, z)."""

    num_qubits: int
    phase: int
    x: int
    z: int

    def __init__(self, num_qubits: int, phase: int, x: int, z: int):
        if num_qubits < 1:
            raise ValidationError("operators need at least one qubit")
        if x >> num_qubits or z >> num_qubits or x < 0 or z < 0:
            raise ValidationError("bit pattern wider than the qubit count")
        object.__setattr__(self, "num_qubits", num_qubits)
        object.__setattr__(self, "phase", phase % 4)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "z", z)

    @classmethod
    def from_string(cls, text: str) -> "PauliOperator":
        body = text.strip()
        phase = 0
        if body.startswith(("+", "-")):
            phase = 2 if body[0] == "-" else 0
            body = body[1:]
        if body.startswith("i"):
            phase += 1
            body = body[1:]
        if not body or any(ch not in "IXYZ" for ch in body):
            raise ParseError(f"malformed Pauli string {text!r}")
        x = z = 0
        for j, ch in enumerate(body):
            xb, zb = _BITS[ch]
            x |= xb << j
            z |= zb << j
        return cls(len(body), (phase + (x & z).bit_count()) % 4, x, z)

    def letters(self) -> str:
        x, z = self.x, self.z
        return "".join([_LETTERS[(x >> j & 1) << 1 | z >> j & 1] for j in range(self.num_qubits)])

    def sign_exponent(self) -> int:
        """Exponent of i in front of the bare letter word."""
        return (self.phase - (self.x & self.z).bit_count()) % 4

    def __str__(self) -> str:
        return _PHASE_PREFIX[self.sign_exponent()] + self.letters()

    def __repr__(self) -> str:
        return f"PauliOperator({str(self)!r})"

    def is_hermitian(self) -> bool:
        return self.sign_exponent() in (0, 2)

    def is_identity_like(self) -> bool:
        return self.x == 0 and self.z == 0

    def is_identity(self) -> bool:
        return self.is_identity_like() and self.phase == 0

    def negate(self) -> "PauliOperator":
        return PauliOperator(self.num_qubits, self.phase + 2, self.x, self.z)

    def __mul__(self, other: "PauliOperator") -> "PauliOperator":
        if self.num_qubits != other.num_qubits:
            raise ValidationError("qubit counts differ")
        phase = self.phase + other.phase + 2 * (self.z & other.x).bit_count()
        return PauliOperator(self.num_qubits, phase, self.x ^ other.x, self.z ^ other.z)

    def commutes(self, other: "PauliOperator") -> bool:
        if self.num_qubits != other.num_qubits:
            raise ValidationError("qubit counts differ")
        return not ((self.x & other.z) ^ (self.z & other.x)).bit_count() & 1

    def to_matrix(self) -> np.ndarray:
        """Dense matrix, qubit 0 as the leftmost tensor factor.

        A signed permutation: X^x Z^z sends basis vector c to (-1)^|c.z| c^x,
        with qubit j at bit n-1-j of a basis index, so column c holds
        i^phase (-1)^|c.z| at row c^x."""
        n = self.num_qubits
        x = z = 0
        for j in range(n):
            x |= (self.x >> j & 1) << n - 1 - j
            z |= (self.z >> j & 1) << n - 1 - j
        unit = 1j ** self.phase
        out = np.zeros((1 << n, 1 << n), dtype=complex)
        for c in range(1 << n):
            out[c ^ x, c] = -unit if (c & z).bit_count() & 1 else unit
        return out


def identity(num_qubits: int) -> PauliOperator:
    return PauliOperator(num_qubits, 0, 0, 0)


def _sort_key(op: PauliOperator) -> tuple[int, int, int]:
    return (op.phase, op.x, op.z)


# Integer order on the words of one qubit count is the (phase, x, z) order.

def _word(op: PauliOperator) -> int:
    n = op.num_qubits
    return op.phase << 2 * n | op.x << n | op.z


def _operator(word: int, n: int) -> PauliOperator:
    mask = (1 << n) - 1
    return PauliOperator(n, word >> 2 * n, word >> n & mask, word & mask)


def _swap(word: int, n: int) -> int:
    """z<<n | x, phase dropped: a & _swap(b) has odd weight iff a, b anticommute."""
    mask = (1 << n) - 1
    return (word & mask) << n | word >> n & mask


def _mul(a: int, b: int, n: int) -> int:
    mask = (1 << n) - 1
    phase = (a >> 2 * n) + (b >> 2 * n) + 2 * (a & b >> n & mask).bit_count()
    return (phase & 3) << 2 * n | (a ^ b) & ((1 << 2 * n) - 1)


# ------------------------------------------------------- the pair kernel

_BLOCK = 1 << 16  # cells in any one kernel temporary


def _dtype(bits: int) -> type:
    """int64 for values of at most 62 bits, Python ints past that."""
    return np.int64 if bits <= 62 else object


def _parity(t: np.ndarray, bits: int) -> np.ndarray:
    """Parity of each entry's low ``bits`` bits by XOR folding; overwrites t."""
    shift = 1
    while shift < bits:
        shift <<= 1
    while shift > 1:
        shift >>= 1
        t ^= t >> shift
    return t & 1


def _commuting(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """Boolean matrix over two word arrays: does a[i] commute with b[j]?"""
    return _parity(_swap(a, n)[:, None] & b, 2 * n) == 0


def _products(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """``_mul`` over two word arrays of one shape."""
    mask = (1 << n) - 1
    phase = (a >> 2 * n) + (b >> 2 * n) + 2 * _parity(a & b >> n & mask, n)
    return (phase & 3) << 2 * n | (a ^ b) & ((1 << 2 * n) - 1)


def _first_of_each(values: np.ndarray) -> np.ndarray:
    """Position of the first occurrence of each distinct value, ascending."""
    order = np.argsort(values, kind="stable")
    ranked = values[order]
    head = np.ones(len(values), dtype=bool)
    head[1:] = ranked[1:] != ranked[:-1]
    return np.sort(order[head])


@dataclass(frozen=True)
class PauliSet:
    """A finite set of Hermitian group members, canonically ordered."""

    num_qubits: int
    members: tuple[PauliOperator, ...]

    def __init__(self, num_qubits: int, members: Iterable[PauliOperator]):
        mems = tuple(sorted(set(members), key=_sort_key))
        for op in mems:
            if op.num_qubits != num_qubits:
                raise ValidationError(f"{op} is not on {num_qubits} qubits")
            if not op.is_hermitian():
                raise ValidationError(f"{op} is not Hermitian")
        object.__setattr__(self, "num_qubits", num_qubits)
        object.__setattr__(self, "members", mems)

    @classmethod
    def from_strings(cls, strings: Sequence[str]) -> "PauliSet":
        ops = [PauliOperator.from_string(s) for s in strings]
        if not ops:
            raise ValidationError("empty Pauli set needs an explicit qubit count")
        return cls(ops[0].num_qubits, ops)

    def labels(self) -> tuple[str, ...]:
        """Each member's label, in member order."""
        return self._labels

    @cached_property
    def _labels(self) -> tuple[str, ...]:
        # made once per set: the cover's vertices and the closure's payload share it
        return tuple([str(op) for op in self.members])

    def __iter__(self) -> Iterator[PauliOperator]:
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, op: object) -> bool:
        return op in self.members


def _max_cliques(neighbors: list[int], words: list[int], n: int) -> list[int]:
    """Bron-Kerbosch with pivoting on bitsets; neighbors[v] is v's adjacency
    mask in the commutation graph of the Pauli words ``words`` on n qubits.

    Vertices with one closed neighbourhood, such as x and -x, lie in the
    same maximal cliques, so the search keeps the lowest vertex of each
    such class and widens every clique it finds to whole classes. Returns
    each maximal clique once, as a vertex mask.

    Two subspace rules cut the search; both read only the unsigned words
    and hold for any Pauli set, closed or not. Commutation is a bilinear
    form, so a word commuting with each of a set of words commutes with
    every product of them. Let the search hold the clique R, its
    candidates P and its excluded vertices X, and branch on v in P.

    1. Every vertex u of P whose word lies in span(R + v) joins R with v.
       u commutes with R and v, so u is adjacent to all of R + v; any
       vertex commuting with R and v commutes with u. A maximal clique
       through R + v therefore contains u.
    2. After the branch, that whole coset v + span(R) leaves P for X. A
       maximal clique C through R and a coset member u contains v: v's
       word is u's times one in span(R), so every member of C commutes
       with v. C was found in v's branch.

    By rule 1, a vertex of X in span(R + v) lies in every maximal clique
    through R + v, so such a branch is skipped: it would find nothing new.
    No vertex of P lies in span(R), since R took each one when it entered,
    so the vertices of P in span(R + v) are exactly v's coset. Each
    vertex's word is kept with span(R)'s pivot bits cleared, the one such
    word in its coset, so a coset is one value of that word. Each call
    gets those words and the coset masks they key from its parent, which
    builds both in one walk over the child's vertices; a branch that would
    leave P empty makes no call, and records R when X is empty too. Each
    branch adds a word outside span(R), and commuting words span at most n
    dimensions, so the search is at most n deep; on a closed set R stays a
    subgroup. Product-free words (independent over GF(2)) leave plain
    pivoting Bron-Kerbosch.
    """
    classes: dict[int, int] = {}
    for v, nbr in enumerate(neighbors):
        closed = nbr | 1 << v
        classes[closed] = classes.get(closed, 0) | 1 << v
    widen = {c & -c: c for c in classes.values()}  # lowest vertex bit -> class
    low = (1 << 2 * n) - 1
    out: list[int] = []

    def expand(r: int, p: int, x: int, reduced: dict[int, int], cosets: dict[int, int]) -> None:
        # p is never empty; reduced[v]: v's unsigned word with span(R)'s pivot
        # bits cleared, v in p | x; cosets[w]: the vertices of p | x whose word is w
        pivot, best, rest = 0, -1, p | x
        while rest:
            v = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            count = (neighbors[v] & p).bit_count()
            if count > best:
                pivot, best = v, count
        todo = p & ~neighbors[pivot]
        while todo:
            v = (todo & -todo).bit_length() - 1
            w = reduced[v]
            coset = cosets[w] & p
            # a vertex of X in the coset lies in every maximal clique
            # through R + v, so each of them was found before
            if not cosets[w] & x:
                nbr = neighbors[v]
                inner_p, inner_x = p & nbr & ~coset, x & nbr
                if inner_p:
                    top = w & -w  # the new pivot bit of span(R + v)
                    inner = inner_p | inner_x
                    child: dict[int, int] = {}
                    child_cosets: dict[int, int] = {}
                    while inner:
                        bit = inner & -inner
                        inner ^= bit
                        u = bit.bit_length() - 1
                        wu = reduced[u]
                        if wu & top:
                            wu ^= w
                        child[u] = wu
                        child_cosets[wu] = child_cosets.get(wu, 0) | bit
                    expand(r | coset, inner_p, inner_x, child, child_cosets)
                elif not inner_x:  # R + coset is maximal
                    clique, rest = 0, r | coset
                    while rest:  # one vertex of each class it meets
                        bit = rest & -rest
                        clique |= widen[bit]
                        rest ^= bit
                    out.append(clique)
            p &= ~coset
            x |= coset
            todo &= p

    reps = sum(widen)
    reduced = {v: w & low for v, w in enumerate(words) if reps >> v & 1}
    cosets: dict[int, int] = {}
    for v, w in reduced.items():
        cosets[w] = cosets.get(w, 0) | 1 << v
    expand(0, reps, 0, reduced, cosets)
    return out


def _vertices(s: PauliSet) -> tuple[list[int], list[str]]:
    """Word and label of each non-identity member, in label order: a clique's
    set bits are then its context's members in order."""
    verts = sorted([(lab, _word(op)) for op, lab in zip(s.members, s.labels())
                    if not op.is_identity_like()])
    return [w for _, w in verts], [lab for lab, _ in verts]


def _neighbors(words: list[int], n: int) -> list[int]:
    """Each word's commuting neighbours, itself excluded, as a mask over positions.

    Plane t masks the words whose swapped word has bit t set. The
    symplectic form is bilinear, so the words anticommuting with a are
    the XOR of the planes at a's bits.
    """
    planes = [0] * (2 * n)
    for i, w in enumerate(words):
        bits = _swap(w, n)
        while bits:
            planes[(bits & -bits).bit_length() - 1] |= 1 << i
            bits &= bits - 1
    low, full = (1 << 2 * n) - 1, (1 << len(words)) - 1
    neighbors = []
    for i, w in enumerate(words):
        anti, bits = 0, w & low
        while bits:
            anti ^= planes[(bits & -bits).bit_length() - 1]
            bits &= bits - 1
        neighbors.append(full ^ anti ^ 1 << i)
    return neighbors


def _intransitive(neighbors: list[int], within: int) -> bool:
    """Do two commuting vertices of ``within`` outside its centre, the vertices
    commuting with all of it, have different closed neighbourhoods there?"""
    closed = {v: (neighbors[v] | 1 << v) & within
              for v in range(len(neighbors)) if within >> v & 1}
    outside = sum(1 << v for v, nbrs in closed.items() if nbrs != within)
    return any((closed[b] ^ closed[c]) & outside
               for b in closed if outside >> b & 1
               for c in closed if (neighbors[b] & outside) >> c & 1)


def _chordal(neighbors: list[int], within: int) -> bool:
    """Is the graph ``within`` induces chordal, so that its cover is acyclic?

    Strips simplicial vertices, whose remaining neighbours are pairwise
    adjacent: such a vertex lies on no chordless cycle of four or more, and
    every chordal graph has one, so the graph empties exactly when chordal.
    A hypergraph is acyclic (GYO reduction empties it) exactly when it is
    conformal and its 2-section is chordal (Beeri, Fagin, Maier and
    Yannakakis, J. ACM 30, 479, 1983). A graph's maximal cliques are
    conformal, every clique lying in one, and their 2-section is the graph;
    an isolated vertex is a one-member context, which both rules drop.
    """
    left = within
    while left:
        rest = left
        while rest:
            bit = rest & -rest
            rest ^= bit
            v = bit.bit_length() - 1
            nbrs = common = others = neighbors[v] & left
            while others:
                low = others & -others
                others ^= low
                common &= neighbors[low.bit_length() - 1] | low
            if common == nbrs:  # v's neighbours are pairwise adjacent
                left ^= bit
                break
        else:
            return False
    return True


def _cover(words: list[int], labels: list[str], n: int) -> list[tuple[Context, list[int]]]:
    """Maximal commuting cliques as sorted contexts, each with its members'
    words in the context's label order.

    The vertices come in label order, so each clique's set bits list its
    members in order, and sorting the cliques' index lists sorts their
    contexts: they are built as they are, with no sort or check.
    """
    cliques = []
    for clique in _max_cliques(_neighbors(words, n), words, n) if words else []:
        index = []
        while clique:
            bit = clique & -clique
            index.append(bit.bit_length() - 1)
            clique ^= bit
        cliques.append(index)
    cliques.sort()
    return list(zip(unchecked_contexts(labels, cliques),
                    [[words[i] for i in index] for index in cliques]))


def measurement_cover(s: PauliSet) -> tuple[Context, ...]:
    """Maximal pairwise-commuting subsets as contexts, identity-likes dropped.

    Maximal cliques of a graph are never nested, so the result is a
    covering anti-chain over the non-identity members by construction.
    """
    return tuple(ctx for ctx, _ in _cover(*_vertices(s), s.num_qubits))


def _scenario(s: PauliSet) -> tuple[MeasurementScenario, list[list[int]]]:
    """The Z2 scenario of the set's cover, and each context's member words.

    The labels and the cover's contexts come sorted and distinct, so the
    scenario is built as it is, with no sort or check."""
    words, labels = _vertices(s)
    cover = _cover(words, labels, s.num_qubits)
    return (unchecked_scenario(tuple(labels), tuple([ctx for ctx, _ in cover])),
            [w for _, w in cover])


def scenario_of(s: PauliSet) -> MeasurementScenario:
    """The Z2 measurement scenario a Pauli set generates."""
    return _scenario(s)[0]


def _closure_with_derivations(
    s: PauliSet,
) -> tuple[list[int], dict[int, tuple[int, int] | None]]:
    """Least product-closed superset as sorted words, one derivation per word.

    Seeds (members of s) carry derivation None; the identity, word 0, when
    not a seed, is derived from the first seed squared. Each round
    multiplies every element by every commuting frontier element, both in
    word order, and keeps the first derivation of each new product.
    Derivations only reference elements discovered earlier, so replay
    terminates.
    """
    n = s.num_qubits
    dtype = _dtype(2 * n + 2)
    deriv: dict[int, tuple[int, int] | None] = {_word(op): None for op in s.members}
    if 0 not in deriv:
        deriv[0] = (_word(s.members[0]),) * 2 if s.members else None
    frontier = sorted(deriv)
    while frontier:
        elements = np.array(sorted(deriv), dtype)
        front = np.array(frontier, dtype)
        added: dict[int, tuple[int, int]] = {}
        rows = max(1, _BLOCK // len(front))
        for start in range(0, len(elements), rows):
            block = elements[start:start + rows]
            # pairs with a == b stay: a * a is the identity, an element from the start
            i, j = np.nonzero(_commuting(block, front, n))
            prods = _products(block[i], front[j], n)
            # the products that were not elements before this round
            at = np.minimum(np.searchsorted(elements, prods), len(elements) - 1)
            new = np.flatnonzero(elements[at] != prods)
            first = new[_first_of_each(prods[new])]
            for prod, a, b in zip(prods[first].tolist(), block[i[first]].tolist(),
                                  front[j[first]].tolist()):
                if prod not in added:
                    added[prod] = (a, b)
            if len(deriv) + len(added) > CLOSURE_LIMIT:
                raise ClosureLimitError(f"partial closure exceeds {CLOSURE_LIMIT} members")
        deriv.update(added)
        frontier = sorted(added)
    return sorted(deriv), deriv


def partial_closure(s: PauliSet) -> PauliSet:
    """Close under products of commuting members; the identity is always in.

    Signed elements stay distinct, so closures of contradictory sets
    contain both x and -x. Refuses past 4096 members.
    """
    words, _ = _closure_with_derivations(s)
    return PauliSet(s.num_qubits, [_operator(w, s.num_qubits) for w in words])


def _parity_rows(words: list[int], n: int) -> tuple[int, ...]:
    """The reduced parity rows r | sign << k of one context's k member words,
    in falling-pivot order: ``LinearTheory``'s canonical form.

    Bit i of r flags words[i]. The words are eliminated from the last to
    the first, phases tracked as ``_mul`` tracks them, as in a stabilizer
    tableau. A word that reduces to +-identity gives a row and its sign, 1
    for -identity, linear in the subset as commuting members square to the
    identity. The row of word j holds j and some of the words above it
    that entered the tableau, never a word that gave a row. With pivots
    at the lowest set bit, that is the reduced row with pivot j: the rows
    come out independent, reduced and spanning every such subset.
    """
    k, low = len(words), (1 << 2 * n) - 1
    # (pivot bit, unsigned word, its x bits, phase, combination)
    basis: list[tuple[int, int, int, int, int]] = []
    rows = []
    for i in range(k - 1, -1, -1):
        w, combo = words[i], 1 << i
        bits, phase = w & low, w >> 2 * n
        for pivot, bw, bx, bp, bc in basis:
            if bits & pivot:
                # _mul inlined: z of the word meeting x of the basis word adds 2
                phase += bp + 2 * (bits & bx).bit_count()
                bits ^= bw
                combo ^= bc
        if bits:
            basis.append((bits & -bits, bits, bits >> n, phase, combo))
        elif phase & 1:
            raise AssertionError(
                f"member product {_operator((phase & 3) << 2 * n, n)} is not +-identity")
        else:
            rows.append(combo | (phase >> 1 & 1) << k)
    return tuple(rows)


def state_independent_theory(s: PauliSet) -> LinearTheory:
    """Parity equations every quantum state's outcomes satisfy.

    For each context, products of member subsets that collapse to +-identity
    pin the mod-2 sum of those outcomes to the product's sign; each
    context's ``_parity_rows`` come out already reduced and in order, so
    the theory holds them as they are.
    """
    scenario, words = _scenario(s)
    n = s.num_qubits
    # the cover is sorted, so it is in the scenario's context order
    return LinearTheory.unchecked(scenario, tuple([_parity_rows(w, n) for w in words]))


def is_state_independent_avn(s: PauliSet, in_closure: bool = False) -> bool:
    """Is the set's (or its closure's) state-independent theory inconsistent?

    The bare set's theory is solved by ``is_consistent``. The closure is not
    built (Kirby and Love, PRL 123, 200501, 2019): its theory is
    inconsistent exactly when some commuting a ~ b ~ c outside the centre,
    the members commuting with every member, has a and c anticommuting.
    """
    if not in_closure:
        return not is_consistent(state_independent_theory(s)).consistent
    words = [_word(op) for op in s.members if not op.is_identity_like()]
    return _intransitive(_neighbors(words, s.num_qubits), (1 << len(words)) - 1)


# --------------------------------------------------------- determining trees

@dataclass(frozen=True)
class DeterminingTree:
    """Operator product tree: each parent is the product of its children.

    Children commute pairwise; leaves carry elements of the generating
    set. The determining set is the odd-multiplicity leaves, which fix the
    parent's eigenvalue under any global assignment.
    """

    operator: PauliOperator
    children: tuple["DeterminingTree", ...] = ()

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def leaves(self) -> list[PauliOperator]:
        if self.is_leaf:
            return [self.operator]
        out = []
        for child in self.children:
            out.extend(child.leaves())
        return out

    def determining_set(self) -> frozenset[PauliOperator]:
        counts: dict[PauliOperator, int] = {}
        for leaf in self.leaves():
            counts[leaf] = counts.get(leaf, 0) + 1
        return frozenset(op for op, c in counts.items() if c % 2)

    def validate(self, generators: PauliSet) -> None:
        """Check tree structure; raises on any violated constraint."""
        if self.is_leaf:
            if self.operator not in generators:
                raise ValidationError(f"leaf {self.operator} outside the generating set")
            return
        for a, b in combinations(self.children, 2):
            if not a.operator.commutes(b.operator):
                raise ValidationError(
                    f"children {a.operator} and {b.operator} do not commute")
        prod = identity(self.operator.num_qubits)
        for child in self.children:
            prod = prod * child.operator
        if prod != self.operator:
            raise ValidationError(f"children multiply to {prod}, not {self.operator}")
        for child in self.children:
            child.validate(generators)


def _replay_tree(
    x: int,
    n: int,
    deriv: dict[int, tuple[int, int] | None],
    memo: dict[int, DeterminingTree],
) -> DeterminingTree:
    """Replay the derivations of word x; memo starts as the generators' leaves,
    and every derived word's two parents were found before it."""
    if x in memo:
        return memo[x]
    a, b = deriv[x]
    tree = DeterminingTree(_operator(x, n), (
        _replay_tree(a, n, deriv, memo), _replay_tree(b, n, deriv, memo)))
    memo[x] = tree
    return tree


def _replay_dsets(s: PauliSet, deriv: dict[int, tuple[int, int] | None]) -> dict[int, int]:
    """Determining set of each replay tree, as a bitmask over s.members, in
    one pass: ``deriv`` holds each derived word after both of its parents."""
    index = {_word(op): i for i, op in enumerate(s.members)}
    dsets: dict[int, int] = {}
    for x, parents in deriv.items():
        if x in index:
            dsets[x] = 1 << index[x]
        else:
            dsets[x] = dsets[parents[0]] ^ dsets[parents[1]] if parents else 0
    return dsets


def _kl_generators(
    elements: list[int], dsets: dict[int, int], n: int, width: int,
) -> list[tuple[int, tuple[int, int]]]:
    """The defect D(a) xor D(b) xor D(ab) of the first commuting pair a < b
    giving each distinct nonzero defect, in pair order.

    A repeated defect is already in the span of the first, so it could
    never enter a basis that the pairs are fed to in order.
    """
    words = np.array(elements, _dtype(2 * n + 2))
    d = np.array([dsets[w] for w in elements], _dtype(width))
    seen: set[int] = set()
    out: list[tuple[int, tuple[int, int]]] = []
    rows = max(1, _BLOCK // len(words))
    for start in range(0, len(words), rows):
        block, rest = words[start:start + rows], words[start:]
        upper = np.arange(len(block))[:, None] < np.arange(len(rest))
        i, j = np.nonzero(_commuting(block, rest, n) & upper)
        # ab is an element: the closure holds each product of commuting elements
        prods = _products(block[i], rest[j], n)
        g = d[start + i] ^ d[start + j] ^ d[np.searchsorted(words, prods)]
        hit = np.flatnonzero(g != 0)
        hit = hit[_first_of_each(g[hit])]
        for gk, a, b in zip(g[hit].tolist(), block[i[hit]].tolist(), rest[j[hit]].tolist()):
            if gk not in seen:
                seen.add(gk)
                out.append((gk, (a, b)))
    return out


def kl_witness(s: PauliSet) -> tuple[DeterminingTree, DeterminingTree] | None:
    """Determining trees for some x and -x sharing a determining set.

    Such a pair forces lambda(x) = lambda(-x) for every global eigenvalue
    assignment respecting commuting products, which is absurd, so a witness
    certifies the closure's theory is inconsistent.

    The D-sets reachable for a fixed element form a coset of the subgroup
    K of D-sets of identity trees, so the search reduces to one replay
    D-set per element plus a GF(2) basis for K generated by the defect
    D(a) xor D(b) xor D(ab) over commuting pairs.
    """
    n = s.num_qubits
    elements, deriv = _closure_with_derivations(s)
    dsets = _replay_dsets(s, deriv)

    generators = _kl_generators(elements, dsets, n, len(s.members))

    # the generator masks, each combination over the generators' indices
    basis = gf2.AffineBasis()
    for g, _ in generators:
        basis.add(g, 0)

    elem_set = set(elements)
    sign = 2 << 2 * n  # xor flips the phase by 2, negating the word
    memo = {_word(op): DeterminingTree(op) for op in s.members}
    for x in elements:
        neg = x ^ sign
        if neg not in elem_set or neg < x:
            continue
        rest, _, combo = basis.reduce(dsets[x] ^ dsets[neg])
        if rest:
            continue
        tree_x = _replay_tree(x, n, deriv, memo)
        tree_neg = _replay_tree(neg, n, deriv, memo)
        for gi, (_, (a, b)) in enumerate(generators):
            if not (combo >> gi) & 1:
                continue
            prod = _mul(a, b, n)
            via_pair = DeterminingTree(_operator(prod, n), (
                _replay_tree(a, n, deriv, memo), _replay_tree(b, n, deriv, memo)))
            via_replay = _replay_tree(prod, n, deriv, memo)
            gadget = DeterminingTree(identity(n), (via_pair, via_replay))
            tree_neg = DeterminingTree(tree_neg.operator, (tree_neg, gadget))
        if tree_x.determining_set() != tree_neg.determining_set():
            raise AssertionError("witness trees disagree on the determining set")
        return tree_x, tree_neg
    return None


# ------------------------------------------------------- 4-subset patterns

# The 11 graphs on four vertices, up to relabelling, keyed by their sorted
# degree sequences. No two classes share a sequence, so the sequence names
# the class of a commutation pattern without trying the 24 relabellings.
GRAPH_CLASS_NAMES = {
    (0, 0, 0, 0): "empty",
    (0, 0, 1, 1): "single-edge",
    (0, 1, 1, 2): "two-adjacent-edges",
    (1, 1, 1, 3): "three-edge-star",
    (0, 2, 2, 2): "triangle",
    (1, 1, 1, 1): "two-disjoint-edges",
    (1, 1, 2, 2): "three-edge-path",
    (1, 2, 2, 3): "triangle-plus-pendant",
    (2, 2, 2, 2): "four-cycle",
    (2, 2, 3, 3): "diamond",
    (3, 3, 3, 3): "complete",
}

# Closure-AvN verdict by commutation pattern for 4-element sets without
# identity-like members: the rule of is_state_independent_avn reads only the
# graph, so tests derive each entry from one representative graph per class.
PATTERN_TABLE = {
    "empty": False,
    "single-edge": False,
    "two-adjacent-edges": True,
    "three-edge-star": False,
    "triangle": False,
    "two-disjoint-edges": False,
    "three-edge-path": True,
    "triangle-plus-pendant": False,
    "four-cycle": True,
    "diamond": False,
    "complete": False,
}


def pattern_key(ops: Sequence[PauliOperator]) -> str:
    """Class of four operators' commutation graph; identity-like members have no edges."""
    if len(ops) != 4:
        raise ValidationError("pattern keys are defined for 4-element subsets")
    degrees = [0] * 4
    for i, j in combinations(range(4), 2):
        a, b = ops[i], ops[j]
        if not (a.is_identity_like() or b.is_identity_like()) and a.commutes(b):
            degrees[i] += 1
            degrees[j] += 1
    return GRAPH_CLASS_NAMES[tuple(sorted(degrees))]


@dataclass(frozen=True)
class PatternTestResult:
    """Outcome of the 4-subset scan; truthiness is the verdict."""

    avn: bool
    subset: tuple[PauliOperator, ...] | None
    pattern: str | None

    def __bool__(self) -> bool:
        return self.avn


def kl_pattern_test(s: PauliSet) -> PatternTestResult:
    """Scan 4-element subsets for one whose closure theory is inconsistent.

    Each subset is decided by the rule of ``is_state_independent_avn`` on the
    set's neighbour masks; PATTERN_TABLE names the reported subset's class.
    Returns the lexicographically least positive subset in canonical order.
    """
    neighbors = _neighbors([_word(op) for op in s.members], s.num_qubits)
    verts = sum(1 << i for i, op in enumerate(s.members) if not op.is_identity_like())
    for index in combinations(range(len(s.members)), 4):
        if _intransitive(neighbors, verts & sum(1 << i for i in index)):
            subset = tuple(s.members[i] for i in index)
            return PatternTestResult(True, subset, pattern_key(subset))
    return PatternTestResult(False, None, None)
