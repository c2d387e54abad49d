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
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import gf2
from .errors import ClosureLimitError, ParseError, ValidationError
from .linear_theory import LinearEquation, LinearTheory
from .scenario import Context, MeasurementScenario

CLOSURE_LIMIT = 4096

_LETTERS = {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}
_BITS = {v: k for k, v in _LETTERS.items()}
_PHASE_PREFIX = {0: "", 1: "i", 2: "-", 3: "-i"}

_SINGLE = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


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

    # sort on (phase, x, z), not the qubit count, but keep dataclass order
    # machinery by placing identical num_qubits first in practice

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
        return "".join(
            _LETTERS[((self.x >> j) & 1, (self.z >> j) & 1)]
            for j in range(self.num_qubits))

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
        """Dense matrix, qubit 0 as the leftmost tensor factor."""
        out = np.array([[1j ** self.phase]], dtype=complex)
        for j in range(self.num_qubits):
            xb, zb = (self.x >> j) & 1, (self.z >> j) & 1
            word = _SINGLE["X"] @ _SINGLE["Z"] if xb and zb else (
                _SINGLE["X"] if xb else _SINGLE["Z"] if zb else _SINGLE["I"])
            out = np.kron(out, word)
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
        return tuple(str(op) for op in self.members)

    def __iter__(self) -> Iterator[PauliOperator]:
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, op: object) -> bool:
        return op in self.members


def _max_cliques(neighbors: list[int]) -> list[int]:
    """Bron-Kerbosch with pivoting on bitsets; neighbors[v] is v's adjacency mask.

    Vertices with one closed neighbourhood, such as x and -x, lie in the
    same maximal cliques, so the search keeps the lowest vertex of each
    such class and widens every clique it finds to whole classes. Returns
    each maximal clique once, as a vertex mask.
    """
    classes: dict[int, int] = {}
    for v, nbr in enumerate(neighbors):
        closed = nbr | 1 << v
        classes[closed] = classes.get(closed, 0) | 1 << v
    widen = {c & -c: c for c in classes.values()}  # lowest vertex bit -> class
    out: list[int] = []

    def expand(r: int, p: int, x: int) -> None:
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


def _vertices(s: PauliSet) -> tuple[list[int], list[str]]:
    """Word and label of each non-identity member, in member order."""
    verts = [op for op in s.members if not op.is_identity_like()]
    return [_word(op) for op in verts], [str(op) for op in verts]


def _neighbors(words: list[int], n: int) -> list[int]:
    """Each word's commuting neighbours, itself excluded, as a mask over positions."""
    swaps = [_swap(w, n) for w in words]
    neighbors = [0] * len(words)
    for i, a in enumerate(words):
        for j in range(i + 1, len(words)):
            if not (a & swaps[j]).bit_count() & 1:
                neighbors[i] |= 1 << j
                neighbors[j] |= 1 << i
    return neighbors


def _cliques(words: list[int], n: int) -> list[int]:
    """Maximal commuting cliques of the words, as masks over their positions."""
    return _max_cliques(_neighbors(words, n)) if words else []


def _intransitive(neighbors: list[int], within: int) -> bool:
    """Do two commuting vertices of ``within`` outside its centre, the vertices
    commuting with all of it, have different closed neighbourhoods there?"""
    closed = {v: (neighbors[v] | 1 << v) & within
              for v in range(len(neighbors)) if within >> v & 1}
    outside = sum(1 << v for v, nbrs in closed.items() if nbrs != within)
    return any((closed[b] ^ closed[c]) & outside
               for b in closed if outside >> b & 1
               for c in closed if (neighbors[b] & outside) >> c & 1)


def _cover(words: list[int], labels: list[str], n: int) -> list[tuple[Context, list[int]]]:
    """Maximal commuting cliques as sorted contexts, each with its members'
    words in the context's label order."""
    out = []
    for clique in _cliques(words, n):
        members = sorted((labels[i], words[i]) for i in range(len(words)) if clique >> i & 1)
        out.append((Context(lab for lab, _ in members), [w for _, w in members]))
    out.sort(key=lambda pair: pair[0])
    return out


def measurement_cover(s: PauliSet) -> tuple[Context, ...]:
    """Maximal pairwise-commuting subsets as contexts, identity-likes dropped.

    Maximal cliques of a graph are never nested, so the result is a
    covering anti-chain over the non-identity members by construction.
    """
    return tuple(ctx for ctx, _ in _cover(*_vertices(s), s.num_qubits))


def scenario_of(s: PauliSet) -> MeasurementScenario:
    """The Z2 measurement scenario a Pauli set generates."""
    words, labels = _vertices(s)
    cover = _cover(words, labels, s.num_qubits)
    return MeasurementScenario(labels, [ctx for ctx, _ in cover], (0, 1), "Z2")


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
    mask, low = (1 << n) - 1, (1 << 2 * n) - 1
    deriv: dict[int, tuple[int, int] | None] = {_word(op): None for op in s.members}
    if 0 not in deriv:
        deriv[0] = (_word(s.members[0]),) * 2 if s.members else None
    frontier = sorted(deriv)
    elements = set(deriv)
    while frontier:
        added: dict[int, tuple[int, int]] = {}
        front = [(b, b >> 2 * n, b >> n & mask) for b in frontier]
        for a in sorted(elements):
            swapped, pa, za = _swap(a, n), a >> 2 * n, a & mask
            for b, pb, xb in front:
                if a == b or (swapped & b).bit_count() & 1:
                    continue
                # _mul(a, b, n) with the parts of a and b taken out of the loop
                prod = ((pa + pb + 2 * (za & xb).bit_count()) & 3) << 2 * n | (a ^ b) & low
                if prod not in elements and prod not in added:
                    added[prod] = (a, b)
                    if len(elements) + len(added) > CLOSURE_LIMIT:
                        raise ClosureLimitError(
                            f"partial closure exceeds {CLOSURE_LIMIT} members")
        deriv.update(added)
        elements.update(added)
        frontier = sorted(added)
    return sorted(elements), deriv


def partial_closure(s: PauliSet) -> PauliSet:
    """Close under products of commuting members; the identity is always in.

    Signed elements stay distinct, so closures of contradictory sets
    contain both x and -x. Refuses past 4096 members.
    """
    words, _ = _closure_with_derivations(s)
    return PauliSet(s.num_qubits, [_operator(w, s.num_qubits) for w in words])


def _parity_rows(words: list[int], n: int) -> list[int]:
    """Reduced parity rows r | sign << k of one context's k member words.

    Bit i of r flags words[i]. The words are eliminated in order, phases
    tracked by ``_mul`` as in a stabilizer tableau; each word that reduces
    to +-identity gives a member subset and its sign, 1 for -identity,
    linear in the subset as commuting members square to the identity.
    One rref of these rows gives the context's reduced equations.
    """
    k, low = len(words), (1 << 2 * n) - 1
    basis: list[tuple[int, int, int]] = []  # (pivot bit, word, combination)
    rows = []
    for i, w in enumerate(words):
        combo = 1 << i
        for p, bw, bc in basis:
            if w >> p & 1:
                w, combo = _mul(w, bw, n), combo ^ bc
        if w & low:
            basis.append((gf2.lowest_bit(w & low), w, combo))
        elif w >> 2 * n & 1:
            raise AssertionError(f"member product {_operator(w, n)} is not +-identity")
        else:
            rows.append(combo | (w >> 2 * n + 1) << k)
    return gf2.rref(rows)[0]


def state_independent_theory(s: PauliSet) -> LinearTheory:
    """Parity equations every quantum state's outcomes satisfy.

    For each context, products of member subsets that collapse to +-identity
    pin the mod-2 sum of those outcomes to the product's sign; the theory
    holds each context's reduced basis of them (``_parity_rows``).
    """
    n = s.num_qubits
    words, labels = _vertices(s)
    cover = _cover(words, labels, n)
    equations = []
    for ctx, ctx_words in cover:
        k = len(ctx_words)
        # falling pivots are ascending coefficient tuples, the canonical order
        equations.extend(LinearEquation(ctx, (row >> i & 1 for i in range(k)), row >> k)
                         for row in reversed(_parity_rows(ctx_words, n)))
    scenario = MeasurementScenario(labels, [ctx for ctx, _ in cover], (0, 1), "Z2")
    return LinearTheory._from_reduced(scenario, equations)


def is_state_independent_avn(s: PauliSet, in_closure: bool = False) -> bool:
    """Is the set's (or its closure's) state-independent theory inconsistent?

    Neither builds a theory. The bare set's parity rows go into one affine
    system over the non-identity members, the one ``is_consistent`` solves,
    which stops at the first 0 = 1. The closure is not built either (Kirby
    and Love, PRL 123, 200501, 2019): its theory is inconsistent exactly when
    some commuting a ~ b ~ c outside the centre, the members commuting with
    every member, has a and c anticommuting.
    """
    n = s.num_qubits
    words = [_word(op) for op in s.members if not op.is_identity_like()]
    if in_closure:
        return _intransitive(_neighbors(words, n), (1 << len(words)) - 1)
    system = gf2.AffineBasis(len(words))
    for clique in _cliques(words, n):
        index = [i for i in range(len(words)) if clique >> i & 1]
        for row in _parity_rows([words[i] for i in index], n):
            mask = 0
            for j, i in enumerate(index):
                if row >> j & 1:
                    mask |= 1 << i
            system.add(mask, row >> len(index))
            if system.conflict is not None:
                return True
    return False


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


def find_determining_tree(x: PauliOperator, s: PauliSet) -> DeterminingTree | None:
    """A determining tree for x over s, or None when x escapes the closure."""
    _, deriv = _closure_with_derivations(s)
    if x.num_qubits != s.num_qubits or _word(x) not in deriv:
        return None
    return _replay_tree(_word(x), s.num_qubits, deriv, _leaves(s))


def _replay_tree(
    x: int,
    n: int,
    deriv: dict[int, tuple[int, int] | None],
    memo: dict[int, DeterminingTree],
) -> DeterminingTree | None:
    """Replay the derivations of word x; memo starts as the generators' leaves."""
    if x in memo:
        return memo[x]
    parents = deriv[x]
    if parents is None:
        return None  # identity over an empty generating set
    a, b = parents
    ta = _replay_tree(a, n, deriv, memo)
    tb = _replay_tree(b, n, deriv, memo)
    if ta is None or tb is None:
        return None
    tree = DeterminingTree(_operator(x, n), (ta, tb))
    memo[x] = tree
    return tree


def _leaves(s: PauliSet) -> dict[int, DeterminingTree]:
    return {_word(op): DeterminingTree(op) for op in s.members}


def _replay_dsets(
    s: PauliSet,
    elements: list[int],
    deriv: dict[int, tuple[int, int] | None],
) -> dict[int, int]:
    """Determining set of each replay tree, as a bitmask over s.members."""
    index = {_word(op): i for i, op in enumerate(s.members)}
    dsets: dict[int, int] = {}

    def mask_of(x: int) -> int:
        if x in dsets:
            return dsets[x]
        if x in index:
            m = 1 << index[x]
        else:
            parents = deriv[x]
            if parents is None:
                m = 0
            else:
                m = mask_of(parents[0]) ^ mask_of(parents[1])
        dsets[x] = m
        return m

    for w in elements:
        mask_of(w)
    return dsets


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
    dsets = _replay_dsets(s, elements, deriv)

    generators: list[tuple[int, tuple[int, int]]] = []
    for i, a in enumerate(elements):
        swapped = _swap(a, n)
        for b in elements[i + 1:]:
            if (swapped & b).bit_count() & 1:
                continue
            g = dsets[a] ^ dsets[b] ^ dsets[_mul(a, b, n)]
            if g:
                generators.append((g, (a, b)))

    # the generator masks, each combination over the generators' indices
    basis = gf2.AffineBasis(len(s.members))
    for g, _ in generators:
        basis.add(g, 0)

    elem_set = set(elements)
    sign = 2 << 2 * n  # xor flips the phase by 2, negating the word
    memo = _leaves(s)
    for x in elements:
        neg = x ^ sign
        if neg not in elem_set or neg < x:
            continue
        rest, _, combo = basis.reduce(dsets[x] ^ dsets[neg])
        if rest:
            continue
        tree_x = _replay_tree(x, n, deriv, memo)
        tree_neg = _replay_tree(neg, n, deriv, memo)
        if tree_x is None or tree_neg is None:
            continue
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

# Canonical code of a 4-vertex commutation pattern: edge bits in the order
# (0,1),(0,2),(0,3),(1,2),(1,3),(2,3), minimized over vertex relabelings.
_EDGE_ORDER = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
_PERMS4 = [
    (a, b, c, d)
    for a in range(4) for b in range(4) for c in range(4) for d in range(4)
    if len({a, b, c, d}) == 4
]

GRAPH_CLASS_NAMES = {
    0: "empty",
    1: "single-edge",
    3: "two-adjacent-edges",
    7: "three-edge-star",
    11: "triangle",
    12: "two-disjoint-edges",
    13: "three-edge-path",
    15: "triangle-plus-pendant",
    30: "four-cycle",
    31: "diamond",
    63: "complete",
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
    """Canonical commutation-pattern name of exactly four operators."""
    if len(ops) != 4:
        raise ValidationError("pattern keys are defined for 4-element subsets")
    ordered = sorted(ops, key=_sort_key)
    best = 63
    for perm in _PERMS4:
        code = 0
        for bit, (i, j) in enumerate(_EDGE_ORDER):
            a, b = ordered[perm[i]], ordered[perm[j]]
            if not (a.is_identity_like() or b.is_identity_like()) and a.commutes(b):
                code |= 1 << bit
        best = min(best, code)
    return GRAPH_CLASS_NAMES[best]


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
