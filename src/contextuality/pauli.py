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
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import gf2
from .errors import ClosureLimitError, ParseError, ValidationError
from .linear_theory import LinearEquation, LinearTheory, is_consistent
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
        y_count = bin(x & z).count("1")
        return cls(len(body), (phase + y_count) % 4, x, z)

    def letters(self) -> str:
        return "".join(
            _LETTERS[((self.x >> j) & 1, (self.z >> j) & 1)]
            for j in range(self.num_qubits))

    def sign_exponent(self) -> int:
        """Exponent of i in front of the bare letter word."""
        return (self.phase - bin(self.x & self.z).count("1")) % 4

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
        phase = self.phase + other.phase + 2 * bin(self.z & other.x).count("1")
        return PauliOperator(self.num_qubits, phase, self.x ^ other.x, self.z ^ other.z)

    def commutes(self, other: "PauliOperator") -> bool:
        if self.num_qubits != other.num_qubits:
            raise ValidationError("qubit counts differ")
        anti = bin(self.x & other.z).count("1") + bin(self.z & other.x).count("1")
        return anti % 2 == 0

    def to_matrix(self) -> np.ndarray:
        """Dense matrix, qubit 0 as the leftmost tensor factor."""
        out = np.array([[1j ** self.phase]], dtype=complex)
        for j in range(self.num_qubits):
            xb, zb = (self.x >> j) & 1, (self.z >> j) & 1
            word = _SINGLE["X"] @ _SINGLE["Z"] if xb and zb else (
                _SINGLE["X"] if xb else _SINGLE["Z"] if zb else _SINGLE["I"])
            out = np.kron(out, word)
        return out


def multiply(a: PauliOperator, b: PauliOperator) -> PauliOperator:
    return a * b


def commutes(a: PauliOperator, b: PauliOperator) -> bool:
    return a.commutes(b)


def identity(num_qubits: int) -> PauliOperator:
    return PauliOperator(num_qubits, 0, 0, 0)


def _sort_key(op: PauliOperator) -> tuple[int, int, int]:
    return (op.phase, op.x, op.z)


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


@dataclass(frozen=True)
class CommutationGraph:
    """Commutation relation on a set, identity-like vertices carrying no edges."""

    vertices: PauliSet
    edges: tuple[tuple[PauliOperator, PauliOperator], ...]


def commutation_graph(s: PauliSet) -> CommutationGraph:
    edges = []
    for a, b in combinations(s.members, 2):
        if a.is_identity_like() or b.is_identity_like():
            continue
        if a.commutes(b):
            edges.append((a, b))
    return CommutationGraph(s, tuple(edges))


def _max_cliques(neighbors: list[set[int]]) -> list[frozenset[int]]:
    """Bron-Kerbosch with pivoting, deterministic vertex order."""
    out: list[frozenset[int]] = []

    def expand(r: set[int], p: set[int], x: set[int]) -> None:
        if not p and not x:
            out.append(frozenset(r))
            return
        pivot = max(sorted(p | x), key=lambda v: len(neighbors[v] & p))
        for v in sorted(p - neighbors[pivot]):
            expand(r | {v}, p & neighbors[v], x & neighbors[v])
            p.remove(v)
            x.add(v)

    expand(set(), set(range(len(neighbors))), set())
    return out


def measurement_cover(s: PauliSet) -> tuple[Context, ...]:
    """Maximal pairwise-commuting subsets as contexts, identity-likes dropped.

    Maximal cliques of a graph are never nested, so the result is a
    covering anti-chain over the non-identity members by construction.
    """
    verts = [op for op in s.members if not op.is_identity_like()]
    neighbors = [set() for _ in verts]
    for i, j in combinations(range(len(verts)), 2):
        if verts[i].commutes(verts[j]):
            neighbors[i].add(j)
            neighbors[j].add(i)
    cliques = _max_cliques(neighbors) if verts else []
    return tuple(sorted(Context(str(verts[i]) for i in clique) for clique in cliques))


def scenario_of(s: PauliSet) -> MeasurementScenario:
    """The Z2 measurement scenario a Pauli set generates."""
    labels = [str(op) for op in s.members if not op.is_identity_like()]
    return MeasurementScenario(labels, measurement_cover(s), (0, 1), "Z2")


def _closure_with_derivations(
    s: PauliSet,
) -> tuple[list[PauliOperator], dict[PauliOperator, tuple[PauliOperator, PauliOperator] | None]]:
    """Least product-closed superset, remembering one derivation per element.

    Seeds (members of s) carry derivation None; the identity, when not a
    seed, is derived from any seed squared. Derivations only reference
    elements discovered earlier, so replay terminates.
    """
    ident = identity(s.num_qubits)
    deriv: dict[PauliOperator, tuple[PauliOperator, PauliOperator] | None] = {}
    for op in s.members:
        deriv[op] = None
    if ident not in deriv:
        first = s.members[0] if s.members else None
        deriv[ident] = (first, first) if first else None
    frontier = sorted(deriv, key=_sort_key)
    elements = set(deriv)
    while frontier:
        added: dict[PauliOperator, tuple[PauliOperator, PauliOperator]] = {}
        ordered = sorted(elements, key=_sort_key)
        for a in ordered:
            for b in frontier:
                if a == b or not a.commutes(b):
                    continue
                prod = a * b
                if prod not in elements and prod not in added:
                    added[prod] = (a, b)
                    if len(elements) + len(added) > CLOSURE_LIMIT:
                        raise ClosureLimitError(
                            f"partial closure exceeds {CLOSURE_LIMIT} members")
        deriv.update(added)
        elements.update(added)
        frontier = sorted(added, key=_sort_key)
    return sorted(elements, key=_sort_key), deriv


def partial_closure(s: PauliSet) -> PauliSet:
    """Close under products of commuting members; the identity is always in.

    Signed elements stay distinct, so closures of contradictory sets
    contain both x and -x. Refuses past 4096 members.
    """
    elements, _ = _closure_with_derivations(s)
    return PauliSet(s.num_qubits, elements)


def state_independent_theory(s: PauliSet) -> LinearTheory:
    """Parity equations every quantum state's outcomes satisfy.

    For each context, products of member subsets that collapse to +-identity
    pin the mod-2 sum of those outcomes to the product's sign. The subsets
    form the kernel of the context's bit matrix, and the sign is linear in
    the kernel because Hermitian members square to the identity.
    """
    scenario = scenario_of(s)
    by_label = {str(op): op for op in s.members if not op.is_identity_like()}
    equations = []
    for ctx in scenario.contexts:
        ops = [by_label[m] for m in ctx.members]
        k = len(ops)
        width = 2 * s.num_qubits
        transpose = []
        for bit in range(width):
            row = 0
            for i, op in enumerate(ops):
                word = op.x | (op.z << s.num_qubits)
                row |= ((word >> bit) & 1) << i
            transpose.append(row)
        for r in gf2.nullspace(transpose, k):
            prod = identity(s.num_qubits)
            for i in range(k):
                if (r >> i) & 1:
                    prod = prod * ops[i]
            if not prod.is_identity_like() or prod.phase % 2:
                raise AssertionError(f"kernel product {prod} is not +-identity")
            equations.append(LinearEquation(
                ctx, tuple((r >> i) & 1 for i in range(k)), (prod.phase >> 1) & 1))
    return LinearTheory(scenario, equations)


def is_state_independent_avn(s: PauliSet, in_closure: bool = False) -> bool:
    """Is the set's (or its closure's) state-independent theory inconsistent?"""
    target = partial_closure(s) if in_closure else s
    return not is_consistent(state_independent_theory(target)).consistent


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
    if x not in deriv:
        return None
    return _replay_tree(x, s, deriv, {})


def _replay_tree(
    x: PauliOperator,
    s: PauliSet,
    deriv: dict[PauliOperator, tuple[PauliOperator, PauliOperator] | None],
    memo: dict[PauliOperator, DeterminingTree],
) -> DeterminingTree | None:
    if x in memo:
        return memo[x]
    if x in s.members:
        tree = DeterminingTree(x)
    else:
        parents = deriv[x]
        if parents is None:
            return None  # identity over an empty generating set
        a, b = parents
        ta = _replay_tree(a, s, deriv, memo)
        tb = _replay_tree(b, s, deriv, memo)
        if ta is None or tb is None:
            return None
        tree = DeterminingTree(x, (ta, tb))
    memo[x] = tree
    return tree


def _replay_dsets(
    s: PauliSet,
    elements: list[PauliOperator],
    deriv: dict[PauliOperator, tuple[PauliOperator, PauliOperator] | None],
) -> dict[PauliOperator, int]:
    """Determining set of each replay tree, as a bitmask over s.members."""
    index = {op: i for i, op in enumerate(s.members)}
    dsets: dict[PauliOperator, int] = {}

    def mask_of(x: PauliOperator) -> int:
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

    for op in elements:
        mask_of(op)
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
    elements, deriv = _closure_with_derivations(s)
    dsets = _replay_dsets(s, elements, deriv)

    generators: list[tuple[int, tuple[PauliOperator, PauliOperator]]] = []
    for i, a in enumerate(elements):
        for b in elements[i:]:
            if a == b or not a.commutes(b):
                continue
            g = dsets[a] ^ dsets[b] ^ dsets[a * b]
            if g:
                generators.append((g, (a, b)))

    # rref over the generator masks, tracking which generators combine
    basis: dict[int, tuple[int, int]] = {}  # pivot -> (mask, combo over generators)
    for gi, (g, _) in enumerate(generators):
        combo = 1 << gi
        for p, (bm, bc) in basis.items():
            if (g >> p) & 1:
                g ^= bm
                combo ^= bc
        if g:
            basis[gf2.lowest_bit(g)] = (g, combo)

    def span_combo(target: int) -> int | None:
        combo = 0
        for p, (bm, bc) in basis.items():
            if (target >> p) & 1:
                target ^= bm
                combo ^= bc
        return combo if target == 0 else None

    elem_set = set(elements)
    for x in elements:
        neg = x.negate()
        if neg not in elem_set or _sort_key(neg) < _sort_key(x):
            continue
        combo = span_combo(dsets[x] ^ dsets[neg])
        if combo is None:
            continue
        memo: dict[PauliOperator, DeterminingTree] = {}
        tree_x = _replay_tree(x, s, deriv, memo)
        tree_neg = _replay_tree(neg, s, deriv, memo)
        if tree_x is None or tree_neg is None:
            continue
        for gi, (_, (a, b)) in enumerate(generators):
            if not (combo >> gi) & 1:
                continue
            prod = a * b
            via_pair = DeterminingTree(prod, (
                _replay_tree(a, s, deriv, memo), _replay_tree(b, s, deriv, memo)))
            via_replay = _replay_tree(prod, s, deriv, memo)
            gadget = DeterminingTree(identity(s.num_qubits), (via_pair, via_replay))
            tree_neg = DeterminingTree(neg, (tree_neg, gadget))
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

# Closure-AvN verdict by commutation pattern for 4-element sets of
# two-qubit observables, derived by exhausting all 1365 4-subsets of the
# fifteen positive nontrivial two-qubit Paulis with the direct closure
# decision; every class that occurs is unanimous. The triangle, diamond,
# and complete patterns cannot occur on two qubits: two elements of a
# triangle determine the third up to sign, so a fourth vertex that
# commutes, or anticommutes, with two of them always commutes with the
# third, and a commuting 4-clique would need a fourth positive element
# in a maximal abelian subgroup that has only three.
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

    The direct closure decision is the source of truth; the cached
    PATTERN_TABLE classifies the reported subset. Returns the
    lexicographically least positive subset in canonical member order.
    """
    for subset in combinations(s.members, 4):
        sub = PauliSet(s.num_qubits, subset)
        if is_state_independent_avn(sub, in_closure=True):
            return PatternTestResult(True, subset, pattern_key(subset))
    return PatternTestResult(False, None, None)
