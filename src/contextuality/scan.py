"""The conjecture scan: Pauli sets contextual for some state, not closure AvN.

The paper claims Kochen-Specker contextuality becomes a state-independent
all-versus-nothing argument once a set is partially closed. A set that an
exact rational probe state makes contextual, but whose closure is not AvN,
is a counterexample. Floats only seed the Bell-facet probes.

Each set is decided on its commutation graph: closure AvN is Kirby-Love
intransitivity, and the cover is acyclic, so noncontextual for every
state, exactly when the graph is chordal (``pauli._chordal``). Only the
other sets get a cover and probe states; a set that is not closure AvN
always has a chordal graph, so it is never probed.

A cyclic cover is probed until the first state whose exactly realized
model has no global distribution. On a closure-AvN set the Bell-facet
eigenvectors are tried first: the report keeps only whether a witness
exists there, which no order changes. A facet vector is what witnesses
on a 4-cycle of 2-member contexts, where a joint eigenstate of one
context reaches CHSH value 1, below the noncontextual bound 2. On every
other set the witness is printed as the counterexample's state, so the
probes keep their order: context eigenstates, facet vectors, random
states. Either way the random draws are made before any probe is tested,
so every order consumes the same random stream.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations

import numpy as np

from .analysis import find_global_distribution
from .errors import ValidationError
from .pauli import (PauliOperator, PauliSet, _chordal, _neighbors, _word,
                    is_state_independent_avn, scenario_of)
from .realize import context_eigenstate, realize_model_exact


@dataclass(frozen=True)
class ScanResult:
    """A scan's findings; the fields are the JSON report's keys, in order."""

    num_qubits: int
    set_size: int
    sets_scanned: int
    sets_skipped: int
    closure_avn_count: int
    contextual_count: int
    counterexamples: list[dict]
    unwitnessed_avn: list[list[str]]
    conjecture_holds: bool


def _positive_paulis(num_qubits: int) -> list[PauliOperator]:
    # phase = Y count gives sign exponent 0: the unsigned letter words
    return [PauliOperator(num_qubits, (x & z).bit_count(), x, z)
            for x in range(1 << num_qubits) for z in range(1 << num_qubits) if x or z]


def _random_rational_state(dim: int, rng: random.Random):
    while True:
        vec = [(Fraction(rng.randrange(-2, 3)), Fraction(rng.randrange(-2, 3)))
               for _ in range(dim)]
        if any(re or im for re, im in vec):
            return vec


def _cycle_probes(ops):
    """Rationalized top eigenvectors of Bell-facet operators, built lazily.

    Every induced 4-cycle a1-b1-a2-b2 in the commutation graph carries the
    facet operator a1 b1 + a1 b2 + a2 b1 - a2 b2, whose top eigenvector is
    the natural candidate for a contextual realization. The float
    eigenvector only seeds the probe; the contextuality test downstream is
    exact on the snapped rational state. A generator, so that no matrix is
    built or diagonalized past the first witness; it draws no random number.
    """
    for quad in combinations(ops, 4):
        for a1, a2, b1, b2 in ((quad[0], quad[1], quad[2], quad[3]),
                               (quad[0], quad[2], quad[1], quad[3]),
                               (quad[0], quad[3], quad[1], quad[2])):
            if a1.commutes(a2) or b1.commutes(b2):
                continue
            if not all(a.commutes(b) for a in (a1, a2) for b in (b1, b2)):
                continue
            mats = {p: p.to_matrix() for p in quad}
            terms = [mats[a1] @ mats[b1], mats[a1] @ mats[b2],
                     mats[a2] @ mats[b1], mats[a2] @ mats[b2]]
            for minus in range(4):
                facet = sum(-t if i == minus else t for i, t in enumerate(terms))
                vals, vecs = np.linalg.eigh(facet)
                top = vecs[:, int(np.argmax(vals))]
                snapped = [(Fraction(float(c.real)).limit_denominator(64),
                            Fraction(float(c.imag)).limit_denominator(64))
                           for c in top]
                if any(re or im for re, im in snapped):
                    yield snapped


def _probe_states(pset, scenario, num_random: int, rng: random.Random,
                  facets_first: bool = False):
    """Context eigenstates, Bell-facet eigenvectors, then random vectors.

    ``facets_first`` puts the Bell-facet eigenvectors first, for closure-AvN
    sets, whose report shows only whether a witness exists. Every random
    draw is made here, so later sets see the same stream wherever a witness
    turns up; the facet vectors are built only as far as the caller reads.
    """
    eigenstates = []
    for ctx in scenario.contexts:
        ops = [PauliOperator.from_string(m) for m in ctx.members]
        vec = context_eigenstate(ops)
        for _ in range(4):
            if vec is not None:
                break
            vec = context_eigenstate(ops, [rng.randrange(2) for _ in ops])
        if vec is not None:
            eigenstates.append(vec)
    dim = 1 << pset.num_qubits
    randoms = [_random_rational_state(dim, rng) for _ in range(num_random)]
    facets = _cycle_probes(pset.members)
    if facets_first:
        return chain(facets, eigenstates, randoms)
    return chain(eigenstates, facets, randoms)


def conjecture_scan(num_qubits: int, set_size: int, *, samples: int, states: int,
                    seed: int, exhaustive: bool) -> ScanResult:
    """Scan k-element sets of positive Pauli words on ``num_qubits`` qubits.

    Every subset with ``exhaustive``, else ``samples`` draws (repeats once) from ``seed``.
    A cyclic cover is probed with ``states`` random rational states besides
    its context eigenstates and Bell-facet eigenvectors. A set whose
    commutation graph is chordal has an acyclic cover, noncontextual for
    every state, and gets no cover or probe. Bad arguments raise
    ``ValidationError``. Closure AvN is decided without a closure, so no
    set is skipped.
    """
    n, k = num_qubits, set_size
    if not 1 <= n <= 3:
        raise ValidationError("max-qubits must be between 1 and 3")
    if not 2 <= k <= 8:
        raise ValidationError("set-size must be between 2 and 8")
    if not 0 <= states <= 100:
        raise ValidationError("states must be between 0 and 100")
    pool = _positive_paulis(n)
    if k > len(pool):
        raise ValidationError(
            f"set-size {k} exceeds the {len(pool)} positive Pauli words on {n} qubit(s)")
    labels = [str(op) for op in pool]
    words = [_word(op) for op in pool]
    neighbors = _neighbors(words, n)
    rng = random.Random(seed)
    # sets are tuples of pool indices: sampling a range draws the indices
    # that sampling the pool would, from the same random stream
    if exhaustive:
        total = math.comb(len(pool), k)
        if total > 20000:
            raise ValidationError(
                f"exhaustive scan of {total} subsets exceeds the 20000 cap")
        subsets = combinations(range(len(pool)), k)
    else:
        if not 1 <= samples <= 5000:
            raise ValidationError("samples must be between 1 and 5000")
        drawn = {tuple(sorted(rng.sample(range(len(pool)), k), key=labels.__getitem__))
                 for _ in range(samples)}
        subsets = sorted(drawn, key=lambda index: [labels[i] for i in index])

    found = []  # (pool indices, closure AvN, first witness state or None) per set
    for index in subsets:
        pset = PauliSet(n, [pool[i] for i in index])
        avn = is_state_independent_avn(pset, in_closure=True)
        witness = None
        # a chordal commutation graph has an acyclic cover: noncontextual for every state
        if not _chordal(neighbors, sum(1 << i for i in index)):
            scenario = scenario_of(pset)
            witness = next((vec for vec in _probe_states(pset, scenario, states, rng, avn)
                            if find_global_distribution(
                                realize_model_exact(vec, scenario)) is None), None)
        found.append((index, avn, witness))

    def members(index):  # labels in member order, which is word order
        return [labels[i] for i in sorted(index, key=words.__getitem__)]

    counterexamples = [{"paulis": members(index),
                        "state": [[str(re), str(im)] for re, im in vec]}
                       for index, avn, vec in found if vec is not None and not avn]
    return ScanResult(
        num_qubits=n, set_size=k, sets_scanned=len(found), sets_skipped=0,
        closure_avn_count=sum(avn for _, avn, _ in found),
        contextual_count=sum(vec is not None for _, _, vec in found),
        counterexamples=counterexamples,
        unwitnessed_avn=[members(index) for index, avn, vec in found if avn and vec is None],
        conjecture_holds=not counterexamples)
