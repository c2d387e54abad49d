"""The conjecture scan as a library call."""

import hashlib
import json
import random
from dataclasses import asdict
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

import contextuality.scan
from contextuality import ValidationError
from contextuality.cli import main
from contextuality.pauli import PauliOperator
from contextuality.realize import context_eigenstate
from contextuality.scan import ScanResult, conjecture_scan


def test_library_result_is_the_cli_json(capsys):
    result = conjecture_scan(3, 5, samples=12, states=2, seed=4, exhaustive=False)
    assert isinstance(result, ScanResult)
    assert main(["conjecture-scan", "--max-qubits", "3", "--set-size", "5",
                 "--samples", "12", "--states", "2", "--seed", "4",
                 "--format", "json"]) == 0
    assert asdict(result) == json.loads(capsys.readouterr().out)
    assert result.sets_scanned + result.sets_skipped == 12
    assert result.conjecture_holds is (not result.counterexamples)


@pytest.mark.parametrize("num_qubits, set_size, options, message", [
    (0, 4, {}, "max-qubits"),
    (4, 4, {}, "max-qubits"),
    (2, 1, {}, "set-size must be"),
    (2, 9, {}, "set-size must be"),
    (1, 4, {}, "exceeds the 3 positive Pauli words"),
    (2, 4, {"states": -1}, "states"),
    (2, 4, {"states": 101}, "states"),
    (2, 4, {"samples": 0}, "samples"),
    (2, 4, {"samples": 5001}, "samples"),
    (3, 4, {"exhaustive": True}, "exceeds the 20000 cap"),
])
def test_out_of_range_arguments_raise(num_qubits, set_size, options, message):
    kwargs = dict(samples=10, states=2, seed=0, exhaustive=False) | options
    with pytest.raises(ValidationError, match=message):
        conjecture_scan(num_qubits, set_size, **kwargs)


def test_three_qubit_scan_skips_no_set():
    rng = random.Random(2)  # the scan's own draw, to count its distinct sets
    pool = contextuality.scan._positive_paulis(3)
    drawn = {tuple(sorted(rng.sample(pool, 2), key=str)) for _ in range(60)}
    assert len(drawn) < 60  # some draws repeat
    result = conjecture_scan(3, 2, samples=60, states=0, seed=2, exhaustive=False)
    assert (result.sets_scanned, result.sets_skipped) == (len(drawn), 0)


# --------------------------------------------- probing against the eager reference

def reference_cycle_probes(ops):
    """The eager Bell-facet probes: every facet diagonalized before any test."""
    probes = []
    for quad in combinations(ops, 4):
        for a1, a2, b1, b2 in ((quad[0], quad[1], quad[2], quad[3]),
                               (quad[0], quad[2], quad[1], quad[3]),
                               (quad[0], quad[3], quad[1], quad[2])):
            if a1.commutes(a2) or b1.commutes(b2):
                continue
            if not all(a.commutes(b) for a in (a1, a2) for b in (b1, b2)):
                continue
            mats = {p: p.to_matrix() for p in quad}
            for minus in range(4):
                terms = [mats[a1] @ mats[b1], mats[a1] @ mats[b2],
                         mats[a2] @ mats[b1], mats[a2] @ mats[b2]]
                facet = sum(-t if i == minus else t for i, t in enumerate(terms))
                vals, vecs = np.linalg.eigh(facet)
                top = vecs[:, int(np.argmax(vals))]
                snapped = [(Fraction(float(c.real)).limit_denominator(64),
                            Fraction(float(c.imag)).limit_denominator(64))
                           for c in top]
                if any(re or im for re, im in snapped):
                    probes.append(snapped)
    return probes


def reference_probe_states(pset, scenario, num_random, rng, *_order):
    """Context eigenstates, Bell-facet eigenvectors, then random vectors, on every set."""
    probes = []
    for ctx in scenario.contexts:
        ops = [PauliOperator.from_string(m) for m in ctx.members]
        vec = context_eigenstate(ops)
        for _ in range(4):
            if vec is not None:
                break
            vec = context_eigenstate(ops, [rng.randrange(2) for _ in ops])
        if vec is not None:
            probes.append(vec)
    probes.extend(reference_cycle_probes(pset.members))
    dim = 1 << pset.num_qubits
    probes.extend(contextuality.scan._random_rational_state(dim, rng)
                  for _ in range(num_random))
    return probes


PROBED_SCANS = [
    (2, 3, dict(samples=1, states=2, seed=0, exhaustive=True)),
    (2, 4, dict(samples=1, states=2, seed=0, exhaustive=True)),
] + [(3, k, dict(samples=24, states=k % 4, seed=k, exhaustive=False)) for k in range(4, 9)]


def scan_both_ways(monkeypatch):
    """(result, result with the eager reference probing) per scan of PROBED_SCANS."""
    pairs = [[conjecture_scan(n, k, **options)] for n, k, options in PROBED_SCANS]
    with monkeypatch.context() as patch:
        patch.setattr(contextuality.scan, "_probe_states", reference_probe_states)
        for pair, (n, k, options) in zip(pairs, PROBED_SCANS):
            pair.append(conjecture_scan(n, k, **options))
    return pairs


def test_facet_first_probing_matches_eager_reference(monkeypatch):
    pairs = scan_both_ways(monkeypatch)
    assert all(new == old for new, old in pairs)
    assert sum(new.contextual_count for new, _ in pairs) > 90
    # every contextual set is closure AvN, so facets go first on each of them
    assert all(new.conjecture_holds for new, _ in pairs)


def test_counterexample_states_match_eager_reference(monkeypatch):
    # with no set closure AvN, every witness is printed: the order must stay
    monkeypatch.setattr(contextuality.scan, "is_state_independent_avn",
                        lambda pset, in_closure: False)
    pairs = scan_both_ways(monkeypatch)
    assert all(new == old for new, old in pairs)
    counts = [len(new.counterexamples) for new, _ in pairs]
    assert counts == [0, 90, 0, 5, 13, 16, 23]
    assert all(ce["state"] for new, _ in pairs for ce in new.counterexamples)


def test_scan_output_pin(capsys):
    # sha256 of the JSON report recorded before the probe order changed
    assert main(["conjecture-scan", "--max-qubits", "3", "--set-size", "6",
                 "--samples", "200", "--seed", "5", "--states", "2",
                 "--format", "json"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
        "ce77728f77aa80791d77c6080d339f60c220d44bcb0a059ed44e3a5cc525b8bd")


def test_exhaustive_2q_scan_realizes_one_probe_per_contextual_set(monkeypatch):
    real_realize, real_eigh = contextuality.scan.realize_model_exact, np.linalg.eigh
    calls = {"realize": 0, "eigh": 0}

    def counting_realize(vec, scenario):
        calls["realize"] += 1
        return real_realize(vec, scenario)

    def counting_eigh(matrix):
        calls["eigh"] += 1
        return real_eigh(matrix)

    monkeypatch.setattr(contextuality.scan, "realize_model_exact", counting_realize)
    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    result = conjecture_scan(2, 4, samples=1, states=2, seed=0, exhaustive=True)
    assert result.contextual_count == 90
    # the first Bell-facet vector witnesses on each of the 90 cyclic covers
    # (eagerly: 450 realizations and 360 eigh calls)
    assert calls == {"realize": 90, "eigh": 90}
