"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py

They check that per-layer counts repeat exactly for a seed, that a wrong
answer or a corrupted recorded digest counts as a mismatch, that the
references agree with the package on inputs where both are defined, and
that the benchmark refuses to run without the package source.
"""

from __future__ import annotations

import contextlib
import os
import random
import shutil
import subprocess
import sys
from argparse import Namespace
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def prepared(request):
    """Set up a workload for seed 7; removes its input files afterwards."""
    main, workload, pool, workdir = run.setup(request.param, 7)
    yield main, workload, pool, workdir
    shutil.rmtree(workdir, ignore_errors=True)
    with contextlib.suppress(OSError):
        os.rmdir(run.WORK)


def _counts(metrics: dict) -> dict:
    return {k: v["value"] for k, v in metrics.items()
            if v["unit"] in ("count", "ratio") and not k.startswith("trace.accounted")}


@pytest.mark.parametrize("prepared", sorted(workloads.WORKLOADS), indirect=True)
def test_layer_counts_repeat_for_a_seed(prepared):
    main, workload, pool, workdir = prepared
    args = Namespace(seconds=1, seed=7)
    first = run.per_layer(args, main, workload, pool, {})
    second = run.per_layer(args, main, workload, pool, {})
    assert first[1:3] == (0, 0) and second[1:3] == (0, 0)
    counts = _counts(first[3])
    assert counts == _counts(second[3])
    assert any(v for k, v in counts.items() if k.endswith(".calls"))
    # every span is nested in its parent, so self times add up
    assert first[3]["trace.accounted_share"]["value"] == pytest.approx(1.0)


@pytest.mark.parametrize("prepared", ["closure-mix"], indirect=True)
def test_wrong_answers_count_as_mismatches(prepared):
    main, workload, pool, workdir = prepared
    outcomes = run.run_requests(main, workload, pool, range(6))
    digests = [o.digest for o in outcomes]
    reference = digests + [None] * (len(pool) - len(digests))

    run.check_outcomes(workload, pool, outcomes, reference)
    assert run.tally(outcomes) == (0, 0)

    for o in outcomes:
        o.problems = []
    reference[1] = "0" * 16  # corrupted recorded answer
    run.check_outcomes(workload, pool, outcomes, reference)
    assert run.tally(outcomes) == (0, 1)

    for o in outcomes:
        o.problems = []
    closure = outcomes[3]
    assert pool[closure.index].meta["command"] == "closure"
    closure.summary["si_avn"] = not closure.summary["si_avn"]  # wrong verdict
    run.check_outcomes(workload, pool, outcomes, None)
    errors, mismatches = run.tally(outcomes)
    assert errors == 0 and mismatches >= 2  # closure and si-avn now disagree


@pytest.mark.parametrize("prepared", ["ncf-xy"], indirect=True)
def test_ncf_reference_catches_a_wrong_fraction(prepared):
    main, workload, pool, workdir = prepared
    outcomes = run.run_requests(main, workload, pool, range(1))
    honest = outcomes[0].summary
    assert workload.check(pool[:1], [honest]) == [[]]
    ncf = Fraction(honest["ncf"]) * Fraction(999, 1000)
    wrong = dict(honest, ncf=str(ncf), cf=str(1 - ncf))
    assert workload.check(pool[:1], [wrong]) != [[]]


def test_born_rows_match_the_package():
    sys.path.insert(0, run.SRC)
    from contextuality.corpus import xy322_scenario
    from contextuality.realize import realize_model_exact

    rng = random.Random(3)
    amps = [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(8)]
    model = realize_model_exact([(Fraction(a), Fraction(b)) for a, b in amps],
                                xy322_scenario())
    mine = oracle.xy_rows(amps)
    for ctx, dist in model.rows.items():
        theirs = {s.to_string(): w for s, w in dist.weights.items() if w}
        assert theirs == mine[ctx.key()]


def test_pauli_closure_matches_the_package():
    sys.path.insert(0, run.SRC)
    from contextuality.pauli import PauliSet, partial_closure

    rng = random.Random(5)
    for _ in range(20):
        n = rng.choice((2, 3))
        words = sorted({"".join(rng.choice("IXYZ") for _ in range(n))
                        for _ in range(rng.randint(2, 5))} - {"I" * n})
        theirs = {str(p) for p in partial_closure(PauliSet.from_strings(words)).members}
        mine = oracle.pauli_closure([oracle.pauli_word(w) for w in words])
        assert theirs == {oracle.pauli_label(m, n) for m in mine}


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan-3q", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
