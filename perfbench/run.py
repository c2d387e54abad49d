"""Benchmark of the contextuality CLI, driven in-process.

    python3 perfbench/run.py --workload scan-3q --seed 1 --seconds 30 --trace 0

One process, one client, a closed loop: each request is one call of
``contextuality.cli.main(argv)`` on inputs generated from ``--seed``, and
the next request starts when the previous one returns. With ``--trace 0``
the loop runs for ``--seconds`` and the end-to-end metrics are printed;
with ``--trace 1`` a fixed number of requests runs untraced and then
traced, and the per-layer metrics are printed. Every answer is checked
(see workloads.py and oracle.py). The last line of stdout is the result
object; the line before it holds run notes and machine details.

Exit status is 0 when the run completed, whatever its checks found, and
2 when the package source cannot be found next to this directory.
"""

from __future__ import annotations

import os

# one thread of BLAS, so numpy eigh in the probe path does not
# oversubscribe a small machine; must precede the first numpy import
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
REFERENCE = os.path.join(HERE, "reference")
SETUP_PROBES = 3  # set-ups timed per run; setup_s is their median

sys.path.insert(0, HERE)
import workloads  # noqa: E402
from tracer import SPAN_NAMES, Tracer  # noqa: E402


class Outcome:
    """One request as run: its latency, CPU time, and checked answer."""

    __slots__ = ("index", "latency_s", "cpu_s", "rc", "summary", "digest", "problems")

    def __init__(self, index, latency_s, cpu_s, rc):
        self.index = index
        self.latency_s = latency_s
        self.cpu_s = cpu_s
        self.rc = rc
        self.summary = None
        self.digest = None
        self.problems: list[str] = []


def _call(main, argv):
    """Run one request; returns (latency s, CPU s, exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        try:
            rc = main(argv)
        except Exception:  # a traceback is an error outcome, not a crash
            rc = None
            err.write(traceback.format_exc())
        latency = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
    return latency, cpu, rc, out.getvalue()


def _finish(outcome: Outcome, workload, req, text: str) -> None:
    """Summarize an answer right after it is timed, outside the timing."""
    if outcome.rc != 0:
        return
    try:
        answer = json.loads(text)
        outcome.summary = workload.summarize(req, answer)
    except (ValueError, KeyError, TypeError) as exc:
        outcome.problems.append(f"malformed answer: {exc!r}")
        return
    outcome.digest = workloads.answer_digest(answer)


def run_requests(main, workload, pool, indices, deadline=None):
    """Closed loop over pool[i % len(pool)] for i in indices, or until deadline."""
    done = []
    for i in indices:
        if deadline is not None and time.perf_counter() >= deadline:
            break
        req = pool[i % len(pool)]
        latency, cpu, rc, text = _call(main, req.argv)
        outcome = Outcome(i, latency, cpu, rc)
        _finish(outcome, workload, req, text)
        done.append(outcome)
    return done


def load_reference(workload_name: str, seed: int) -> list[str] | None:
    """Answer digests recorded at the seed commit, or None if unrecorded."""
    path = os.path.join(REFERENCE, f"{workload_name}.json")
    try:
        with open(path) as fh:
            return json.load(fh)["seeds"].get(str(seed))
    except FileNotFoundError:
        return None


def check_outcomes(workload, pool, outcomes, reference) -> None:
    """Attach problems: reference checks, invariants, recorded digests."""
    answered = [o for o in outcomes if o.summary is not None]
    reqs = [pool[o.index % len(pool)] for o in answered]
    for o, problems in zip(answered, workload.check(reqs, [o.summary for o in answered])):
        o.problems.extend(problems)
        if reference is not None:
            want = reference[o.index % len(pool)] if len(reference) == len(pool) else None
            if o.digest != want:
                o.problems.append(f"answer digest {o.digest} != recorded {want}")


def tally(outcomes):
    errors = sum(o.rc != 0 for o in outcomes)
    mismatches = sum(o.rc == 0 and bool(o.problems) for o in outcomes)
    return errors, mismatches


# ------------------------------------------------------------------ set-up

def setup(workload_name: str, seed: int):
    """Import the package, generate the inputs, warm up. Returns the state."""
    if not os.path.isfile(os.path.join(SRC, "contextuality", "__init__.py")):
        sys.stderr.write(f"error: package source not found under {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, SRC)
    from contextuality.cli import main

    workload = workloads.WORKLOADS[workload_name]
    workdir = os.path.join(WORK, f"{workload_name}-{seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    pool = workload.generate(seed, workdir)
    for argv in workload.warmup(workdir):
        _, _, rc, _ = _call(main, argv)
        if rc != 0:
            raise RuntimeError(f"warm-up request {argv} exited {rc}")
    return main, workload, pool, workdir


def probe_setup_s(workload_name: str, seed: int) -> list[float]:
    """Wall time from spawning a fresh interpreter to its first ready request."""
    times = []
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload_name,
           "--seed", str(seed), "--seconds", "1", "--trace", "0", "--setup-only"]
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            if proc.wait(timeout=60) != 0 or line.strip() != "ready":
                raise RuntimeError(f"set-up probe failed: {line!r}")
        times.append(elapsed)
    return times


# ----------------------------------------------------------------- metrics

def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) at the highest percentile that
    leaves at least ten samples above it; the maximum under 11 samples."""
    ordered = sorted(latencies)
    n = len(ordered)
    j = max(0, n - 11)
    return ordered[j], 100.0 * (j + 1) / n, n - 1 - j


def machine_notes() -> dict:
    import numpy
    import scipy

    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(args, main, workload, pool, notes):
    deadline = time.perf_counter() + args.seconds
    outcomes = run_requests(main, workload, pool, itertools.count(), deadline=deadline)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    reference = load_reference(workload.name, args.seed)
    check_outcomes(workload, pool, outcomes, reference)
    errors, mismatches = tally(outcomes)
    setup_times = probe_setup_s(workload.name, args.seed)

    ok = [o for o in outcomes if o.rc == 0]
    verdicts = sum(pool[o.index % len(pool)].verdicts for o in ok)
    latencies = [o.latency_s for o in outcomes]
    tail_s, tail_pct, beyond = tail(latencies)
    notes.update({
        "requests": len(outcomes), "verdicts": round(verdicts, 6),
        "reference_recorded": reference is not None,
        "error_rate": errors / len(outcomes), "mismatch_rate": mismatches / len(outcomes),
        "latency_tail_percentile": round(tail_pct, 2), "latency_tail_beyond": beyond,
        "latency_samples": len(latencies), "setup_probes_s": setup_times,
    })
    metrics = {
        "setup_s": metric(statistics.median(setup_times), "s"),
        "verdicts_per_s": metric(verdicts / sum(o.latency_s for o in ok), "1/s"),
        "latency_p50_ms": metric(1000 * statistics.median(latencies), "ms"),
        "latency_tail_ms": metric(1000 * tail_s, "ms"),
        "cpu_ms_per_verdict": metric(1000 * sum(o.cpu_s for o in ok) / verdicts, "ms"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
    }
    return outcomes, errors, mismatches, metrics


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(args, main, workload, pool, notes):
    """Each of n requests runs once untraced and once traced, the order
    alternating, so warm-up and drift fall on both sides of the overhead."""
    n = workload.trace_requests(args.seconds)
    tracer = Tracer()
    plain, traced = [], []
    for i in range(n):
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if with_trace:
                tracer.install()
                try:
                    traced += run_requests(main, workload, pool, [i])
                finally:
                    tracer.uninstall()
            else:
                plain += run_requests(main, workload, pool, [i])
    reference = load_reference(workload.name, args.seed)
    check_outcomes(workload, pool, plain, reference)
    check_outcomes(workload, pool, traced, reference)
    outcomes = plain + traced
    errors, mismatches = tally(outcomes)

    request_s = sum(o.latency_s for o in traced)
    layer_self = sum(tracer.self_s.values())
    cli_self = request_s - tracer.top_s
    c = tracer.counts
    sets_scanned = sum(o.summary.get("sets_scanned", 0) for o in traced if o.summary)
    p50_plain = statistics.median(o.latency_s for o in plain)
    p50_traced = statistics.median(o.latency_s for o in traced)
    notes.update({"requests": len(outcomes), "traced_requests": n,
                  "reference_recorded": reference is not None,
                  "error_rate": errors / len(outcomes),
                  "mismatch_rate": mismatches / len(outcomes)})

    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = metric(tracer.calls[name], "count")
        metrics[f"{name}.self_s"] = metric(tracer.self_s[name], "s")
    metrics.update({
        "cli.self_s": metric(cli_self, "s"),
        "analysis.incidence_columns": metric(c["analysis.incidence_columns"], "count"),
        "analysis.survivor_ratio": metric(
            _ratio(c["analysis.lp_columns"], c["analysis.incidence_columns"]), "ratio"),
        "analysis.sections_enumerated": metric(c["analysis.sections_enumerated"], "count"),
        "exactlp.maximize.cells": metric(c["exactlp.maximize.cells"], "count"),
        "exactlp.feasible_equalities.cells": metric(
            c["exactlp.feasible_equalities.cells"], "count"),
        "exactlp.feasible_equalities.infeasible_ratio": metric(_ratio(
            c["exactlp.feasible_equalities.infeasible"],
            tracer.calls["exactlp.feasible_equalities"]), "ratio"),
        "realize.probes_per_set": metric(
            _ratio(tracer.calls["realize.realize_model_exact"], sets_scanned), "ratio"),
        "pauli.closure_members": metric(c["pauli.closure_members"], "count"),
        "pauli.closure_limit_errors": metric(c["pauli.closure_limit_errors"], "count"),
        "pauli.cover_contexts": metric(c["pauli.cover_contexts"], "count"),
        "pauli.si_equations": metric(c["pauli.si_equations"], "count"),
        "pauli.kl_witness.found_ratio": metric(
            _ratio(c["pauli.kl_witness.found"], tracer.calls["pauli.kl_witness"]), "ratio"),
        "linear_theory.inconsistent_ratio": metric(_ratio(
            c["linear_theory.inconsistent"], tracer.calls["linear_theory.is_consistent"]),
            "ratio"),
        "trace.requests": metric(n, "count"),
        "trace.latency_p50_ms": metric(1000 * p50_traced, "ms"),
        "trace.overhead_p50_ms": metric(1000 * (p50_traced - p50_plain), "ms"),
        "trace.request_s": metric(request_s, "s"),
        # layer self times plus cli.self_s over traced request time; 1 when
        # every span nests inside its parent
        "trace.accounted_share": metric(_ratio(layer_self + cli_self, request_s), "ratio"),
    })
    if abs(layer_self - tracer.top_s) > 1e-6 * max(1.0, request_s):
        notes["trace_accounting_error_s"] = layer_self - tracer.top_s
    return outcomes, errors, mismatches, metrics


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    main_fn, workload, pool, workdir = setup(args.workload, args.seed)
    try:
        if args.setup_only:
            print("ready", flush=True)
            return 0
        notes = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                 "trace": args.trace, "pool": len(pool)}
        run = per_layer if args.trace else end_to_end
        outcomes, errors, mismatches, metrics = run(args, main_fn, workload, pool, notes)
        notes["machine"] = machine_notes()
        bad = [(o.index, o.rc, o.problems) for o in outcomes if o.rc != 0 or o.problems]
        if bad:
            notes["problems"] = bad[:20]
        print(json.dumps({"notes": notes}))
        print(json.dumps({"correct": mismatches == 0 and errors == 0,
                          "attempted": len(outcomes), "failed": errors,
                          "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)


if __name__ == "__main__":
    sys.exit(main())
