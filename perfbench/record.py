"""Record the answer digests that later runs compare against.

    python3 perfbench/record.py --workload ncf-xy --seeds 0 1 2

Runs every request of each seed's pool once, untimed, and refuses to
record a seed whose answers fail any check. Digests go to
``reference/<workload>.json``, keyed by seed and pool index, merged with
the seeds already there. Record only at a commit whose answers are the
ones later commits must reproduce.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402
import workloads  # noqa: E402


def record(workload_name: str, seed: int) -> list[str]:
    main, workload, pool, workdir = run.setup(workload_name, seed)
    try:
        outcomes = run.run_requests(main, workload, pool, range(len(pool)))
        run.check_outcomes(workload, pool, outcomes, None)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    bad = [(o.index, o.rc, o.problems) for o in outcomes if o.rc != 0 or o.problems]
    if bad:
        raise SystemExit(f"{workload_name} seed {seed}: refusing to record {bad[:5]}")
    return [o.digest for o in outcomes]


def _load(path: str, workload_name: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {"workload": workload_name, "seeds": {}}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    args = p.parse_args(argv)
    path = os.path.join(run.REFERENCE, f"{args.workload}.json")
    os.makedirs(run.REFERENCE, exist_ok=True)
    for seed in args.seeds:
        digests = record(args.workload, seed)
        data = _load(path, args.workload)  # read late: other recorders may have written
        data["seeds"][str(seed)] = digests
        seeds = sorted(data["seeds"].items(), key=lambda kv: int(kv[0]))
        lines = [f"{json.dumps(s)}: {json.dumps(d)}" for s, d in seeds]
        with open(path, "w") as fh:  # one line per seed
            fh.write(f'{{"workload": {json.dumps(args.workload)}, "seeds": {{\n')
            fh.write(",\n".join(lines) + "\n}}\n")
        print(f"{args.workload} seed {seed}: {len(digests)} answers", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
