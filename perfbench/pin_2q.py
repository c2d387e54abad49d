"""Correctness-only check: the exhaustive 2-qubit scan digest.

    python3 perfbench/pin_2q.py

Runs ``conjecture-scan --max-qubits 2 --set-size 4 --exhaustive`` once
(about 40 s on a 2-core Xeon VM) and compares its counts with the pinned
ones. It is kept out of the timed runs because it is too long to repeat
for every run. Exits 0 when the digest matches, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

PIN = {"sets_scanned": 1365, "sets_skipped": 0, "closure_avn_count": 810,
       "contextual_count": 90, "unwitnessed_avn": 720, "conjecture_holds": True}


def main() -> int:
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src"))
    from contextuality.cli import main as cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli(["conjecture-scan", "--max-qubits", "2", "--set-size", "4",
                  "--exhaustive", "--format", "json"])
    answer = json.loads(out.getvalue()) if rc == 0 else {}
    got = {key: answer.get(key) for key in PIN}
    if isinstance(got["unwitnessed_avn"], list):
        got["unwitnessed_avn"] = len(got["unwitnessed_avn"])
    ok = rc == 0 and got == PIN
    print(json.dumps({"exit_code": rc, "digest": got, "matches_pin": ok}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
