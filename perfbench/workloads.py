"""The three workloads: inputs from a seed, answer summaries, and checks.

Each workload turns ``--seed`` into a fixed pool of CLI requests and
replays it in order, wrapping around only if a run outlasts the pool.
A request's answer is reduced to a small summary right after it is
timed; the summary is checked against references the package did not
produce once the timed loop is over.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

import oracle

NCF_TOLERANCE = 1e-9


@dataclass
class Request:
    argv: list[str]
    verdicts: float  # verdicts this request decides
    meta: dict = field(default_factory=dict)  # what the checks need


def answer_digest(answer: dict) -> str:
    """Digest of the full answer, with file paths reduced to base names."""
    canon = dict(answer)
    if isinstance(canon.get("source"), str):
        canon["source"] = os.path.basename(canon["source"])
    text = json.dumps(canon, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Workload:
    name = ""
    rate = 1.0  # traced-run requests per second of --seconds

    def generate(self, seed: int, workdir: str) -> list[Request]:
        raise NotImplementedError

    def warmup(self, workdir: str) -> list[list[str]]:
        raise NotImplementedError

    def summarize(self, req: Request, answer: dict) -> dict:
        """The fields the checks read; computed outside the timed region.

        Raises KeyError when the answer lacks one of them.
        """
        raise NotImplementedError

    def check(self, reqs: list[Request], summaries: list[dict]) -> list[list[str]]:
        """Problems per request; an empty list means the answer is right."""
        raise NotImplementedError

    def trace_requests(self, seconds: int) -> int:
        """Requests in a traced run: fixed by --seconds so counts repeat."""
        return max(3, round(seconds * self.rate))


# ------------------------------------------------------------------ scan-3q

class Scan3Q(Workload):
    """Random 3-qubit conjecture scans: tiny phase-one LPs and Born rows."""

    name = "scan-3q"
    rate = 1.5
    pool = 192
    samples = 10

    def _argv(self, samples: int, seed: int) -> list[str]:
        return ["conjecture-scan", "--max-qubits", "3", "--set-size", "4",
                "--samples", str(samples), "--states", "2", "--seed", str(seed),
                "--format", "json"]

    def generate(self, seed, workdir):
        rng = random.Random(f"{self.name}/{seed}")
        reqs = []
        for _ in range(self.pool):
            s = rng.randrange(1 << 31)
            drawn = oracle.scan_distinct_sets(3, 4, self.samples, s)
            reqs.append(Request(self._argv(self.samples, s), drawn, {"drawn": drawn}))
        return reqs

    def warmup(self, workdir):
        return [self._argv(self.samples, 0)]

    def summarize(self, req, answer):
        return {key: answer[key] for key in (
            "num_qubits", "set_size", "sets_scanned", "sets_skipped",
            "conjecture_holds")}

    def check(self, reqs, summaries):
        out = []
        for req, s in zip(reqs, summaries):
            problems = []
            if (s["num_qubits"], s["set_size"]) != (3, 4):
                problems.append("wrong scan shape")
            if s["sets_scanned"] + s["sets_skipped"] != req.meta["drawn"]:
                problems.append(f"scanned+skipped != {req.meta['drawn']} sets drawn")
            if s["conjecture_holds"] is not True:
                problems.append("conjecture_holds is not true")
            out.append(problems)
        return out


# ------------------------------------------------------------------- ncf-xy

class NcfXY(Workload):
    """analyze on exactly realized three-party X/Y models (64x64 LP)."""

    name = "ncf-xy"
    rate = 1.8
    pool = 256
    ghz_every = 4  # one request in four is GHZ-type, the rest dense

    @staticmethod
    def _gaussian(rng: random.Random, bound: int) -> tuple[int, int]:
        while True:
            z = (rng.randint(-bound, bound), rng.randint(-bound, bound))
            if z != (0, 0):
                return z

    def _state(self, rng: random.Random, ghz: bool) -> list[tuple[int, int]]:
        if not ghz:
            return [self._gaussian(rng, 3) for _ in range(8)]
        # a|000> + i^k a|111>: equal weights and a quarter-turn phase give
        # the zero rows that make the model strongly contextual
        re, im = a = self._gaussian(rng, 3)
        b = [(re, im), (-im, re), (-re, -im), (im, -re)][rng.randrange(4)]
        return [a] + [(0, 0)] * 6 + [b]

    def _write(self, workdir: str, name: str, amplitudes) -> tuple[str, dict]:
        path = os.path.join(workdir, name)
        model = oracle.xy_model_dict(amplitudes)
        with open(path, "w") as fh:
            json.dump(model, fh)
        return path, model["rows"]

    def generate(self, seed, workdir):
        rng = random.Random(f"{self.name}/{seed}")
        reqs = []
        for i in range(self.pool):
            ghz = i % self.ghz_every == self.ghz_every - 1
            path, rows = self._write(workdir, f"model-{i:03d}.json",
                                     self._state(rng, ghz))
            reqs.append(Request(["analyze", path, "--format", "json"], 1,
                                {"rows": rows}))
        return reqs

    def warmup(self, workdir):
        rng = random.Random(f"{self.name}/warmup")
        return [["analyze", self._write(workdir, f"warmup-{ghz}.json",
                                        self._state(rng, ghz))[0], "--format", "json"]
                for ghz in (False, True)]

    def summarize(self, req, answer):
        return {key: answer[key] for key in (
            "no_signaling", "ncf", "cf", "strongly_contextual",
            "logically_contextual", "global_section_count", "avn")}

    def check(self, reqs, summaries):
        out = []
        for req, s in zip(reqs, summaries):
            problems = []
            rows = {k: {o: Fraction(w) for o, w in row.items()}
                    for k, row in req.meta["rows"].items()}
            ncf, cf = Fraction(s["ncf"]), Fraction(s["cf"])
            highs = oracle.xy_ncf_highs(rows)
            if abs(float(ncf) - highs) > NCF_TOLERANCE:
                problems.append(f"ncf {ncf} differs from HiGHS {highs!r}")
            if cf != 1 - ncf:
                problems.append("cf != 1 - ncf")
            if s["no_signaling"] is not True:
                problems.append("a quantum model reported signaling")
            count, logical = oracle.xy_sections(rows)
            if s["global_section_count"] != count:
                problems.append(f"global_section_count != {count}")
            if s["logically_contextual"] != logical:
                problems.append(f"logically_contextual != {logical}")
            strong = s["strongly_contextual"]
            if strong != (s["global_section_count"] == 0):
                problems.append("strong does not match an empty section set")
            if s["avn"] and not strong:
                problems.append("AvN without strong contextuality")
            if strong and ncf != 0:
                problems.append("strongly contextual with ncf > 0")
            if ncf == 1 and s["avn"]:
                problems.append("AvN with ncf = 1")
            out.append(problems)
        return out


# -------------------------------------------------------------- closure-mix

class ClosureMix(Workload):
    """closure, si-avn --in-closure and kl-test on 3- and 4-qubit sets."""

    name = "closure-mix"
    rate = 6.5
    pool = 288  # sets; three requests each
    commands = ("closure", "si-avn", "kl-test")
    # closure sizes, in members, of the small, mid and large sets, taken in
    # turn; request cost follows closure size, so a fixed mix keeps the
    # latency distribution from moving with the seed
    size_classes = ((32, 40), (41, 96), (97, 144))

    def _draw(self, rng: random.Random, low: int, high: int) -> tuple[list[str], set[str]]:
        """A sorted word list and its closure's labels, of closure size in [low, high]."""
        while True:
            n = rng.choice((3, 4))
            k = rng.randint(5, 8)
            words = set()
            while len(words) < k:
                words.add("".join(rng.choice("IXYZ") for _ in range(n)))
                words.discard("I" * n)
            labels = sorted(words)
            members = oracle.pauli_closure(
                [oracle.pauli_word(w) for w in labels], limit=high)
            if members is not None and len(members) >= low:
                return labels, {oracle.pauli_label(m, n) for m in members}

    def _argvs(self, labels: list[str]) -> list[list[str]]:
        return [["closure", *labels, "--format", "json"],
                ["si-avn", "--in-closure", *labels, "--format", "json"],
                ["kl-test", *labels, "--format", "json"]]

    def generate(self, seed, workdir):
        rng = random.Random(f"{self.name}/{seed}")
        reqs = []
        for i in range(self.pool):
            labels, members = self._draw(
                rng, *self.size_classes[i % len(self.size_classes)])
            for command, argv in zip(self.commands, self._argvs(labels)):
                meta = {"set": i, "command": command}
                if command == "closure":
                    meta["members"] = members
                reqs.append(Request(argv, 1 / len(self.commands), meta))
        return reqs

    def warmup(self, workdir):
        return self._argvs(["IXX", "IZZ", "XIX", "XXI", "ZIZ", "ZZI"])

    def trace_requests(self, seconds):
        sets = max(1, round(seconds * self.rate / len(self.commands)))
        return sets * len(self.commands)

    def summarize(self, req, answer):
        command = req.meta["command"]
        if command == "closure":
            return {"si_avn": answer["si_avn"], "size": answer["size"],
                    "members_match": set(answer["members"]) == req.meta["members"]}
        if command == "si-avn":
            return {"si_avn": answer["si_avn"]}
        return {"witness_found": answer["witness_found"]}

    def check(self, reqs, summaries):
        verdicts = {}  # set index -> {command: summary}
        for req, s in zip(reqs, summaries):
            verdicts.setdefault(req.meta["set"], {})[req.meta["command"]] = s
        out = []
        for req, s in zip(reqs, summaries):
            problems = []
            seen = verdicts[req.meta["set"]]
            si = [v["si_avn"] for c, v in seen.items() if c != "kl-test"]
            if req.meta["command"] == "closure":
                if not s["members_match"] or s["size"] != len(req.meta["members"]):
                    problems.append("closure members differ from the reference closure")
            if len(set(si)) > 1:
                problems.append("closure and si-avn --in-closure disagree")
            if req.meta["command"] == "kl-test" and s["witness_found"] and False in si:
                problems.append("KL witness found but the closure is not AvN")
            out.append(problems)
        return out


WORKLOADS = {w.name: w for w in (Scan3Q(), NcfXY(), ClosureMix())}
