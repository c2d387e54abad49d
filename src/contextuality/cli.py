"""Command line interface.

Subcommands cover the pipeline end to end: validate input files, grade
models along the contextuality hierarchy, realize models from states,
close Pauli sets, decide state-independent all-versus-nothing arguments,
run determining-tree tests, emit the bundled corpus, and scan random or
exhaustive observable subsets for conjecture counterexamples.

Exit codes: 0 success, 2 validation failure, 3 unreadable or malformed
input, 64 usage error.
"""

import argparse
import json
import os
import re
import sys
from dataclasses import asdict

from . import corpus
from .analysis import grade
from .empirical import (
    EmpiricalModel,
    check_no_signaling,
    is_no_signaling,
    model_from_dict,
    model_to_dict,
    possibilistic_from_dict,
)
from .errors import ParseError, ValidationError
from .linear_theory import is_avn, is_consistent
from .pauli import (
    PauliSet,
    is_state_independent_avn,
    kl_pattern_test,
    kl_witness,
    partial_closure,
    scenario_of,
    state_independent_theory,
)
from .realize import (
    FloatDistribution,
    canonical_state,
    load_equatorial,
    load_state,
    realize_model,
)
from .scan import conjecture_scan
from .scenario import (
    scenario_from_dict,
    scenario_to_dict,
    validate_scenario,
)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_PARSE = 3
EXIT_USAGE = 64


_SIGNED_WORD = re.compile(r"-i?[IXYZ]+")


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 64.

    A signed Pauli word such as ``-ZZ`` or ``-iXY`` is a positional: no
    option is spelled that way.
    """

    def _parse_optional(self, arg_string):
        if _SIGNED_WORD.fullmatch(arg_string):
            return None
        return super()._parse_optional(arg_string)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


# ------------------------------------------------------------------- helpers

def _read_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"{path}: {exc.strerror or exc}") from None
    except ValueError as exc:  # JSONDecodeError, or an int past the digit limit
        raise ParseError(f"{path}: {exc}") from None


def _load_any(path: str):
    """Load a scenario, model, or possibilistic model file, sniffing kind."""
    data = _read_json(path)
    if not isinstance(data, dict):
        raise ParseError(f"{path}: top level must be a JSON object")
    if "rows" in data:
        return "model", model_from_dict(data)
    if "supports" in data:
        return "possibilistic", possibilistic_from_dict(data)
    if "paulis" in data:
        raise ParseError(
            f"{path}: holds a Pauli set, not a scenario or model; pass its "
            "strings to closure, si-avn, or kl-test")
    return "scenario", scenario_from_dict(data)


def _corpus_entry(name: str) -> corpus.CorpusEntry:
    entry = corpus.REGISTRY.get(name)
    if entry is None:
        known = ", ".join(sorted(corpus.REGISTRY))
        raise ValidationError(f"unknown corpus entry {name!r} (have: {known})")
    return entry


def _corpus_object(name: str):
    entry = _corpus_entry(name)
    return entry.kind, entry.build()


def _scenario_of(kind: str, obj):
    if kind == "scenario":
        return obj
    if kind == "pauli-set":
        return scenario_of(obj)
    return obj.scenario


def _scalar(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _emit(payload, args, *, table=None):
    """Write the report in the selected format to stdout or --out."""
    if getattr(args, "format", "table") == "json":
        text = json.dumps(payload, indent=2) + "\n"
    else:
        lines = table if table is not None else [
            f"{k}: {_scalar(v)}" for k, v in payload.items()]
        text = "\n".join(lines) + "\n"
    out = getattr(args, "out", None)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _pauli_scenario_set(scenario) -> PauliSet:
    try:
        return PauliSet.from_strings(scenario.measurements)
    except (ParseError, ValidationError):
        raise ValidationError(
            "this check needs Pauli-string measurement labels") from None


# ------------------------------------------------------------------ validate

def cmd_validate(args) -> int:
    if args.corpus:
        kind, obj = _corpus_object(args.corpus)
        source = args.corpus
    else:
        kind, obj = _load_any(args.path)
        source = args.path
    scenario = _scenario_of(kind, obj)
    problems = []
    for v in validate_scenario(scenario):
        if v.kind == "covering":
            problems.append(f"covering: measurement {v.items[0]} is in no context")
        else:
            a, b = v.items
            problems.append(f"antichain: context {a.key()} is contained in {b.key()}")
    if kind == "model":
        problems += [f"no-signaling: {v}" for v in check_no_signaling(obj)]
    payload = {"source": source, "kind": kind, "valid": not problems,
               "problems": problems}
    table = [f"source: {source}", f"kind: {kind}", f"valid: {_scalar(not problems)}"]
    table += [f"problem: {p}" for p in problems]
    _emit(payload, args, table=table)
    return EXIT_OK if not problems else EXIT_INVALID


# ------------------------------------------------------------------- analyze

_MODEL_CHECKS = ("nosig", "ncf", "strong", "logical", "sections", "avn")
_POSS_CHECKS = ("strong", "logical", "sections", "avn")
_EXTRA_CHECKS = ("si-avn", "si-avn-closure", "kl")


def _analysis_payload(kind, obj, checks) -> dict:
    """The report of each check in order; the incidence checks share one
    grading pass, built at the first of them."""
    report = {}
    graded = None
    for check in checks:
        if check in ("nosig", "ncf") and kind != "model":
            raise ValidationError(f"check {check!r} needs a probabilistic model")
        if check in ("ncf", "strong", "logical", "sections") and graded is None:
            graded = grade(obj)
        if check == "nosig":
            report["no_signaling"] = is_no_signaling(obj)
        elif check == "ncf":
            res = graded.noncontextual_fraction()
            report["ncf"] = str(res.ncf)
            report["cf"] = str(res.cf)
        elif check == "strong":
            report["strongly_contextual"] = graded.is_strongly_contextual()
        elif check == "logical":
            report["logically_contextual"] = graded.is_logically_contextual()
        elif check == "sections":
            report["global_section_count"] = graded.global_section_count()
        elif check == "avn":
            report["avn"] = is_avn(obj)
        elif check in ("si-avn", "si-avn-closure"):
            pset = _pauli_scenario_set(obj.scenario)
            key = "si_avn" if check == "si-avn" else "si_avn_closure"
            report[key] = is_state_independent_avn(
                pset, in_closure=(check == "si-avn-closure"))
        elif check == "kl":
            pset = _pauli_scenario_set(obj.scenario)
            report["kl_witness_found"] = kl_witness(pset) is not None
        else:
            raise ValidationError(f"unknown check {check!r}")
    return report


def cmd_analyze(args) -> int:
    if args.corpus:
        kind, obj = _corpus_object(args.corpus)
        source = args.corpus
    else:
        kind, obj = _load_any(args.path)
        source = args.path
    if kind == "scenario":
        raise ValidationError("analyze needs a model, not a bare scenario")
    if kind == "pauli-set":
        raise ValidationError(
            "analyze grades empirical models; use the closure command for Pauli sets")
    if args.checks:
        checks = tuple(c.strip() for c in args.checks.split(",") if c.strip())
    else:
        checks = _MODEL_CHECKS if kind == "model" else _POSS_CHECKS
        if obj.scenario.ring != "Z2":  # parity equations need Z2 outcomes
            checks = tuple(c for c in checks if c != "avn")
    report = {"source": source, "kind": kind}
    report.update(_analysis_payload(kind, obj, checks))
    _emit(report, args)
    return EXIT_OK


# ------------------------------------------------------------------- realize

def _resolve_state(text: str):
    try:
        return canonical_state(text)
    except ParseError:
        if os.path.exists(text):
            return load_state(text)
        raise


def _float_model_payload(model) -> dict:
    rows = {}
    residuals = {}
    for c in model.scenario.contexts:
        dist = model.rows[c]
        rows[c.key()] = {s.to_string(): str(w) for s, w in sorted(dist.weights.items()) if w}
        if isinstance(dist, FloatDistribution):
            residuals[c.key()] = dist.residual
    return {"scenario": scenario_to_dict(model.scenario), "exact": False,
            "rows": rows, "residuals": residuals}


def cmd_realize(args) -> int:
    psi = _resolve_state(args.state)
    if args.corpus:
        kind, obj = _corpus_object(args.corpus)
        scenario = _scenario_of(kind, obj)
    else:
        scenario = scenario_from_dict(_read_json(args.scenario))
    measurements = load_equatorial(args.equatorial) if args.equatorial else None
    model = realize_model(psi, scenario, measurements)
    if isinstance(model, EmpiricalModel):
        payload = model_to_dict(model)
        payload["exact"] = True
    else:
        payload = _float_model_payload(model)
    table = [f"state: {args.state}", f"exact: {_scalar(payload['exact'])}"]
    for key, row in payload["rows"].items():
        for outcome, weight in row.items():
            table.append(f"{key} | {outcome} | {weight}")
    _emit(payload, args, table=table)
    return EXIT_OK


# ------------------------------------------------------------------- closure

def cmd_closure(args) -> int:
    base = PauliSet.from_strings(args.paulis)
    closed = partial_closure(base)
    theory = state_independent_theory(closed)
    verdict = is_consistent(theory)
    payload = {
        "num_qubits": closed.num_qubits,
        "size": len(closed.members),
        "members": list(closed.labels()),  # the labels the cover's vertices took
        "cover": [list(c.members) for c in theory.scenario.contexts],
        "equations": theory.render(),
        "si_avn": not verdict.consistent,
    }
    table = [f"num_qubits: {closed.num_qubits}", f"size: {len(closed.members)}",
             "members: " + " ".join(payload["members"])]
    table += [f"context: {' '.join(c)}" for c in payload["cover"]]
    table += [f"equation: {e}" for e in payload["equations"]]
    table.append(f"si_avn: {_scalar(payload['si_avn'])}")
    _emit(payload, args, table=table)
    return EXIT_OK


def cmd_si_avn(args) -> int:
    base = PauliSet.from_strings(args.paulis)
    verdict = is_state_independent_avn(base, in_closure=args.in_closure)
    payload = {"paulis": list(base.labels()), "in_closure": args.in_closure,
               "si_avn": verdict}
    table = ["paulis: " + " ".join(payload["paulis"]),
             f"in_closure: {_scalar(args.in_closure)}", f"si_avn: {_scalar(verdict)}"]
    _emit(payload, args, table=table)
    return EXIT_OK


# ------------------------------------------------------------------- kl-test

def _tree_payload(tree) -> dict:
    if tree.is_leaf:
        return {"op": str(tree.operator)}
    return {"op": str(tree.operator),
            "children": [_tree_payload(c) for c in tree.children]}


def _tree_text(tree) -> str:
    if tree.is_leaf:
        return str(tree.operator)
    inner = " ".join(_tree_text(c) for c in tree.children)
    return f"({tree.operator} <- {inner})"


def cmd_kl_test(args) -> int:
    base = PauliSet.from_strings(args.paulis)
    witness = kl_witness(base)
    pattern = kl_pattern_test(base)
    payload = {
        "paulis": list(base.labels()),
        "witness_found": witness is not None,
        "pattern_avn": pattern.avn,
        "pattern_subset": [str(p) for p in pattern.subset] if pattern.subset else None,
        "pattern": pattern.pattern,
    }
    table = [f"witness_found: {_scalar(witness is not None)}"]
    if witness is not None:
        pos, neg = witness
        payload["tree_positive"] = _tree_payload(pos)
        payload["tree_negative"] = _tree_payload(neg)
        table.append(f"tree_positive: {_tree_text(pos)}")
        table.append(f"tree_negative: {_tree_text(neg)}")
        payload["determining_set"] = sorted(
            str(p) for p in pos.determining_set())
        table.append("determining_set: " + " ".join(payload["determining_set"]))
    table.append(f"pattern_avn: {_scalar(pattern.avn)}")
    if pattern.subset:
        table.append("pattern_subset: " + " ".join(payload["pattern_subset"]))
        table.append(f"pattern: {pattern.pattern}")
    _emit(payload, args, table=table)
    return EXIT_OK


# -------------------------------------------------------------------- corpus

def cmd_corpus(args) -> int:
    expected = corpus.expectations()

    def payload(entry: corpus.CorpusEntry) -> dict:
        out = entry.payload()
        out.update(name=entry.name, kind=entry.kind, description=entry.description,
                   expected=expected.get(entry.name, {}))
        return out

    if args.out:
        chosen = [_corpus_entry(args.name)] if args.name else corpus.REGISTRY.values()
        os.makedirs(args.out, exist_ok=True)
        written = []
        for entry in chosen:
            path = os.path.join(args.out, f"{entry.name}.json")
            with open(path, "w") as fh:
                json.dump(payload(entry), fh, indent=2)
                fh.write("\n")
            written.append(path)
        sys.stdout.write("\n".join(written) + "\n")
        return EXIT_OK
    if args.name:
        args.format = "json"
        _emit(payload(_corpus_entry(args.name)), args)
        return EXIT_OK
    entries = []
    table = []
    for entry in corpus.REGISTRY.values():
        exp = expected.get(entry.name, {})
        entries.append({"name": entry.name, "kind": entry.kind,
                        "description": entry.description, "expected": exp})
        verdicts = " ".join(f"{k}={_scalar(v)}" for k, v in exp.items())
        table.append(f"{entry.name} [{entry.kind}] {entry.description}")
        if verdicts:
            table.append(f"  {verdicts}")
    _emit({"entries": entries}, args, table=table)
    return EXIT_OK


# ----------------------------------------------------------- conjecture-scan

def cmd_conjecture_scan(args) -> int:
    result = conjecture_scan(args.max_qubits, args.set_size, exhaustive=args.exhaustive,
                             samples=args.samples, states=args.states, seed=args.seed)
    payload = asdict(result)
    table = [f"{key}: {_scalar(val)}" for key, val in payload.items()
             if not isinstance(val, list)]
    for ce in result.counterexamples:
        table.append("counterexample: " + " ".join(ce["paulis"]))
    for labels in result.unwitnessed_avn:
        table.append("unwitnessed_avn: " + " ".join(labels))
    _emit(payload, args, table=table)
    return EXIT_OK


# -------------------------------------------------------------------- parser

def _add_format(sub) -> None:
    sub.add_argument("--format", choices=("table", "json"), default="table",
                     help="output format")
    sub.add_argument("--out", help="write output to this file instead of stdout")


def build_parser() -> _Parser:
    parser = _Parser(prog="contextuality",
                     description="exact contextuality analysis of measurement scenarios")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p = sub.add_parser("validate", help="validate a scenario or model file")
    p.add_argument("path", nargs="?", help="JSON scenario, model, or possibilistic file")
    p.add_argument("--corpus", help="validate a bundled corpus entry instead")
    _add_format(p)
    p.set_defaults(func=cmd_validate, needs_input=True)

    p = sub.add_parser("analyze", help="grade a model along the hierarchy")
    p.add_argument("path", nargs="?", help="JSON model or possibilistic file")
    p.add_argument("--corpus", help="analyze a bundled corpus entry instead")
    p.add_argument("--checks",
                   help="comma list from nosig,ncf,strong,logical,sections,avn,"
                        "si-avn,si-avn-closure,kl")
    _add_format(p)
    p.set_defaults(func=cmd_analyze, needs_input=True)

    p = sub.add_parser("realize", help="measure a scenario on a state")
    p.add_argument("--state", default="bell_phi_plus",
                   help="canonical name (bell_phi_plus, ghzN, plusN, basisN) or JSON "
                        "file of exact amplitudes, any nonzero vector, read as its ray")
    p.add_argument("--scenario", help="JSON scenario file")
    p.add_argument("--corpus", help="reuse a bundled entry's scenario")
    p.add_argument("--equatorial",
                   help="JSON map label -> {party, angle} of equatorial measurements")
    _add_format(p)
    p.set_defaults(func=cmd_realize)

    p = sub.add_parser("closure", help="close a Pauli set and print its theory")
    p.add_argument("paulis", nargs="+", help="Pauli strings such as XX ZZ -YY")
    _add_format(p)
    p.set_defaults(func=cmd_closure)

    p = sub.add_parser("si-avn", help="decide state-independent all-versus-nothing")
    p.add_argument("paulis", nargs="+", help="Pauli strings")
    p.add_argument("--in-closure", action="store_true",
                   help="close the set before building the theory")
    _add_format(p)
    p.set_defaults(func=cmd_si_avn)

    p = sub.add_parser("kl-test", help="find determining-tree witnesses")
    p.add_argument("paulis", nargs="+", help="Pauli strings")
    _add_format(p)
    p.set_defaults(func=cmd_kl_test)

    p = sub.add_parser("corpus", help="list or export the bundled corpus")
    p.add_argument("name", nargs="?", help="entry name; omit to list all")
    p.add_argument("--out", help="directory to write JSON files into")
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(func=cmd_corpus)

    p = sub.add_parser("conjecture-scan",
                       help="probe subsets for contextuality without closure AvN")
    p.add_argument("--max-qubits", type=int, default=2)
    p.add_argument("--set-size", type=int, default=4)
    p.add_argument("--samples", type=int, default=50,
                   help="random subsets to draw (ignored with --exhaustive)")
    p.add_argument("--states", type=int, default=2,
                   help="random rational probe states per subset (0-100)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--exhaustive", action="store_true",
                   help="enumerate every subset of the given size")
    _add_format(p)
    p.set_defaults(func=cmd_conjecture_scan)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "func", None) is None:
            parser.error("a command is required")
        if getattr(args, "needs_input", False):
            if bool(args.path) == bool(args.corpus):
                parser.error("give exactly one of a file path or --corpus NAME")
        if args.func is cmd_realize:
            if bool(args.scenario) == bool(args.corpus):
                parser.error("give exactly one of --scenario or --corpus")
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
