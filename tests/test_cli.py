"""Command line behavior: payloads, formats, exit codes."""

import hashlib
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import contextuality
import contextuality.scan
from contextuality import (
    Assignment,
    Context,
    ContextDistribution,
    EmpiricalModel,
    ParseError,
    model_from_dict,
    model_to_dict,
    scenario_from_dict,
    scenario_to_dict,
)
from contextuality.cli import main
from contextuality.corpus import REGISTRY, chsh_model, chsh_scenario


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    assert code == 0, err
    return json.loads(out)


def test_analyze_corpus_chsh(capsys):
    payload = run_json(capsys, "analyze", "--corpus", "chsh")
    assert payload["source"] == "chsh"
    assert payload["ncf"] == "3/4"
    assert payload["cf"] == "1/4"
    assert payload["no_signaling"] is True
    assert payload["global_section_count"] == 8
    assert payload["avn"] is False


def test_analyze_checks_subset(capsys):
    payload = run_json(capsys, "analyze", "--corpus", "xz222",
                       "--checks", "ncf,si-avn-closure")
    assert payload["ncf"] == "1"
    assert payload["si_avn_closure"] is True
    assert "global_section_count" not in payload


def test_analyze_table_output(capsys):
    code, out, err = run(capsys, "analyze", "--corpus", "pr-box")
    assert code == 0
    lines = dict(line.split(": ", 1) for line in out.strip().splitlines()
                 if ": " in line)
    assert lines["ncf"] == "0"
    assert lines["strongly_contextual"] == "true"


def test_analyze_model_file_and_out(tmp_path, capsys):
    model_path = tmp_path / "chsh.json"
    model_path.write_text(json.dumps(model_to_dict(chsh_model())))
    out_path = tmp_path / "report.json"
    code, out, err = run(capsys, "analyze", str(model_path),
                         "--format", "json", "--out", str(out_path))
    assert code == 0
    assert out == ""
    payload = json.loads(out_path.read_text())
    assert payload["ncf"] == "3/4"


def test_analyze_rejects_scenario_file(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario_to_dict(chsh_scenario())))
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 2
    assert "model" in err


def test_analyze_rejects_possibilistic_probability_checks(capsys):
    code, out, err = run(capsys, "analyze", "--corpus",
                         "mermin-square-possibilistic", "--checks", "ncf")
    assert code == 2


def test_validate_ok(tmp_path, capsys):
    code, out, err = run(capsys, "validate", "--corpus", "chsh")
    assert code == 0
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario_to_dict(chsh_scenario())))
    payload = run_json(capsys, "validate", str(path))
    assert payload["valid"] is True
    assert payload["kind"] == "scenario"


def test_validate_catches_signaling(tmp_path, capsys):
    scenario = chsh_scenario()
    rows = {}
    for ctx in scenario.contexts:
        point = Assignment(ctx.members, (0, 0))
        rows[ctx] = ContextDistribution(ctx, (0, 1), {point: Fraction(1)})
    deterministic = EmpiricalModel(scenario, rows)
    data = model_to_dict(deterministic)
    first = data["rows"]["a1,b1"]
    first.clear()
    first["11"] = "1"
    path = tmp_path / "signaling.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "validate", str(path), "--format", "json")
    assert code == 2
    payload = json.loads(out)
    assert payload["valid"] is False
    assert payload["problems"]


def test_validate_pins_no_signalling_problem_lines(tmp_path, capsys):
    # context pairs in scenario order, then each overlap's outcomes in
    # table order, on a 3-outcome model whose overlaps are a two-member
    # prefix and a last member
    data = {"scenario": {"measurements": ["a", "b", "c", "d"], "outcomes": [0, 1, 2],
                         "ring": "none", "contexts": [["a", "b", "c"], ["b", "c", "d"], ["a", "d"]]},
            "rows": {"a,b,c": {"000": "1/6", "012": "1/6", "102": "1/3", "221": "1/3"},
                     "b,c,d": {"000": "1/6", "021": "1/3", "110": "1/6", "201": "1/3"},
                     "a,d": {"00": "1/3", "11": "1/3", "22": "1/3"}}}
    path = tmp_path / "signalling.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "validate", str(path))
    assert code == 2
    assert out.splitlines()[3:] == [
        "problem: no-signaling: {a, b, c} and {b, c, d} give 0 vs 1/6 at 11 on the overlap",
        "problem: no-signaling: {a, b, c} and {b, c, d} give 1/6 vs 0 at 12 on the overlap",
        "problem: no-signaling: {a, b, c} and {b, c, d} give 0 vs 1/3 at 20 on the overlap",
        "problem: no-signaling: {a, b, c} and {b, c, d} give 1/3 vs 0 at 21 on the overlap",
        "problem: no-signaling: {a, d} and {b, c, d} give 1/3 vs 2/3 at 1 on the overlap",
        "problem: no-signaling: {a, d} and {b, c, d} give 1/3 vs 0 at 2 on the overlap",
    ]


def test_default_analyze_leaves_avn_out_on_non_z2_scenarios(tmp_path, capsys):
    # parity equations need Z2 outcomes; every other default check answers
    scenario = {"measurements": ["a", "b", "c"], "outcomes": [0, 1, 2], "ring": "none",
                "contexts": [["a", "b"], ["b", "c"]]}
    model = {"scenario": scenario,
             "rows": {"a,b": {"00": "1/2", "21": "1/2"}, "b,c": {"02": "1/2", "10": "1/2"}}}
    poss = {"scenario": scenario, "supports": {"a,b": ["00", "21"], "b,c": ["02", "10"]}}
    for name, data, checks in (("model", model, "nosig,ncf,strong,logical,sections"),
                               ("possibilistic", poss, "strong,logical,sections")):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data))
        payload = run_json(capsys, "analyze", str(path))
        assert "avn" not in payload
        assert payload == run_json(capsys, "analyze", str(path), "--checks", checks)
        assert payload["global_section_count"] == 2
        code, out, err = run(capsys, "analyze", str(path), "--checks", "avn")
        assert code == 2 and out == ""
        assert err == "error: parity equations need a Z2-ringed scenario\n"


@pytest.mark.parametrize("text", [
    "1/2", "-0/1", "007/10", " 1/2", "+1/2", "1_000/3", "1e-3", "0.25", "\u0661/\u0662",
    "1/0", "1/-2", "", "/", "nan", "1", "-1/3"])
def test_weight_strings_read_as_fraction_reads_them(tmp_path, capsys, text):
    # the loader's int() reading of plain p/q must accept exactly what
    # Fraction accepts on this Python, with the same value
    from contextuality.empirical import _fraction_from_string

    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        value = None
    data = {"scenario": {"measurements": ["a"], "contexts": [["a"]]},
            "rows": {"a": {"0": text, "1": "1" if value is None else str(1 - value)}}}
    if value is None:
        with pytest.raises(ParseError, match="malformed rational"):
            _fraction_from_string(text)
    else:
        parsed = _fraction_from_string(text)
        assert type(parsed) is Fraction and parsed == value
        assert type(parsed.numerator) is int and type(parsed.denominator) is int
        if 0 <= value <= 1:
            assert model_from_dict(data).rows[Context(["a"])].weights[
                Assignment(["a"], [0])] == value
    path = tmp_path / "model.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "validate", str(path))
    if value is None:
        assert code == 3 and err == f"error: malformed rational {text!r}\n"
    else:
        assert code == (0 if 0 <= value <= 1 else 2)


def test_parse_errors_exit_3(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out, err = run(capsys, "validate", str(bad))
    assert code == 3
    code, out, err = run(capsys, "analyze", str(tmp_path / "missing.json"))
    assert code == 3
    assert err.strip()


def test_comma_labels_and_eleven_outcomes_exit_3(tmp_path, capsys):
    """Neither can be written back: row keys join labels with ',' and outcome
    strings have one digit per member."""
    comma = {"measurements": ["a", "b", "a,b"], "contexts": [["a", "b"], ["a,b"]]}
    eleven = {"measurements": ["a"], "contexts": [["a"]],
              "outcomes": list(range(11)), "ring": "none"}
    for name, scenario in (("comma", comma), ("eleven", eleven)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"scenario": scenario, "rows": {}}))
        code, out, err = run(capsys, "analyze", str(path))
        assert code == 3 and out == ""
        assert err.startswith("error: ")


def test_usage_errors_exit_64(tmp_path, capsys):
    assert run(capsys, "analyze")[0] == 64
    path = tmp_path / "m.json"
    path.write_text(json.dumps(model_to_dict(chsh_model())))
    assert run(capsys, "analyze", str(path), "--corpus", "chsh")[0] == 64
    assert run(capsys, "frobnicate")[0] == 64
    assert run(capsys, "realize", "--state", "ghz3")[0] == 64


def test_unknown_corpus_name_exits_2(capsys):
    code, out, err = run(capsys, "analyze", "--corpus", "nope")
    assert code == 2
    assert "chsh" in err


def test_bad_checks_list_exits_2(capsys):
    code, out, err = run(capsys, "analyze", "--corpus", "chsh",
                         "--checks", "bogus")
    assert code == 2


def test_realize_ghz_matches_corpus_table(capsys):
    payload = run_json(capsys, "realize", "--state", "ghz3",
                       "--corpus", "xy322-ghz")
    assert payload["exact"] is True
    row = payload["rows"]["IIX,IXI,XII"]
    assert row == {"000": "1/4", "011": "1/4", "101": "1/4", "110": "1/4"}
    analysis = run_json(capsys, "analyze", "--corpus", "xy322-ghz")
    assert analysis["strongly_contextual"] is True


def test_realize_state_file_and_scenario_file(tmp_path, capsys):
    from contextuality import ghz
    state_path = tmp_path / "state.json"
    state_path.write_text(json.dumps(
        {"n": 3, "amplitudes": [[str(re), str(im)] for re, im in ghz(3).amplitudes]}))
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(
        scenario_to_dict(REGISTRY["xy322-ghz"].build().scenario)))
    payload = run_json(capsys, "realize", "--state", str(state_path),
                       "--scenario", str(scenario_path))
    assert payload["exact"] is True
    assert payload["rows"]["IIX,IXI,XII"]["000"] == "1/4"


def test_realize_equatorial(tmp_path, capsys):
    angles = {"XII": 0, "YII": "pi/2", "IXI": 0, "IYI": "pi/2",
              "IIX": 0, "IIY": "pi/2"}
    parties = {"XII": 0, "YII": 0, "IXI": 1, "IYI": 1, "IIX": 2, "IIY": 2}
    eq = {lab: {"party": parties[lab], "angle": angles[lab]} for lab in angles}
    eq_path = tmp_path / "eq.json"
    eq_path.write_text(json.dumps(eq))
    payload = run_json(capsys, "realize", "--state", "ghz3",
                       "--corpus", "xy322-ghz", "--equatorial", str(eq_path))
    assert payload["exact"] is True
    assert payload["rows"]["IIX,IXI,XII"]["000"] == "1/4"



def test_realize_irrational_equatorial_row_is_float(tmp_path, capsys):
    # cos(1 rad) is irrational, so no snap of this row may pass as exact
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(
        {"measurements": ["IX", "XI"], "contexts": [["IX", "XI"]]}))
    eq_path = tmp_path / "eq.json"
    eq_path.write_text(json.dumps({"XI": {"party": 0, "angle": 1},
                                   "IX": {"party": 1, "angle": "0"}}))
    payload = run_json(capsys, "realize", "--state", "ghz2", "--scenario",
                       str(scenario_path), "--equatorial", str(eq_path))
    assert payload["exact"] is False


@pytest.mark.parametrize("entry", [{"party": "a", "angle": 0},
                                   {"party": 0, "angle": "pi/0"},
                                   {"party": 1.7, "angle": 0},
                                   {"party": 1.0, "angle": 0},
                                   {"party": True, "angle": 0},
                                   {"party": "1", "angle": 0}])
def test_realize_malformed_equatorial_exits_3(tmp_path, capsys, entry):
    eq_path = tmp_path / "eq.json"
    eq_path.write_text(json.dumps({"XX": entry}))
    code, out, err = run(capsys, "realize", "--state", "ghz2",
                         "--corpus", "xz222", "--equatorial", str(eq_path))
    assert code == 3
    assert err.startswith("error: ")
    assert out == ""

@pytest.mark.parametrize("amplitude", [["nan", "0"], ["0", "nan"], ["inf", "0"]])
def test_realize_non_finite_state_exits_2(tmp_path, capsys, amplitude):
    state_path = tmp_path / "state.json"
    state_path.write_text(json.dumps(
        {"n": 2, "amplitudes": [amplitude, ["0", "0"], ["0", "0"], ["0", "0"]]}))
    code, out, err = run(capsys, "realize", "--state", str(state_path),
                         "--corpus", "xz222")
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize("angle", ['"nan"', '"inf"', '"-inf"', '"1e999"', "1e999"],
                         ids=["nan", "inf", "-inf", "1e999", "number-1e999"])
def test_realize_non_finite_equatorial_angle_exits_3(tmp_path, capsys, angle):
    eq_path = tmp_path / "eq.json"
    eq_path.write_text('{"XI": {"party": 0, "angle": %s}, "IX": {"party": 1, "angle": 0}}'
                       % angle)
    code, out, err = run(capsys, "realize", "--state", "ghz2",
                         "--corpus", "xz222", "--equatorial", str(eq_path))
    assert code == 3
    assert err.startswith("error: ") and "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize("amplitude", ['"1e999999999"', "1e999999999",
                                       '"-1e-999999999"', "1e-999999999"],
                         ids=["1e999999999", "number-1e999999999",
                              "-1e-999999999", "number-1e-999999999"])
def test_realize_huge_decimal_exponent_exits_2(tmp_path, capsys, amplitude):
    # the exponent is refused before 10**999999999 is built
    state_path = tmp_path / "state.json"
    state_path.write_text('{"n": 2, "amplitudes": [[%s, 0], [1, 0], [0, 0], [0, 0]]}'
                          % amplitude)
    start = time.perf_counter()
    code, out, err = run(capsys, "realize", "--state", str(state_path),
                         "--corpus", "xz222")
    assert time.perf_counter() - start < 1
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err
    assert out == ""


def test_realize_decimal_state_is_exact(tmp_path, capsys):
    # a rounding snap once reported the single row 000 | 1 here
    state_path = tmp_path / "state.json"
    state_path.write_text(json.dumps({"n": 2, "amplitudes": [[1, 0], [0, 0], [0, 0], [1e-7, 0]]}))
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(
        {"measurements": ["ZI", "IZ", "ZZ"], "contexts": [["ZI", "IZ", "ZZ"]]}))
    argv = ["realize", "--state", str(state_path), "--scenario", str(scenario_path)]
    payload = run_json(capsys, *argv)
    assert payload["exact"] is True
    assert payload["rows"] == {"IZ,ZI,ZZ": {"000": "100000000000000/100000000000001",
                                            "110": "1/100000000000001"}}
    code, out, err = run(capsys, *argv)
    assert "exact: true" in out.splitlines()
    assert "IZ,ZI,ZZ | 110 | 1/100000000000001" in out.splitlines()


@pytest.mark.parametrize("name", ["ghz64", "plus64", "ghz11", "plus11"])
def test_realize_named_state_beyond_qubit_limit_exits_2(capsys, name):
    # the size check precedes the 2^n allocation, which numpy refuses at 2^64
    code, out, err = run(capsys, "realize", "--state", name, "--corpus", "chsh")
    assert code == 2
    assert err.startswith("error: ") and "qubits" in err
    assert out == ""


@pytest.fixture
def int_digit_limit():
    """Python's 4300-digit limit on int(str), set for the test and restored."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no limit on integer string conversion")
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(saved)


@pytest.mark.parametrize("loader", ["state", "equatorial", "validate", "analyze"])
def test_integer_past_digit_limit_exits_3(tmp_path, capsys, int_digit_limit, loader):
    # json.load raises a plain ValueError there, not JSONDecodeError
    huge = "1" * (int_digit_limit + 701)
    path = tmp_path / "input.json"
    if loader == "state":
        path.write_text('{"n": 2, "amplitudes": [[%s, 0], [1, 0], [0, 0], [0, 0]]}' % huge)
        argv = ["realize", "--state", str(path), "--corpus", "xz222"]
    elif loader == "equatorial":
        path.write_text('{"XI": {"party": 0, "angle": %s}}' % huge)
        argv = ["realize", "--state", "ghz2", "--corpus", "xz222", "--equatorial", str(path)]
    else:
        path.write_text('{"measurements": ["a"], "contexts": [["a"]], "outcomes": [0, %s]}'
                        % huge)
        argv = [loader, str(path)]
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert err.startswith("error: ") and "Traceback" not in err
    assert out == ""


def _model_with_boolean_weights():
    data = model_to_dict(chsh_model())
    data["rows"][next(iter(data["rows"]))] = {"00": True, "11": False}
    return data


@pytest.mark.parametrize("kind, data", [
    ("model", _model_with_boolean_weights()),
    ("state", {"n": 1, "amplitudes": [[True, "0"], ["0", "0"]]}),
    ("state", {"n": True, "amplitudes": [["1", "0"], ["0", "0"]]}),
    ("scenario", {**scenario_to_dict(chsh_scenario()), "outcomes": [False, True]}),
    ("equatorial", {"XI": {"party": 0, "angle": True}}),
])
def test_json_booleans_are_not_numbers_exit_3(tmp_path, capsys, kind, data):
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(data))
    if kind in ("model", "scenario"):
        argv = ["validate", str(path)]
    elif kind == "equatorial":
        argv = ["realize", "--state", "ghz2", "--corpus", "xz222", "--equatorial", str(path)]
    else:
        scenario_path = tmp_path / "z.json"
        scenario_path.write_text(json.dumps(
            {"measurements": ["Z"], "outcomes": [0, 1], "ring": "Z2",
             "contexts": [["Z"]]}))
        argv = ["realize", "--state", str(path), "--scenario", str(scenario_path)]
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert err.startswith("error: ")
    assert out == ""


def test_labels_that_are_not_strings_are_parse_errors(tmp_path, capsys):
    # a list label once reached set() inside Context and ended in a TypeError
    bad_scenarios = [{"measurements": [["x"]], "contexts": [["x"]]},
                     {"measurements": ["x"], "contexts": [[["x"]]]},
                     {"measurements": ["x", 1], "contexts": [["x", 1]]}]
    for data in bad_scenarios:
        with pytest.raises(ParseError):
            scenario_from_dict(data)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(bad_scenarios[0]))
    code, out, err = run(capsys, "validate", str(path))
    assert code == 3
    assert err.startswith("error: ") and out == ""


def test_closure_payload(capsys):
    payload = run_json(capsys, "closure", "XX", "ZZ")
    assert payload["size"] == 4
    assert "-YY" in payload["members"]
    assert payload["cover"] == [["-YY", "XX", "ZZ"]]
    assert payload["si_avn"] is False


def test_closure_rejects_bad_pauli(capsys):
    code, out, err = run(capsys, "closure", "XQ")
    assert code == 3


@pytest.mark.parametrize("command", [("closure",), ("si-avn", "--in-closure"), ("kl-test",)])
def test_signed_words_in_usual_order(capsys, command):
    name, *flags = command
    words = ("XX", "-ZZ", "IZ", "-ZI")
    expected = run(capsys, name, *flags, "--format", "json", "--", *words)
    assert expected[0] == 0
    assert run(capsys, name, *words, *flags, "--format", "json") == expected
    assert run(capsys, name, "XX", "-iXY")[0] == 2  # parsed as a word, then refused
    assert run(capsys, name, "XX", "-Q")[0] == 64  # a non-word is still an option


def test_si_avn_verdicts(capsys):
    base = ("IX", "IZ", "XI", "ZI")
    payload = run_json(capsys, "si-avn", *base)
    assert payload["si_avn"] is False
    payload = run_json(capsys, "si-avn", *base, "--in-closure")
    assert payload["si_avn"] is True


def test_si_avn_in_closure_answers_past_the_closure_cap(capsys):
    # holds XI IX ZI IZ on its first two qubits, and closure AvN is monotone in the set
    labels = ["I" * i + p + "I" * (6 - i) for i in range(7) for p in "XZ"]
    payload = run_json(capsys, "si-avn", "--in-closure", *labels)
    assert payload["si_avn"] is True
    for command in ("closure", "kl-test"):  # both still build the closure
        code, out, err = run(capsys, command, *labels)
        assert (code, out) == (2, "")
        assert "partial closure exceeds 4096 members" in err


def test_table_lines_join_words_without_list_reprs(capsys):
    """Every table joins its words with spaces; no line prints a list repr."""
    checks = "nosig,ncf,strong,logical,sections,avn,si-avn,si-avn-closure,kl"
    cases = [("closure", "XX", "ZZ"), ("si-avn", "XX", "ZZ"),
             ("si-avn", "--in-closure", "IX", "IZ", "XI", "ZI"),
             ("kl-test", "IX", "XI", "IZ", "ZI"),
             ("analyze", "--corpus", "xz222", "--checks", checks),
             ("validate", "--corpus", "chsh"),
             ("conjecture-scan", "--set-size", "4", "--samples", "4", "--states", "2",
              "--seed", "11")]
    for argv in cases:
        code, out, err = run(capsys, *argv)
        assert code == 0, err
        assert out.strip() and "['" not in out, argv
    code, out, err = run(capsys, "si-avn", "XX", "ZZ")
    assert out.splitlines() == ["paulis: ZZ XX", "in_closure: false", "si_avn: false"]


def test_kl_test_finds_witness(capsys):
    payload = run_json(capsys, "kl-test", "IX", "XI", "IZ", "ZI")
    assert payload["witness_found"] is True
    assert payload["pattern"] == "four-cycle"
    assert payload["tree_positive"]["op"] == "II"
    assert payload["tree_negative"]["op"] == "-II"
    code, out, err = run(capsys, "kl-test", "IX", "XI", "IZ", "ZI")
    assert code == 0
    assert "tree_negative: (-II <- " in out


def test_corpus_listing_and_entry(capsys):
    code, out, err = run(capsys, "corpus")
    assert code == 0
    for name in REGISTRY:
        assert name in out
    payload = run_json(capsys, "corpus", "chsh")
    assert payload["rows"]


def test_corpus_export(tmp_path, capsys):
    code, out, err = run(capsys, "corpus", "--out", str(tmp_path))
    assert code == 0
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == sorted(f"{name}.json" for name in REGISTRY)
    chsh = json.loads((tmp_path / "chsh.json").read_text())
    assert chsh["rows"]["a1,b1"]


def test_pauli_set_file_is_refused_with_hint(tmp_path, capsys):
    path = tmp_path / "set.json"
    path.write_text(json.dumps({"paulis": ["XX", "ZZ"]}))
    code, out, err = run(capsys, "validate", str(path))
    assert code == 3
    assert "si-avn" in err


def test_conjecture_scan_deterministic(capsys):
    argv = ("conjecture-scan", "--set-size", "4", "--samples", "4",
            "--states", "2", "--seed", "11")
    first = run_json(capsys, *argv)
    second = run_json(capsys, *argv)
    assert first == second
    assert first["counterexamples"] == []
    assert first["conjecture_holds"] is True
    assert first["sets_scanned"] == 4



def test_conjecture_scan_bounds_states(capsys, monkeypatch):
    small = ("conjecture-scan", "--max-qubits", "1", "--set-size", "2",
             "--samples", "1")
    for states in ("0", "100"):
        assert run_json(capsys, *small, "--states", states)["sets_scanned"] == 1

    def no_probes(*args):
        raise AssertionError("probe states built for a rejected --states")

    monkeypatch.setattr("contextuality.scan._probe_states", no_probes)
    for states in ("-1", "101"):
        code, out, err = run(capsys, *small, "--states", states)
        assert code == 2
        assert "states must be between 0 and 100" in err


@pytest.mark.parametrize("mode", [(), ("--exhaustive",)])
def test_conjecture_scan_set_size_beyond_pool_exits_2(capsys, mode):
    code, out, err = run(capsys, "conjecture-scan", "--max-qubits", "1",
                         "--set-size", "4", *mode)
    assert code == 2
    assert out == ""
    assert "set-size 4 exceeds the 3 positive Pauli words" in err
    full = run_json(capsys, "conjecture-scan", "--max-qubits", "1",
                    "--set-size", "3", *mode)
    assert full["sets_scanned"] == 1


def test_conjecture_scan_acyclic_skip_changes_no_byte(capsys, monkeypatch):
    scans = [
        ("--max-qubits", "2", "--set-size", "3", "--exhaustive"),
        ("--max-qubits", "3", "--set-size", "4", "--samples", "12", "--seed", "3"),
        ("--max-qubits", "3", "--set-size", "5", "--samples", "8", "--seed", "4"),
        ("--max-qubits", "3", "--set-size", "6", "--samples", "6", "--seed", "9",
         "--states", "3"),
    ]
    real_gyo_core = contextuality.scan.gyo_core
    real_realize = contextuality.scan.realize_model_exact
    real_probe_states = contextuality.scan._probe_states
    realized, probed = [], []

    def recording_realize(vec, scenario):
        realized[-1].append(bool(real_gyo_core(scenario.contexts)))
        return real_realize(vec, scenario)

    def recording_probe_states(pset, scenario, *args):
        probed[-1].append(bool(real_gyo_core(scenario.contexts)))
        return real_probe_states(pset, scenario, *args)

    def scan_all():
        realized.append([])
        probed.append([])
        return [run(capsys, "conjecture-scan", *argv, "--format", "json") for argv in scans]

    monkeypatch.setattr("contextuality.scan.realize_model_exact", recording_realize)
    monkeypatch.setattr("contextuality.scan._probe_states", recording_probe_states)
    skipping = scan_all()
    # every cover counts as cyclic: every set is probed, as before the skip
    monkeypatch.setattr("contextuality.scan.gyo_core", lambda contexts: tuple(contexts))
    probing = scan_all()
    assert skipping == probing
    assert all(code == 0 for code, _, _ in skipping)
    assert realized[0] and all(realized[0])  # no acyclic cover is realized
    assert not all(realized[1])
    # probe states are built only for covers with a non-empty GYO core
    assert probed[0] and all(probed[0])
    assert not all(probed[1])


def test_conjecture_scan_exhaustive_2q_pin(capsys, monkeypatch):
    real_gyo_core = contextuality.scan.gyo_core
    cores = []

    def recording_gyo_core(contexts):
        cores.append(real_gyo_core(contexts))
        return cores[-1]

    monkeypatch.setattr("contextuality.scan.gyo_core", recording_gyo_core)
    code, out, err = run(capsys, "conjecture-scan", "--max-qubits", "2", "--set-size", "4",
                         "--exhaustive", "--format", "json")
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "a1efd7ae82aa92612a80b6e3c6168f7cd0aa11adbe81ed22e84529a80fd0890d")
    assert sum(not core for core in cores) == 1275
    # acyclic covers are never probed, so the 90 contextual sets all lie
    # among the 90 cyclic covers: the two sets are equal
    assert sum(bool(core) for core in cores) == 90
    assert json.loads(out)["contextual_count"] == 90


def test_console_script_subprocess():
    # Each fresh interpreter imports the same package this test imported.
    src = str(Path(contextuality.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src + (os.pathsep + inherited if inherited else ""))
    proc = subprocess.run(
        [sys.executable, "-m", "contextuality", "analyze",
         "--corpus", "chsh", "--format", "json"],
        capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["ncf"] == "3/4"
    # Run the declared [project.scripts] target the way the script pip
    # generates would, so the test needs no installed executable.
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as handle:
        target = tomllib.load(handle)["project"]["scripts"]["contextuality"]
    module, func = target.split(":")
    launcher = (f"import sys; from {module} import {func}; "
                f"sys.argv[0] = 'contextuality'; sys.exit({func}())")
    proc = subprocess.run(
        [sys.executable, "-c", launcher, "si-avn", "XX", "ZZ",
         "--format", "json"],
        capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["si_avn"] is False
