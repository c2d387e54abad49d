"""The conjecture scan as a library call."""

import json
from dataclasses import asdict

import pytest

import contextuality.scan
from contextuality import ClosureLimitError, ValidationError
from contextuality.cli import main
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


def test_sets_beyond_the_closure_cap_count_as_skipped(monkeypatch):
    real = contextuality.scan.is_state_independent_avn

    def capped(pset, in_closure):
        if "Y" in pset.labels():
            raise ClosureLimitError("partial closure exceeds the cap")
        return real(pset, in_closure=in_closure)

    monkeypatch.setattr("contextuality.scan.is_state_independent_avn", capped)
    result = conjecture_scan(1, 2, samples=1, states=0, seed=0, exhaustive=True)
    assert (result.sets_scanned, result.sets_skipped) == (1, 2)  # XY and YZ skipped
    assert result.closure_avn_count == result.contextual_count == 0
