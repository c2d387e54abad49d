"""The conjecture scan as a library call."""

import json
import random
from dataclasses import asdict

import pytest

import contextuality.scan
from contextuality import ValidationError
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


def test_three_qubit_scan_skips_no_set():
    rng = random.Random(2)  # the scan's own draw, to count its distinct sets
    pool = contextuality.scan._positive_paulis(3)
    drawn = {tuple(sorted(rng.sample(pool, 2), key=str)) for _ in range(60)}
    assert len(drawn) < 60  # some draws repeat
    result = conjecture_scan(3, 2, samples=60, states=0, seed=2, exhaustive=False)
    assert (result.sets_scanned, result.sets_skipped) == (len(drawn), 0)
