import json
import random
from fractions import Fraction
from itertools import product

import pytest

from contextuality import (
    Assignment,
    Context,
    MeasurementScenario,
    ParseError,
    PauliSet,
    ValidationError,
    enumerate_assignments,
    find_global_distribution,
    gyo_core,
    realize_model_exact,
    scenario_from_dict,
    scenario_of,
    scenario_to_dict,
    validate_scenario,
)
from contextuality.scenario import parse_assignment


def chsh():
    return MeasurementScenario(
        ["a1", "a2", "b1", "b2"],
        [["a1", "b1"], ["a1", "b2"], ["a2", "b1"], ["a2", "b2"]],
        [0, 1],
    )


def test_context_is_canonical():
    c = Context(["b", "a", "b"])
    assert c.members == ("a", "b")
    assert c.key() == "a,b"
    assert len(c) == 2
    assert Context(["a", "b"]) == Context(["b", "a"])


def test_context_ordering_and_subset():
    assert Context(["a"]) < Context(["a", "b"])
    assert Context(["a"]).issubset(Context(["a", "b"]))
    assert not Context(["a", "c"]).issubset(Context(["a", "b"]))


def test_assignment_aligns_to_sorted_labels():
    s = Assignment(["b", "a"], [1, 0])
    assert s.labels == ("a", "b")
    assert s.values == (0, 1)
    assert s["a"] == 0 and s["b"] == 1
    assert s.to_string() == "01"
    assert s.as_dict() == {"a": 0, "b": 1}


def test_assignment_restrict_and_extends():
    s = Assignment(["a", "b", "c"], [1, 0, 1])
    r = s.restrict(["c", "a"])
    assert r.labels == ("a", "c")
    assert r.values == (1, 1)
    assert s.extends(r)
    assert not s.extends(Assignment(["a"], [0]))


def test_assignment_rejects_unknown_label():
    s = Assignment(["a"], [0])
    with pytest.raises(KeyError):
        s["b"]


def test_scenario_canonicalizes():
    sc = chsh()
    assert sc.measurements == ("a1", "a2", "b1", "b2")
    assert sc.contexts[0].members == ("a1", "b1")
    assert sc.outcomes == (0, 1)
    assert sc.ring == "Z2"


def test_scenario_rejects_bad_outcomes():
    with pytest.raises(ValidationError):
        MeasurementScenario(["a"], [["a"]], [0])
    with pytest.raises(ValidationError):
        MeasurementScenario(["a"], [["a"]], [1, 2])
    with pytest.raises(ValidationError):
        MeasurementScenario(["a"], [["a"]], [0, 1, 2], ring="Z2")


def test_scenario_rejects_undeclared_labels():
    with pytest.raises(ValidationError):
        MeasurementScenario(["a"], [["a", "b"]], [0, 1])


def test_validate_reports_covering_and_antichain():
    sc = MeasurementScenario(["a", "b", "c"], [["a"], ["a", "b"]], [0, 1])
    kinds = sorted(v.kind for v in validate_scenario(sc))
    assert kinds == ["antichain", "covering"]
    assert validate_scenario(chsh()) == []


def test_enumerate_assignments_order():
    ctx = Context(["y", "x"])
    strings = [s.to_string() for s in enumerate_assignments(ctx, (0, 1))]
    assert strings == ["00", "01", "10", "11"]


def test_enumerate_assignments_matches_the_checking_constructor():
    for labels, outcomes in ((["y", "x"], (0, 1)), (["c", "a", "b"], (0, 1, 2)), ([], (0, 1))):
        expected = tuple(Assignment(sorted(labels), vals)
                         for vals in product(outcomes, repeat=len(labels)))
        assert enumerate_assignments(labels, outcomes) == expected
    assert enumerate_assignments(["a"], ()) == ()
    assert enumerate_assignments([], (0, -1)) == (Assignment((), ()),)


@pytest.mark.parametrize("outcomes, first_bad", [
    ((0, -1), (0, -1)), ((-1, 0), (-1, -1)), ((0, 1.0), (0, 1.0)),
    ((0, "x"), (0, "x")), (((),), ((), ()))])
def test_enumerate_assignments_raises_at_the_first_bad_row(outcomes, first_bad):
    """Outcomes are checked once per call; the error is the constructor's."""
    with pytest.raises(ValidationError) as exc:
        enumerate_assignments(["b", "a"], outcomes)
    assert str(exc.value) == f"outcomes must be nonnegative integers: {first_bad}"


def test_labels_may_not_contain_commas():
    """A context's JSON key joins its members with ',', so a comma could merge two keys."""
    with pytest.raises(ValidationError, match="','"):
        Context(["a,b"])
    with pytest.raises(ValidationError, match="','"):
        MeasurementScenario(["a", "b", "a,b"], [["a", "b"]])
    with pytest.raises(ParseError, match="','"):
        scenario_from_dict({"measurements": ["a", "b", "a,b"],
                            "contexts": [["a", "b"], ["a,b"]]})


def test_outcome_count_is_bounded_by_one_digit_strings():
    ten = MeasurementScenario(["a"], [["a"]], range(10), "none")
    assert scenario_from_dict(json.loads(json.dumps(scenario_to_dict(ten)))) == ten
    eleven = MeasurementScenario(["a"], [["a"]], range(11), "none")
    with pytest.raises(ValidationError, match="11 outcomes exceed the 10"):
        scenario_to_dict(eleven)
    with pytest.raises(ParseError, match="11 outcomes exceed the 10"):
        scenario_from_dict({"measurements": ["a"], "contexts": [["a"]],
                            "outcomes": list(range(11)), "ring": "none"})


def test_json_round_trip():
    sc = chsh()
    data = scenario_to_dict(sc)
    assert scenario_from_dict(json.loads(json.dumps(data))) == sc


def test_from_dict_rejects_garbage():
    with pytest.raises(ParseError):
        scenario_from_dict([])
    with pytest.raises(ParseError):
        scenario_from_dict({"measurements": ["a"]})
    with pytest.raises(ParseError):
        scenario_from_dict({"measurements": "a", "contexts": []})


def test_parse_assignment():
    ctx = Context(["a", "b"])
    s = parse_assignment("10", ctx, (0, 1))
    assert s["a"] == 1 and s["b"] == 0
    with pytest.raises(ParseError):
        parse_assignment("1", ctx, (0, 1))
    with pytest.raises(ParseError):
        parse_assignment("1x", ctx, (0, 1))
    with pytest.raises(ParseError):
        parse_assignment("12", ctx, (0, 1))


def test_gyo_core_keeps_cycles():
    assert gyo_core(chsh().contexts) == chsh().contexts
    triangle = [["a", "b"], ["b", "c"], ["c", "a"]]
    assert gyo_core(triangle) == tuple(sorted(Context(c) for c in triangle))
    five = scenario_of(PauliSet.from_strings(["IZZ", "XXZ", "IXY", "YIY", "XYY"]))
    assert len(five.contexts) == 5
    assert all(len(c) == 2 for c in five.contexts)
    assert gyo_core(five.contexts) == five.contexts
    # an ear hanging off a cycle is removed, the cycle stays
    assert gyo_core(triangle + [["c", "d"], ["d", "e", "f"]]) == gyo_core(triangle)


@pytest.mark.parametrize("contexts", [
    [["a", "b"], ["b", "c"], ["c", "d"]],                 # path
    [["a", "h"], ["b", "h"], ["c", "h"], ["d", "h"]],     # star
    [["a", "b", "c"], ["a", "b"], ["b", "c"], ["c", "a"]],  # triangle inside a context
    [["a", "b"], ["b", "a"], ["b", "c"]],                 # equal copies count once
    [["a", "b", "c"]],
    [],
])
def test_gyo_core_empties_acyclic_covers(contexts):
    assert gyo_core(contexts) == ()


def _random_words(num_qubits, k, rng):
    words = set()
    while len(words) < k:
        word = "".join(rng.choice("IXYZ") for _ in range(num_qubits))
        if word.strip("I"):
            words.add(word)
    return sorted(words)


def test_acyclic_pauli_covers_have_global_distributions():
    """Vorob'ev: on an acyclic cover every quantum model is noncontextual."""
    rng = random.Random(7)
    checked = 0
    for num_qubits in (2, 3):
        for k in range(3, 7):
            for _ in range(3):
                scenario = scenario_of(PauliSet.from_strings(_random_words(num_qubits, k, rng)))
                if gyo_core(scenario.contexts):
                    continue
                for _ in range(2):
                    state = [(Fraction(rng.randrange(-2, 3)), Fraction(rng.randrange(-2, 3)))
                             for _ in range(1 << num_qubits)]
                    if not any(re or im for re, im in state):
                        continue
                    model = realize_model_exact(state, scenario)
                    found = find_global_distribution(model)
                    assert found is not None, scenario.contexts
                    assert found.realized_model() == model
                    checked += 1
    assert checked >= 30, checked
