import json
import random
from fractions import Fraction

import pytest

from contextuality import (
    Assignment,
    Context,
    ContextDistribution,
    EmpiricalModel,
    MeasurementScenario,
    NoSignalingViolation,
    ParseError,
    ValidationError,
    check_no_signaling,
    convex_mix,
    is_no_signaling,
    model_from_dict,
    model_to_dict,
    possibilistic_collapse,
    possibilistic_from_dict,
    possibilistic_to_dict,
)
from contextuality import PossibilisticModel
from contextuality.corpus import chsh_model, chsh_scenario, pr_box
from contextuality.scenario import parse_assignment


def dist(labels, table):
    ctx = Context(labels)
    weights = {Assignment(labels, tuple(int(ch) for ch in key)): Fraction(v)
               for key, v in table.items()}
    return ContextDistribution(ctx, (0, 1), weights)


def test_distribution_fills_zero_weights():
    d = dist(["a", "b"], {"00": "1/2", "11": "1/2"})
    zero = Assignment(["a", "b"], [0, 1])
    assert d.weights[zero] == 0
    assert d.support() == {Assignment(["a", "b"], [0, 0]),
                           Assignment(["a", "b"], [1, 1])}


def test_distribution_rejects_bad_weights():
    with pytest.raises(ValidationError):
        dist(["a"], {"0": "1/2", "1": "1/4"})
    with pytest.raises(ValidationError):
        dist(["a"], {"0": "3/2", "1": "-1/2"})


def test_marginal_is_exact():
    d = dist(["a", "b"], {"00": "3/8", "01": "1/8", "10": "1/8", "11": "3/8"})
    m = d.marginal(["a"])
    assert m.weights[Assignment(["a"], [0])] == Fraction(1, 2)
    assert m.weights[Assignment(["a"], [1])] == Fraction(1, 2)


def test_model_requires_every_context_row():
    sc = chsh_scenario()
    rows = {c: dist(list(c.members), {"00": "1"}) for c in sc.contexts[:-1]}
    with pytest.raises(ValidationError):
        EmpiricalModel(sc, rows)


def test_chsh_is_no_signaling():
    assert is_no_signaling(chsh_model())
    assert check_no_signaling(pr_box()) == []


def test_signaling_model_is_caught():
    sc = MeasurementScenario(["a", "b", "c"], [["a", "b"], ["a", "c"]], [0, 1])
    rows = {
        sc.contexts[0]: dist(["a", "b"], {"00": "1"}),
        sc.contexts[1]: dist(["a", "c"], {"10": "1"}),
    }
    model = EmpiricalModel(sc, rows)
    violations = check_no_signaling(model)
    # one record per disagreeing overlap assignment: a=0 and a=1
    assert len(violations) == 2
    for v in violations:
        assert v.restriction.labels == ("a",)
        assert {v.value_a, v.value_b} == {Fraction(0), Fraction(1)}


def test_convex_mix():
    a = chsh_model()
    b = pr_box()
    lam = Fraction(1, 3)
    m = convex_mix(a, b, lam)
    ctx = a.scenario.contexts[0]
    s = Assignment(ctx.members, [0, 0])
    assert m.rows[ctx].weights[s] == \
        lam * a.rows[ctx].weights[s] + (1 - lam) * b.rows[ctx].weights[s]
    with pytest.raises(ValidationError):
        convex_mix(a, b, Fraction(3, 2))


def test_possibilistic_collapse():
    p = possibilistic_collapse(pr_box())
    ctx = p.scenario.contexts[0]
    assert p.supports[ctx] == {Assignment(ctx.members, [0, 0]),
                              Assignment(ctx.members, [1, 1])}


def test_possibilistic_rejects_empty_support():
    p = possibilistic_collapse(pr_box())
    supports = dict(p.supports)
    supports[p.scenario.contexts[0]] = frozenset()
    with pytest.raises(ValidationError):
        PossibilisticModel(p.scenario, supports)


def test_model_json_round_trip():
    m = chsh_model()
    data = json.loads(json.dumps(model_to_dict(m)))
    assert model_from_dict(data) == m
    # zero weights are omitted from the serialized rows
    assert all(v != "0" for row in data["rows"].values() for v in row.values())


def test_model_parse_keeps_parse_assignment_errors():
    """Outcome strings are looked up in the context's table; anything else
    gets parse_assignment's answer, error or not."""
    data = model_to_dict(chsh_model())
    row = data["rows"]["a1,b1"]
    ctx = Context(["a1", "b1"])
    for bad in ("0", "000", "0x", "12", " 0"):
        with pytest.raises(ParseError) as expected:
            parse_assignment(bad, ctx, (0, 1))
        broken = json.loads(json.dumps(data))
        broken["rows"]["a1,b1"] = {**row, bad: "0"}
        with pytest.raises(ParseError) as got:
            model_from_dict(broken)
        assert str(got.value) == str(expected.value)
    # non-ASCII digits decode as they always have
    fullwidth = json.loads(json.dumps(data))
    fullwidth["rows"]["a1,b1"] = {"\uff10\uff10": "1/2", "11": "1/2"}
    assert model_from_dict(fullwidth) == chsh_model()


def test_ten_outcomes_round_trip_and_eleven_are_refused():
    for k in (10, 11):
        sc = MeasurementScenario(["a"], [["a"]], range(k), "none")
        ctx = sc.contexts[0]
        model = EmpiricalModel(sc, {ctx: ContextDistribution(
            ctx, sc.outcomes, {Assignment(["a"], [k - 1]): 1})})
        poss = possibilistic_collapse(model)
        if k == 10:
            data = json.loads(json.dumps(model_to_dict(model)))
            assert data["rows"] == {"a": {"9": "1"}}
            assert model_from_dict(data) == model
            assert possibilistic_from_dict(possibilistic_to_dict(poss)) == poss
        else:
            with pytest.raises(ValidationError, match="11 outcomes"):
                model_to_dict(model)
            with pytest.raises(ValidationError, match="11 outcomes"):
                possibilistic_to_dict(poss)


def test_comma_labels_are_refused_before_rows_collide():
    """Contexts ["a", "b"] and ["a,b"] would share the row key "a,b"."""
    data = {"scenario": {"measurements": ["a", "b", "a,b"], "outcomes": [0, 1],
                         "contexts": [["a", "b"], ["a,b"]]},
            "rows": {"a,b": {"00": "1"}}}
    with pytest.raises(ParseError, match="','"):
        model_from_dict(data)


def test_possibilistic_json_round_trip():
    p = possibilistic_collapse(chsh_model())
    data = json.loads(json.dumps(possibilistic_to_dict(p)))
    assert possibilistic_from_dict(data) == p


def test_random_mixtures_stay_no_signaling():
    rng = random.Random(11)
    a, b = chsh_model(), pr_box()
    for _ in range(20):
        lam = Fraction(rng.randrange(0, 65), 64)
        assert is_no_signaling(convex_mix(a, b, lam))


# ---------------------------------------------------------------- reference
# The pairwise loop over ContextDistribution.marginal objects, kept as the
# oracle for the marginal sums: same violations, in the same order.

def reference_check_no_signaling(model):
    violations = []
    contexts = model.scenario.contexts
    for i, a in enumerate(contexts):
        for b in contexts[i + 1:]:
            shared = a.intersection(b)
            if not shared:
                continue
            ma = model.rows[a].marginal(shared)
            mb = model.rows[b].marginal(shared)
            for s in ma.weights:
                if ma.weights[s] != mb.weights[s]:
                    violations.append(NoSignalingViolation(a, b, s, ma.weights[s], mb.weights[s]))
    return violations


def _assert_matches_reference(model):
    got = check_no_signaling(model)
    want = reference_check_no_signaling(model)
    assert got == want
    # dataclass equality would take an int 0 for Fraction(0); require Fractions
    assert all(type(v.value_a) is type(v.value_b) is Fraction for v in got)
    assert is_no_signaling(model) == (not want)
    return got


def _corpus_models():
    from contextuality.corpus import REGISTRY
    return [entry.build() for entry in REGISTRY.values() if entry.kind == "model"]


def test_no_signaling_matches_reference_on_corpus():
    models = _corpus_models()
    assert len(models) >= 6
    for model in models:
        _assert_matches_reference(model)


def _xy_model(rng):
    from contextuality.corpus import xy322_scenario
    from contextuality.realize import realize_model_exact
    amps = [(Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3))) for _ in range(8)]
    return realize_model_exact(amps, xy322_scenario())


def test_no_signaling_matches_reference_on_signalling_models():
    rng = random.Random(71)
    bases = _corpus_models()
    wide = 0
    for k in range(30):
        base = _xy_model(rng) if k % 3 == 0 else rng.choice(bases)
        ctx = rng.choice(base.scenario.contexts)
        while True:  # a row whose marginals still agree is redrawn
            raw = [rng.randrange(0, 5) for _ in base.rows[ctx].weights]
            if not sum(raw):
                continue
            rows = dict(base.rows)
            rows[ctx] = ContextDistribution(ctx, base.scenario.outcomes, {
                s: Fraction(r, sum(raw)) for s, r in zip(base.rows[ctx].weights, raw)})
            model = EmpiricalModel(base.scenario, rows)
            if reference_check_no_signaling(model):
                break
        got = _assert_matches_reference(model)
        wide += any(len(v.restriction.labels) >= 2 for v in got)
    assert wide >= 5  # overlaps of two labels disagree, not only single ones
