import json
import random

import pytest

from contextuality import (
    Assignment,
    ConsistencyResult,
    Context,
    LinearEquation,
    LinearTheory,
    MeasurementScenario,
    PauliSet,
    PossibilisticModel,
    ValidationError,
    is_avn,
    is_consistent,
    partial_closure,
    satisfies,
    state_independent_theory,
    theory_of_supports,
)
from contextuality import cli, gf2
from contextuality.corpus import (
    mermin_square_possibilistic,
    mermin_square_scenario,
    pr_box,
    xy322_ghz_model,
    xz222_model,
)
from contextuality.scan import _positive_paulis
from contextuality.scenario import enumerate_assignments


def tiny_scenario():
    return MeasurementScenario(["x", "y", "z"], [["x", "y"], ["y", "z"]], [0, 1])


def eq(scenario, members, coefs, const):
    return LinearEquation(Context(members), coefs, const)


def test_equation_render_and_satisfies():
    e = eq(None, ["x", "y"], (1, 1), 0)
    assert e.render() == "s(x) + s(y) = 0"
    assert satisfies(Assignment(["x", "y"], [0, 0]), e)
    assert satisfies(Assignment(["x", "y"], [1, 1]), e)
    assert not satisfies(Assignment(["x", "y"], [1, 0]), e)
    zero = eq(None, ["x", "y"], (0, 0), 1)
    assert zero.render() == "0 = 1"


def test_theory_reduces_per_context():
    sc = tiny_scenario()
    a = eq(sc, ["x", "y"], (1, 0), 0)
    b = eq(sc, ["x", "y"], (1, 1), 1)
    c = eq(sc, ["x", "y"], (0, 1), 1)  # dependent: a + b
    t1 = LinearTheory(sc, [a, b])
    t2 = LinearTheory(sc, [a, b, c])
    assert t1 == t2
    assert len(t1.rows[0]) == 2


def test_theory_detects_contradiction_within_context():
    sc = tiny_scenario()
    a = eq(sc, ["x", "y"], (1, 1), 0)
    b = eq(sc, ["x", "y"], (1, 1), 1)
    t = LinearTheory(sc, [a, b])
    res = is_consistent(t)
    assert not res
    assert res.certificate is not None


def test_span_and_implies():
    sc = tiny_scenario()
    a = eq(sc, ["x", "y"], (1, 0), 1)
    b = eq(sc, ["x", "y"], (0, 1), 1)
    t = LinearTheory(sc, [a, b])
    assert t.implies(eq(sc, ["x", "y"], (1, 1), 0))
    assert not t.implies(eq(sc, ["x", "y"], (1, 1), 1))


def test_theory_requires_z2_ring():
    sc = MeasurementScenario(["x"], [["x"]], [0, 1], ring="none")
    with pytest.raises(ValidationError):
        LinearTheory(sc, [])


def test_theory_of_supports_square():
    # the Bell-state supports imply every operator parity relation, plus
    # state-dependent facts such as s(XX) = 0 from the deterministic row
    t = theory_of_supports(mermin_square_possibilistic())
    sc = t.scenario
    parity = [
        (["IX", "XI", "XX"], (1, 1, 1), 0),
        (["IX", "ZI", "ZX"], (1, 1, 1), 0),
        (["IZ", "XI", "XZ"], (1, 1, 1), 0),
        (["IZ", "ZI", "ZZ"], (1, 1, 1), 0),
        (["XX", "YY", "ZZ"], (1, 1, 1), 1),
        (["XZ", "YY", "ZX"], (1, 1, 1), 0),
    ]
    for members, coefs, const in parity:
        assert t.implies(eq(sc, members, coefs, const))
    assert t.implies(eq(sc, ["XX", "YY", "ZZ"], (1, 0, 0), 0))
    res = is_consistent(t)
    assert not res.consistent
    # the certificate's equations cancel coefficient-wise and sum constants to 1
    assert res.certificate
    consts = sum(e.constant for e in res.certificate) % 2
    assert consts == 1


def test_consistent_theory_returns_witness():
    t = theory_of_supports(xz222_model())
    res = is_consistent(t)
    assert res.consistent
    for e in t.equations:
        assert satisfies(res.assignment.restrict(e.context.members), e)


def test_is_avn_verdicts():
    assert is_avn(pr_box())
    assert is_avn(xy322_ghz_model())
    assert not is_avn(xz222_model())


def test_ghz_support_theory_is_avn_with_certificate():
    t = theory_of_supports(xy322_ghz_model())
    res = is_consistent(t)
    assert not res.consistent
    masks = {}
    for e in res.certificate:
        for m, c in zip(e.context.members, e.coefficients):
            if c:
                masks[m] = masks.get(m, 0) ^ 1
    assert not any(masks.values())
    assert sum(e.constant for e in res.certificate) % 2 == 1


def test_scenario_accessor():
    assert theory_of_supports(mermin_square_possibilistic()).scenario == mermin_square_scenario()


# ------------------------------------------------- reference for the solve

def reference_is_consistent(theory):
    """The full pass: every equation enters the system before the verdict."""
    labels = theory.scenario.measurements
    index = {m: i for i, m in enumerate(labels)}
    system = gf2.AffineBasis(len(labels))
    for e in theory.equations:
        system.add(sum(c << index[m] for m, c in zip(e.context.members, e.coefficients)),
                   e.constant)
    if system.conflict is not None:
        return ConsistencyResult(False, None, tuple(
            e for i, e in enumerate(theory.equations) if system.conflict >> i & 1))
    sol = system.solution()
    return ConsistencyResult(
        True, Assignment(labels, tuple(sol >> i & 1 for i in range(len(labels)))), None)


def random_support_model(rng):
    """2-7 binary measurements, 1-5 contexts of 1-3 members, arbitrary supports."""
    labels = [f"m{i}" for i in range(rng.randint(2, 7))]
    contexts = {Context(rng.sample(labels, rng.randint(1, min(3, len(labels)))))
                for _ in range(rng.randint(1, 5))}
    scenario = MeasurementScenario(labels, contexts, (0, 1))
    supports = {}
    for ctx in scenario.contexts:
        local = enumerate_assignments(ctx.members, (0, 1))
        supports[ctx] = rng.sample(local, rng.randint(1, len(local)))
    return PossibilisticModel(scenario, supports)


def test_first_conflict_exit_matches_full_pass():
    rng = random.Random(81)
    theories = [("supports", theory_of_supports(random_support_model(rng))) for _ in range(200)]
    for n, k in ((2, 3), (2, 4), (2, 5), (3, 4), (3, 5)):
        for _ in range(6):
            s = PauliSet(n, rng.sample(_positive_paulis(n), k))
            theories.append(("closure", state_independent_theory(partial_closure(s))))
    verdicts, early = set(), 0
    for source, theory in theories:
        result = is_consistent(theory)
        assert result == reference_is_consistent(theory)
        verdicts.add((source, result.consistent))
        if result.consistent:
            continue
        parity = {}
        for e in result.certificate:
            for m, c in zip(e.context.members, e.coefficients):
                parity[m] = parity.get(m, 0) ^ c
        assert not any(parity.values())
        assert sum(e.constant for e in result.certificate) % 2 == 1
        early += theory.equations.index(result.certificate[-1]) < len(theory) - 1
    assert verdicts == {(src, b) for src in ("supports", "closure") for b in (False, True)}
    assert early > 10  # the solve stopped before the last equation


# ------------------------------------------------- JSON form and equality

def test_theory_json_round_trip(capsys):
    """The equations constructor and the closure CLI's JSON rendering both
    give back the theory held as rows."""
    rng = random.Random(83)
    theories = [theory_of_supports(mermin_square_possibilistic())]
    theories += [theory_of_supports(random_support_model(rng)) for _ in range(60)]
    sets = [PauliSet(n, rng.sample(_positive_paulis(n), k))
            for n, k in ((2, 3), (2, 4), (2, 5), (3, 4), (3, 5)) for _ in range(4)]
    theories += [state_independent_theory(partial_closure(s)) for s in sets]
    assert any(len(t) == 0 for t in theories) and any(len(t) > 20 for t in theories)
    for t in theories:
        back = LinearTheory(t.scenario, t.equations)
        assert back == t and hash(back) == hash(t)
        assert len(t) == len(t.equations)
        assert list(t.equations) == sorted(t.equations)  # the canonical order
        assert t.render() == [e.render() for e in t.equations]
    for s in sets:
        assert cli.main(["closure", "--format", "json", *s.labels()]) == 0
        payload = json.loads(capsys.readouterr().out)
        closed = state_independent_theory(partial_closure(s))
        assert payload["equations"] == [e.render() for e in closed.equations]
