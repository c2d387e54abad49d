"""Acceptance gate: one test per pinned criterion, one verdict line each.

Run with -v to get a single PASSED or FAILED line per criterion. Every
check is exact; nothing here tolerates floating error.
"""

import random
from fractions import Fraction
from itertools import combinations, product

import numpy as np

from contextuality import (
    Assignment,
    Context,
    EmpiricalModel,
    EquatorialMeasurement,
    GlobalDistribution,
    LinearEquation,
    LinearTheory,
    PauliOperator,
    PauliSet,
    bell_phi_plus,
    check_no_signaling,
    enumerate_assignments,
    find_global_distribution,
    from_hidden_variable,
    ghz,
    global_sections,
    is_avn,
    is_consistent,
    is_state_independent_avn,
    is_strongly_contextual,
    kl_pattern_test,
    kl_witness,
    noncontextual_fraction,
    partial_closure,
    pattern_key,
    possibilistic_collapse,
    realize_model,
    state_independent_theory,
    to_hidden_variable,
)
from contextuality.corpus import (
    REGISTRY,
    chsh_model,
    chsh_scenario,
    mermin_square_bell_model,
    mermin_square_possibilistic,
    mermin_square_scenario,
    mermin_square_set,
    pr_box,
    xy322_ghz_model,
    xy322_plus_model,
    xy322_scenario,
    xz222_model,
    xz222_scenario,
)
from contextuality.pauli import PATTERN_TABLE

F = Fraction

BELL_ANGLES = {"a1": EquatorialMeasurement(0, 0.0),
               "a2": EquatorialMeasurement(0, np.pi / 3),
               "b1": EquatorialMeasurement(1, 0.0),
               "b2": EquatorialMeasurement(1, np.pi / 3)}

BELL_TABLE = {
    ("a1", "b1"): (F(1, 2), F(0), F(0), F(1, 2)),
    ("a1", "b2"): (F(3, 8), F(1, 8), F(1, 8), F(3, 8)),
    ("a2", "b1"): (F(3, 8), F(1, 8), F(1, 8), F(3, 8)),
    ("a2", "b2"): (F(1, 8), F(3, 8), F(3, 8), F(1, 8)),
}


def bell_equatorial_realization() -> EmpiricalModel:
    model = realize_model(bell_phi_plus(), chsh_scenario(),
                          measurements=BELL_ANGLES)
    assert isinstance(model, EmpiricalModel)
    return model


def test_criterion_01_chsh_equatorial_realization():
    # all sixteen entries of the angle-0/pi-3 Bell table, exactly
    model = bell_equatorial_realization()
    for members, entries in BELL_TABLE.items():
        ctx = Context(members)
        row = model.rows[ctx]
        for outs, want in zip(product((0, 1), repeat=2), entries):
            assert row.weights[Assignment(members, outs)] == want
    assert model == chsh_model()
    print("criterion 01 PASS: equatorial Bell realization reproduces the table")


def test_criterion_02_no_signaling_worked_example():
    model = bell_equatorial_realization()
    row_b1 = model.rows[Context(("a1", "b1"))]
    row_b2 = model.rows[Context(("a1", "b2"))]
    # 3/8 + 1/8 = 1/2 on the second row, 1/2 + 0 on the first
    point = Assignment(("a1",), (0,))
    assert row_b2.weights[Assignment(("a1", "b2"), (0, 0))] \
        + row_b2.weights[Assignment(("a1", "b2"), (0, 1))] == F(1, 2)
    for row in (row_b1, row_b2):
        assert row.marginal(["a1"]).weights[point] == F(1, 2)
    assert check_no_signaling(model) == []
    print("criterion 02 PASS: overlapping marginals at a1 both equal 1/2")


def test_criterion_03_pr_box_strongly_contextual():
    model = pr_box()
    assert find_global_distribution(model) is None
    assert noncontextual_fraction(model).ncf == 0
    assert global_sections(model) == ()
    print("criterion 03 PASS: PR box has no global section and fraction 0")


def test_criterion_04_chsh_fraction_pinned_by_oracle():
    model = chsh_model()
    assert find_global_distribution(model) is None

    # pinned primal witness: six global assignments at weight 1/8 each
    labels = ("a1", "a2", "b1", "b2")
    support = ("0000", "0001", "0100", "1011", "1110", "1111")
    witness = {Assignment(labels, tuple(int(ch) for ch in text)): F(1, 8)
               for text in support}
    for members, entries in BELL_TABLE.items():
        for outs, bound in zip(product((0, 1), repeat=2), entries):
            local = Assignment(members, outs)
            mass = sum(w for g, w in witness.items() if g.extends(local))
            assert mass <= bound
    primal = sum(witness.values())
    assert primal == F(3, 4)

    # pinned dual certificate: rows in context-major order, outcomes 00..11
    dual = (0, 1, 1, 0, 0, 1, 1, 0, 0, 1, 1, 0, 1, 0, 0, 1)
    contexts = (("a1", "b1"), ("a1", "b2"), ("a2", "b1"), ("a2", "b2"))
    rows = [(members, outs) for members in contexts
            for outs in product((0, 1), repeat=2)]
    bound = sum(F(y) * BELL_TABLE[members][2 * outs[0] + outs[1]]
                for y, (members, outs) in zip(dual, rows))
    assert bound == F(3, 4)
    for g in enumerate_assignments(labels, (0, 1)):
        covered = sum(y for y, (members, outs) in zip(dual, rows)
                      if g.extends(Assignment(members, outs)))
        assert covered >= 1
    # weak duality pins the optimum at 3/4; the library must reproduce it
    assert noncontextual_fraction(model).ncf == F(3, 4)
    print("criterion 04 PASS: noncontextual fraction 3/4 reverified exactly")


def test_criterion_05_square_state_independent_theory():
    theory = state_independent_theory(mermin_square_set())
    assert len(theory.equations) == 6
    expected = [
        (("IX", "XI", "XX"), 0),
        (("IZ", "ZI", "ZZ"), 0),
        (("IZ", "XI", "XZ"), 0),
        (("IX", "ZI", "ZX"), 0),
        (("XX", "YY", "ZZ"), 1),
        (("XZ", "YY", "ZX"), 0),
    ]
    expected_eqs = [LinearEquation(Context(m), (1, 1, 1), c)
                    for m, c in expected]
    for eq in expected_eqs:
        assert theory.implies(eq)
    reference = LinearTheory(theory.scenario, expected_eqs)
    for eq in theory.equations:
        assert reference.implies(eq)

    result = is_consistent(theory)
    assert not result.consistent
    assert sum(eq.constant for eq in result.certificate) % 2 == 1
    counts = {}
    for eq in result.certificate:
        for m in eq.context.members:
            counts[m] = counts.get(m, 0) + 1
    assert all(c % 2 == 0 for c in counts.values())
    print("criterion 05 PASS: the six square relations are jointly inconsistent")


def test_criterion_06_square_realized_on_bell_state():
    model = realize_model(bell_phi_plus(), mermin_square_scenario())
    assert isinstance(model, EmpiricalModel)
    assert model == mermin_square_bell_model()
    assert possibilistic_collapse(model) == mermin_square_possibilistic()
    assert is_avn(model)
    assert global_sections(model) == ()
    assert noncontextual_fraction(model).ncf == 0
    print("criterion 06 PASS: Bell-state square table, collapse, and AvN agree")


def test_criterion_07_xz222_closure():
    model = realize_model(bell_phi_plus(), xz222_scenario())
    assert model == xz222_model()
    assert noncontextual_fraction(model).ncf == 1

    base = PauliSet.from_strings(["XI", "IX", "ZI", "IZ"])
    closed = partial_closure(base)
    signed = sorted(str(p) for p in closed.members)
    bases = ("II", "XI", "IX", "XX", "IZ", "ZI", "ZZ", "XZ", "ZX", "YY")
    assert signed == sorted([p for b in bases for p in (b, "-" + b)])
    assert not is_state_independent_avn(base)
    assert is_state_independent_avn(base, in_closure=True)
    print("criterion 07 PASS: local cover is trivial, closure of 20 is AvN")


def test_criterion_08_ghz_against_plus():
    model = realize_model(ghz(3), xy322_scenario())
    members = {
        ("IIX", "IXI", "XII"): 0,
        ("IIY", "IYI", "XII"): 1,
        ("IIY", "IXI", "YII"): 1,
        ("IIX", "IYI", "YII"): 1,
    }
    quarter = F(1, 4)
    for labels, parity in members.items():
        row = model.rows[Context(labels)]
        for outs in product((0, 1), repeat=3):
            want = quarter if sum(outs) % 2 == parity else 0
            assert row.weights[Assignment(labels, outs)] == want
    assert model == xy322_ghz_model()
    assert is_avn(model)

    flat = xy322_plus_model()
    eighth = F(1, 8)
    for ctx in flat.scenario.contexts:
        assert set(flat.rows[ctx].weights.values()) == {eighth}
    assert noncontextual_fraction(flat).ncf == 1
    print("criterion 08 PASS: GHZ parity rows are AvN, the flat table is not")


def test_criterion_09_global_distribution_round_trip():
    rng = random.Random(20240817)
    sc = chsh_scenario()
    points = list(enumerate_assignments(sc.measurements, sc.outcomes))
    for _ in range(200):
        raws = [rng.randrange(1, 9) for _ in range(4)]
        total = sum(raws)
        weights = {}
        for raw in raws:
            g = rng.choice(points)
            weights[g] = weights.get(g, F(0)) + F(raw, total)
        model = GlobalDistribution(sc, weights).realized_model()

        found = find_global_distribution(model)
        assert found is not None
        hv = to_hidden_variable(found)
        for (lam, ctx), cond in hv.conditionals.items():
            for s, w in cond.weights.items():
                factor = F(1)
                for m in ctx.members:
                    single = cond.marginal([m])
                    factor *= single.weights[s.restrict((m,))]
                assert w == factor
        back = from_hidden_variable(hv)
        assert back.realized_model() == model
    print("criterion 09 PASS: 200 mixtures round trip through hidden variables")


def pauli_matrix(op: PauliOperator) -> np.ndarray:
    singles = {"I": np.eye(2), "X": np.array([[0, 1], [1, 0]]),
               "Y": np.array([[0, -1j], [1j, 0]]),
               "Z": np.array([[1, 0], [0, -1]])}
    text = str(op)
    sign = 1.0 + 0j
    if text.startswith("-"):
        sign, text = -sign, text[1:]
    if text.startswith("i"):
        sign, text = sign * 1j, text[1:]
    out = np.array([[sign]])
    for ch in text:
        out = np.kron(out, singles[ch])
    return out


def test_criterion_10_dense_matrix_oracle():
    ops = [PauliOperator.from_string(a + b) for a, b in product("IXYZ", repeat=2)]
    checked = 0
    for a, b in product(ops, ops):
        ma, mb = pauli_matrix(a), pauli_matrix(b)
        assert np.allclose(pauli_matrix(a * b), ma @ mb)
        assert a.commutes(b) == bool(np.allclose(ma @ mb, mb @ ma))
        checked += 1
    assert checked == 256
    xx, zz = PauliOperator.from_string("XX"), PauliOperator.from_string("ZZ")
    assert str(xx * zz) == "-YY"
    print("criterion 10 PASS: 256 ordered products match the matrix oracle")


def test_criterion_11_hierarchy_coherence():
    realizations = {
        "mermin-square-bell": mermin_square_set(),
        "xy322-ghz": PauliSet.from_strings(xy322_scenario().measurements),
        "xz222": PauliSet.from_strings(xz222_scenario().measurements),
    }
    for name, entry in REGISTRY.items():
        value = entry.build()
        if entry.kind == "pauli-set":
            continue
        strong = is_strongly_contextual(value)
        avn = is_avn(value)
        assert not avn or strong
        if entry.kind == "model":
            assert strong == (noncontextual_fraction(value).ncf == 0)
        if name in realizations:
            si = is_state_independent_avn(realizations[name])
            assert not si or avn
    print("criterion 11 PASS: AvN implies strong implies fraction 0, corpus-wide")


def test_criterion_12_kl_pattern_consistency():
    pool = [PauliOperator.from_string(a + b)
            for a, b in product("IXYZ", repeat=2) if a + b != "II"]
    assert len(pool) == 15
    scanned = 0
    for combo in combinations(pool, 4):
        s = PauliSet(2, combo)
        direct = is_state_independent_avn(s, in_closure=True)
        assert kl_pattern_test(s).avn == direct
        assert PATTERN_TABLE[pattern_key(combo)] == direct
        if kl_witness(s) is not None:
            assert direct
        scanned += 1
    assert scanned == 1365
    print("criterion 12 PASS: 1365 subsets agree with the cached pattern table")
