"""Quantum realization of empirical tables: exact Pauli rows, snapped equatorial rows."""

import math
import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from contextuality import (
    Assignment,
    EmpiricalModel,
    EquatorialMeasurement,
    FloatDistribution,
    FloatEmpiricalModel,
    MeasurementScenario,
    NonCommutingContextError,
    ParseError,
    PauliOperator,
    SizeLimitError,
    StateVector,
    ValidationError,
    basis_state,
    bell_phi_plus,
    born_distribution_equatorial,
    born_distribution_exact,
    canonical_state,
    check_no_signaling,
    context_eigenstate,
    equatorial_from_dict,
    ghz,
    load_equatorial,
    load_state,
    parse_angle,
    plus,
    realize_model,
    realize_model_exact,
    state_from_dict,
)
from contextuality.corpus import (
    hardy_model,
    mermin_square_bell_model,
    mermin_square_scenario,
    xy322_ghz_model,
    xy322_plus_model,
    xy322_scenario,
    xz222_scenario,
)
from contextuality.realize import _exactify


def test_ghz_pauli_realization_matches_table():
    model = realize_model(ghz(3), xy322_scenario())
    assert isinstance(model, EmpiricalModel)
    assert model == xy322_ghz_model()


def test_ghz_equatorial_angles_match_pauli():
    # X is the equatorial angle 0 and Y the angle pi/2, party by party
    angles = {"XII": (0, 0.0), "YII": (0, math.pi / 2),
              "IXI": (1, 0.0), "IYI": (1, math.pi / 2),
              "IIX": (2, 0.0), "IIY": (2, math.pi / 2)}
    measurements = {lab: EquatorialMeasurement(p, a)
                    for lab, (p, a) in angles.items()}
    model = realize_model(ghz(3), xy322_scenario(), measurements=measurements)
    assert isinstance(model, EmpiricalModel)
    assert model == xy322_ghz_model()


def test_bell_square_realization_matches_table():
    model = realize_model(bell_phi_plus(), mermin_square_scenario())
    assert isinstance(model, EmpiricalModel)
    assert model == mermin_square_bell_model()


def test_plus_state_truth_is_not_the_flat_table():
    # X fixes |+>, so the all-X context is deterministic, not uniform
    model = realize_model(plus(3), xy322_scenario())
    assert isinstance(model, EmpiricalModel)
    ctx = next(c for c in model.scenario.contexts
               if c.members == ("IIX", "IXI", "XII"))
    row = model.rows[ctx]
    zero = Assignment(ctx.members, (0, 0, 0))
    assert row.weights[zero] == 1
    assert check_no_signaling(model) == []
    assert model != xy322_plus_model()


def test_exact_path_agrees_with_float_path():
    ghz_amps = [(1, 0)] + [(0, 0)] * 6 + [(1, 0)]
    assert realize_model_exact(ghz_amps, xy322_scenario()) == realize_model(
        ghz(3), xy322_scenario())
    bell_amps = [(1, 0), (0, 0), (0, 0), (1, 0)]
    assert realize_model_exact(bell_amps, mermin_square_scenario()) == realize_model(
        bell_phi_plus(), mermin_square_scenario())


def test_probability_far_from_small_rationals_is_float_tagged():
    # 1/3 + 1e-8 has no fraction with denominator <= 65536 within 1e-9, so the
    # equatorial row is float-tagged; the Pauli row of the same float amplitudes
    # is exact, since a float is the dyadic rational it stores
    p = Fraction(1, 3) + Fraction(1, 10 ** 8)
    a, b = math.sqrt(p), math.sqrt(1 - p)
    model = realize_model(StateVector(1, [a, b]), MeasurementScenario(["Z"], [["Z"]]))
    assert isinstance(model, EmpiricalModel)
    (row,) = model.rows.values()
    norm = Fraction(a) ** 2 + Fraction(b) ** 2
    assert row.weights[Assignment(("Z",), (0,))] == Fraction(a) ** 2 / norm
    assert row.weights[Assignment(("Z",), (1,))] == Fraction(b) ** 2 / norm

    angle = math.acos(2 * float(p) - 1)
    eq_row = born_distribution_equatorial(
        plus(1), [EquatorialMeasurement(0, angle)], labels=["m"])
    assert isinstance(eq_row, FloatDistribution)
    assert eq_row.residual > 1e-9
    assert abs(sum(eq_row.weights.values()) - 1.0) < 1e-9
    model = realize_model(plus(1), MeasurementScenario(["m"], [["m"]]),
                          measurements={"m": EquatorialMeasurement(0, angle)})
    assert isinstance(model, FloatEmpiricalModel)


def test_dyadic_equatorial_rows_are_exact():
    row = born_distribution_equatorial(
        plus(1), [EquatorialMeasurement(0, math.pi / 2)], labels=["m"])
    assert not isinstance(row, FloatDistribution)
    half = Fraction(1, 2)
    assert set(row.weights.values()) == {half}


def test_third_turn_equatorial_rows_are_exact():
    row = born_distribution_equatorial(
        plus(1), [EquatorialMeasurement(0, math.pi / 3)], labels=["m"])
    assert sorted(row.weights.values()) == [Fraction(1, 4), Fraction(3, 4)]
    row = born_distribution_equatorial(
        ghz(2), [EquatorialMeasurement(0, math.pi / 3), EquatorialMeasurement(1, 0.0)])
    assert sorted(row.weights.values()) == [Fraction(1, 8)] * 2 + [Fraction(3, 8)] * 2


def test_random_angle_rows_are_float_tagged():
    # best approximations with denominator <= 2^16 lie within 1e-9 of most floats,
    # so only a tight residual and an exact sum keep these rows float-tagged
    rng = random.Random(66)
    exact = 0
    for _ in range(500):
        row = born_distribution_equatorial(
            plus(1), [EquatorialMeasurement(0, rng.uniform(0, math.pi))], labels=["m"])
        exact += not isinstance(row, FloatDistribution)
    assert exact < 10


def test_canonical_state_names():
    one, zero = (1, 0), (0, 0)
    assert canonical_state("bell_phi_plus").amplitudes == bell_phi_plus().amplitudes
    assert bell_phi_plus().amplitudes == (one, zero, zero, one)
    g = canonical_state("ghz3")
    assert g.num_qubits == 3
    assert g.amplitudes == (one,) + (zero,) * 6 + (one,)
    assert all(type(q) is Fraction for pair in g.amplitudes for q in pair)
    assert canonical_state("plus2").amplitudes == (one,) * 4
    assert canonical_state("basis2").amplitudes == (one,) + (zero,) * 3
    assert basis_state(2, index=3).amplitudes == (zero,) * 3 + (one,)
    with pytest.raises(ParseError):
        canonical_state("w3")
    with pytest.raises(ParseError):
        canonical_state("ghz")


def test_state_vector_validation():
    with pytest.raises(SizeLimitError):
        StateVector(11, [0.0])
    with pytest.raises(SizeLimitError):
        StateVector(0, [1.0])
    with pytest.raises(ValidationError):
        StateVector(2, [1.0, 0.0])
    for bad in ([0, 0j], [math.nan, 1], [1, math.inf], [complex(1, math.inf), 0],
                ["1", 0], [(1, 2, 3), 0], [None, 1]):
        with pytest.raises(ValidationError):
            StateVector(1, bad)
    with pytest.raises(ValidationError):
        basis_state(2, index=7)
    # any nonzero vector stands for its ray, and is kept exactly
    psi = StateVector(1, [0.1, 2 - 3j])
    assert psi.amplitudes == ((Fraction(0.1), 0), (2, -3))
    psi = StateVector(1, [(Fraction(1, 3), 1), 5])
    assert psi.amplitudes == ((Fraction(1, 3), 1), (5, 0))


def test_born_distribution_validation():
    psi = bell_phi_plus()
    with pytest.raises(ValidationError):
        born_distribution_exact(psi.amplitudes, [PauliOperator.from_string("X")])
    with pytest.raises(ValidationError):
        realize_model(psi, MeasurementScenario(["X"], [["X"]]))
    with pytest.raises(ValidationError):
        # iX is not Hermitian
        born_distribution_exact(psi.amplitudes, [PauliOperator(2, 1, 0b01, 0)])
    with pytest.raises(NonCommutingContextError):
        born_distribution_exact(psi.amplitudes, [PauliOperator.from_string(t)
                                                 for t in ("XI", "ZI")])


def test_realize_model_validation():
    psi = bell_phi_plus()
    ternary = MeasurementScenario(["XX"], [["XX"]], outcomes=(0, 1, 2),
                                  ring="none")
    with pytest.raises(ValidationError):
        realize_model(psi, ternary)
    scenario = MeasurementScenario(["a", "b"], [["a", "b"]])
    with pytest.raises(ValidationError):
        realize_model(psi, scenario, measurements={"a": PauliOperator.from_string("XI")})
    mixed = {"a": PauliOperator.from_string("XI"),
             "b": EquatorialMeasurement(1, 0.0)}
    with pytest.raises(ValidationError):
        realize_model(psi, scenario, measurements=mixed)


def test_equatorial_validation():
    psi = bell_phi_plus()
    with pytest.raises(ValidationError):
        born_distribution_equatorial(
            psi, [EquatorialMeasurement(0, 0.0), EquatorialMeasurement(0, 1.0)])
    with pytest.raises(ValidationError):
        born_distribution_equatorial(psi, [EquatorialMeasurement(2, 0.0)])
    with pytest.raises(ValidationError):
        born_distribution_equatorial(
            psi, [EquatorialMeasurement(0, 0.0)], labels=["m", "m2"])


def test_context_eigenstate_bell_pair():
    ops = [PauliOperator.from_string(t) for t in ("XX", "ZZ")]
    vec = context_eigenstate(ops)
    half = Fraction(1, 2)
    assert vec == [(half, 0), (0, 0), (0, 0), (half, 0)]
    row = born_distribution_exact(vec, ops)
    pinned = Assignment(row.context.members, (0, 0))
    assert row.weights[pinned] == 1

    flipped = context_eigenstate(ops, signs=(1, 0))
    row = born_distribution_exact(flipped, ops)
    assert row.weights[Assignment(row.context.members, (1, 0))] == 1


def test_context_eigenstate_empty_and_errors():
    xx = PauliOperator.from_string("XX")
    assert context_eigenstate([xx, xx.negate()]) is None
    with pytest.raises(ValidationError):
        context_eigenstate([xx], signs=(0, 1))
    with pytest.raises(NonCommutingContextError):
        context_eigenstate([PauliOperator.from_string("XI"),
                            PauliOperator.from_string("ZI")])
    with pytest.raises(ValidationError):
        context_eigenstate([])


def test_every_context_eigenstate_reproduces_its_signs():
    square = mermin_square_scenario()
    for ctx in square.contexts:
        ops = [PauliOperator.from_string(m) for m in ctx.members]
        for signs in ((0, 0, 0), (1, 1, 0), (0, 1, 1)):
            vec = context_eigenstate(ops, signs=signs)
            if vec is None:
                continue
            row = born_distribution_exact(vec, ops, labels=ctx.members)
            assert row.weights[Assignment(ctx.members, signs)] == 1


def test_parse_angle_forms():
    assert parse_angle("0") == 0.0
    assert parse_angle("pi") == pytest.approx(math.pi)
    assert parse_angle("pi/3") == pytest.approx(math.pi / 3)
    assert parse_angle("-pi/2") == pytest.approx(-math.pi / 2)
    assert parse_angle("2*pi/3") == pytest.approx(2 * math.pi / 3)
    assert parse_angle("0.25") == 0.25
    assert parse_angle(2) == 2.0
    for bad in ("pie", "", None, "pi/", "pi/0", "2*pi/0.0"):
        with pytest.raises(ParseError):
            parse_angle(bad)


def state_dict(psi):
    """The state file's JSON object for psi, each component as its exact string."""
    return {"n": psi.num_qubits, "amplitudes": [[str(re), str(im)] for re, im in psi.amplitudes]}


def test_state_json_round_trip():
    for psi in (ghz(3), bell_phi_plus(), StateVector(1, [0.1, Fraction(-2, 3) + 1e-7j])):
        back = state_from_dict(state_dict(psi))
        assert back.num_qubits == psi.num_qubits
        assert back.amplitudes == psi.amplitudes
    fractional = state_from_dict(
        {"n": 1, "amplitudes": [["3/5", "0"], ["0", "4/5"]]})
    assert fractional.amplitudes == ((Fraction(3, 5), 0), (0, Fraction(4, 5)))
    # decimal strings are read exactly; a Python float is its dyadic value
    decimal = state_from_dict(
        {"n": 1, "amplitudes": [["0.1", "-2.5e-3"], [1e-7, "0e-999999999"]]})
    assert decimal.amplitudes == ((Fraction(1, 10), Fraction(-1, 400)), (Fraction(1e-7), 0))
    for bad in ({"n": 1}, {"n": "1", "amplitudes": []},
                {"n": 1, "amplitudes": [[0.6, 0.0], [0.8]]},
                {"n": 1, "amplitudes": [["x", 0], [0, 0]]},
                {"n": 1, "amplitudes": [["1/0", 0], [0, 0]]}, []):
        with pytest.raises(ParseError):
            state_from_dict(bad)
    for bad in ("nan", "-inf", "1e999999999", "1e-999999999", math.nan):
        with pytest.raises(ValidationError):
            state_from_dict({"n": 1, "amplitudes": [[bad, 0], [1, 0]]})
    with pytest.raises(ValidationError):
        state_from_dict({"n": 1, "amplitudes": [["0", 0], [0, "-0.0"]]})


def test_equatorial_json_round_trip(tmp_path):
    data = {"A": {"party": 0, "angle": "pi/2"}, "B": {"party": 1, "angle": 0}}
    parsed = equatorial_from_dict(data)
    assert parsed["A"] == EquatorialMeasurement(0, math.pi / 2)
    assert parsed["B"] == EquatorialMeasurement(1, 0.0)
    for bad in ([], {"A": {"party": 0}}, {"A": 3},
                {"A": {"party": "a", "angle": 0}}, {"A": {"party": None, "angle": 0}}):
        with pytest.raises(ParseError):
            equatorial_from_dict(bad)

    path = tmp_path / "eq.json"
    path.write_text('{"A": {"party": 0, "angle": "pi/2"}}')
    assert load_equatorial(str(path))["A"].angle == pytest.approx(math.pi / 2)


def test_load_state_file(tmp_path):
    path = tmp_path / "state.json"
    import json
    path.write_text(json.dumps(state_dict(ghz(2))))
    assert load_state(str(path)).amplitudes == ghz(2).amplitudes
    # JSON numbers are read as the decimals they print, not as floats
    path.write_text('{"n": 1, "amplitudes": [[0.1, 0], [1e-7, -3]]}')
    assert load_state(str(path)).amplitudes == ((Fraction(1, 10), 0),
                                                (Fraction(1, 10 ** 7), -3))


# ---------------------------------------------------------------- reference
# The apply-and-branch Fraction loop the subset-product engine replaced,
# kept as the oracle: the same Born rows and the same eigenstates.

def _reference_apply(op, vec):
    n = op.num_qubits
    xm = sum(1 << (n - 1 - j) for j in range(n) if (op.x >> j) & 1)
    zm = sum(1 << (n - 1 - j) for j in range(n) if (op.z >> j) & 1)
    out = [None] * len(vec)
    for i, (re, im) in enumerate(vec):
        for _ in range(op.phase):
            re, im = -im, re
        if bin(i & zm).count("1") & 1:
            re, im = -re, -im
        out[i ^ xm] = (re, im)
    return out


def _reference_project(op, vec, outcome):
    sign = 1 - 2 * outcome
    return [((re + sign * pre) / 2, (im + sign * pim) / 2)
            for (re, im), (pre, pim) in zip(vec, _reference_apply(op, vec))]


def reference_born_exact(amplitudes, ops, labels):
    vec = [(Fraction(re), Fraction(im)) for re, im in amplitudes]
    norm = sum(re * re + im * im for re, im in vec)
    ordered = [op for _, op in sorted(zip(labels, ops))]
    branches = [((), vec)]
    for op in ordered:
        branches = [(outs + (o,), _reference_project(op, v, o))
                    for outs, v in branches for o in (0, 1)]
    members = tuple(sorted(labels))
    return {Assignment(members, outs): sum(re * re + im * im for re, im in v) / norm
            for outs, v in branches}


def reference_eigenstate(ops, signs):
    dim = 1 << ops[0].num_qubits
    for k in range(dim):
        vec = [(Fraction(int(i == k)), Fraction(0)) for i in range(dim)]
        for op, s in zip(ops, signs):
            vec = _reference_project(op, vec, s & 1)
        if any(re or im for re, im in vec):
            return vec
    return None


def _random_word(rng, n):
    """A Hermitian Pauli word, signed half of the time."""
    letters = "".join(rng.choice("IXYZ") for _ in range(n))
    return PauliOperator.from_string(rng.choice(("", "-")) + letters)


def _random_context(rng, n):
    """1-4 distinct commuting members, with products of members mixed in."""
    ops = []
    for _ in range(200):
        if len(ops) >= rng.randrange(1, 5):
            break
        op = _random_word(rng, n)
        if len(ops) >= 2 and rng.random() < 0.3:
            op = ops[0] * ops[1]
            op = op.negate() if rng.random() < 0.5 else op
        if op.is_identity_like() or not op.is_hermitian():
            continue
        if str(op) in map(str, ops) or not all(op.commutes(o) for o in ops):
            continue
        ops.append(op)
    return ops


def _random_rational_amplitudes(rng, n):
    while True:
        vec = [(Fraction(rng.randrange(-5, 6), rng.randrange(1, 5)),
                Fraction(rng.randrange(-5, 6), rng.randrange(1, 5)))
               for _ in range(1 << n)]
        if any(re or im for re, im in vec):
            return vec


def test_born_distribution_exact_matches_branch_loop():
    rng = random.Random(61)
    dependent = 0
    for _ in range(400):
        n = rng.randrange(1, 4)
        ops = _random_context(rng, n)
        labels = [str(op) for op in ops]
        amps = _random_rational_amplitudes(rng, n)
        row = born_distribution_exact(amps, ops)
        assert dict(row.weights) == reference_born_exact(amps, ops, labels)
        dependent += any(a * b in ops or (a * b).negate() in ops
                         for a in ops for b in ops if a != b)
    assert dependent > 20


def test_dependent_signed_context_matches_branch_loop():
    ops = [PauliOperator.from_string(t) for t in ("XX", "ZZ", "-YY")]
    labels = [str(op) for op in ops]
    rng = random.Random(62)
    for _ in range(20):
        amps = _random_rational_amplitudes(rng, 2)
        row = born_distribution_exact(amps, ops)
        assert dict(row.weights) == reference_born_exact(amps, ops, labels)
        # XX ZZ = -YY, so an odd outcome parity never happens
        assert all(w == 0 for s, w in row.weights.items() if sum(s.values) % 2)


def test_context_eigenstate_matches_branch_loop():
    rng = random.Random(63)
    empty = 0
    for _ in range(150):
        n = rng.randrange(1, 4)
        ops = _random_context(rng, n)
        for signs in product((0, 1), repeat=len(ops)):
            got = context_eigenstate(ops, signs)
            assert got == reference_eigenstate(ops, signs)
            empty += got is None
    assert empty > 0


def test_named_states_realize_as_integer_vectors():
    named = {"bell_phi_plus": [(1, 0), (0, 0), (0, 0), (1, 0)]}
    for n in (1, 2, 3):
        dim = 1 << n
        named[f"ghz{n}"] = [(1, 0)] + [(0, 0)] * (dim - 2) + [(1, 0)]
        named[f"plus{n}"] = [(1, 0)] * dim
        named[f"basis{n}"] = [(1, 0)] + [(0, 0)] * (dim - 1)
    rng = random.Random(64)
    for name, amps in named.items():
        psi = canonical_state(name)
        assert psi.amplitudes == tuple(amps)
        for _ in range(25):
            ops = _random_context(rng, psi.num_qubits)
            labels = [str(op) for op in ops]
            model = realize_model(psi, MeasurementScenario(labels, [labels]))
            assert isinstance(model, EmpiricalModel)
            assert list(model.rows.values()) == [born_distribution_exact(amps, ops)]


def _decimal(rng):
    """A decimal string, zero a fifth of the time, sometimes with an exponent."""
    if rng.random() < 0.2:
        return rng.choice(("0", "-0.0", "0e5"))
    text = f"{rng.uniform(-3, 3):.{rng.randrange(1, 9)}f}"
    return text + f"e{rng.randrange(-9, 4)}" if rng.random() < 0.3 else text


def test_decimal_states_realize_exactly():
    # no snapping: the Pauli rows of a decimal state are those of its Fractions
    rng = random.Random(67)
    scenarios = {1: [MeasurementScenario(["X", "Y", "Z"], [["X"], ["Y"], ["Z"]])],
                 2: [mermin_square_scenario(), xz222_scenario()],
                 3: [xy322_scenario()]}
    checked = 0
    while checked < 240:
        n = rng.randrange(1, 4)
        data = {"n": n, "amplitudes": [[_decimal(rng), _decimal(rng)] for _ in range(1 << n)]}
        exact = [(Fraction(re), Fraction(im)) for re, im in data["amplitudes"]]
        if not any(re or im for re, im in exact):
            continue
        labels = [str(op) for op in _random_context(rng, n)]
        scenario = rng.choice(scenarios[n] + [MeasurementScenario(labels, [labels])])
        model = realize_model(state_from_dict(data), scenario)
        assert isinstance(model, EmpiricalModel)
        assert model == realize_model_exact(exact, scenario)
        checked += 1


def test_hardy_state_realizes_the_corpus_table():
    # an unnormalized ray, as given
    model = realize_model(StateVector(2, [1, 1, 1, 0]), xz222_scenario())
    assert model == hardy_model()
    assert model == realize_model(StateVector(2, [Fraction(1, 3)] * 3 + [0]), xz222_scenario())


# The tensordot projection that computed equatorial rows before they moved
# onto the subset-product engine, kept as the reference.

def reference_equatorial(amplitudes, measurements, labels):
    n = len(amplitudes).bit_length() - 1
    vec = np.array([complex(re, im) for re, im in amplitudes])
    vec = vec / np.linalg.norm(vec)

    def project(vec, m, o):
        s = 1 - 2 * o
        proj = 0.5 * np.array([[1, s * np.exp(-1j * m.angle)],
                               [s * np.exp(1j * m.angle), 1]])
        moved = np.tensordot(proj, vec.reshape([2] * n), axes=([1], [m.party]))
        return np.moveaxis(moved, 0, m.party).reshape(-1)

    branches = [((), vec)]
    for m in [m for _, m in sorted(zip(labels, measurements))]:
        branches = [(outs + (o,), project(v, m, o)) for outs, v in branches for o in (0, 1)]
    members = tuple(sorted(labels))
    return {Assignment(members, outs): float(np.vdot(v, v).real) for outs, v in branches}


def test_equatorial_rows_match_tensordot_reference():
    rng = random.Random(65)
    both_exact = tagged = 0
    for _ in range(320):
        n = rng.randrange(1, 4)
        psi = StateVector(n, _random_rational_amplitudes(rng, n))
        parties = rng.sample(range(n), rng.randrange(1, n + 1))
        # kpi/m angles give exact rows on some states, random ones float rows
        angles = [rng.choice((0, 1, 2, -1, 3)) * math.pi / rng.choice((1, 2, 3, 4))
                  if rng.random() < 0.5 else rng.uniform(-math.pi, math.pi) for _ in parties]
        ms = [EquatorialMeasurement(p, a) for p, a in zip(parties, angles)]
        labels = [f"m{p}" for p in parties]
        row = born_distribution_equatorial(psi, ms, labels=labels)
        want = reference_equatorial(psi.amplitudes, ms, labels)
        assert row.weights.keys() == want.keys()
        ref_row = _exactify(row.context, (0, 1), want)
        if not isinstance(row, FloatDistribution) and not isinstance(ref_row, FloatDistribution):
            both_exact += 1
            assert row == ref_row
        for s, w in row.weights.items():
            assert w >= 0
            assert abs(float(w) - want[s]) < 1e-12
        tagged += isinstance(row, FloatDistribution)
    assert both_exact > 40 and tagged > 150
