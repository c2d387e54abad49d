import random
import warnings
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from contextuality.exactlp import feasible_equalities, maximize


def test_maximize_known_lp():
    # max x + y s.t. x + 2y <= 4, 3x + y <= 6; optimum at (8/5, 6/5)
    value, x = maximize([1, 1], [[1, 2], [3, 1]], [4, 6])
    assert value == Fraction(14, 5)
    assert x == [Fraction(8, 5), Fraction(6, 5)]


def test_maximize_degenerate_and_zero_cost():
    value, x = maximize([0, 0], [[1, 0], [0, 1]], [1, 1])
    assert value == 0
    value, x = maximize([1], [[1], [1]], [2, 3])
    assert value == 2


def test_maximize_rejects_negative_rhs():
    with pytest.raises(ValueError):
        maximize([1], [[1]], [-1])


def brute_force_max(cost, lhs, rhs, grid=9):
    """Check optimality against a rational grid over the feasible box."""
    best = None
    bound = max(rhs) if rhs else 0
    points = [Fraction(i, 3) for i in range(3 * bound + 1)]
    for xs in product(points, repeat=len(cost)):
        if all(sum(a * x for a, x in zip(row, xs)) <= b
               for row, b in zip(lhs, rhs)):
            v = sum(c * x for c, x in zip(cost, xs))
            if best is None or v > best:
                best = v
    return best


def test_maximize_random_small_lps():
    rng = random.Random(12)
    for _ in range(25):
        n = rng.randrange(1, 4)
        m = rng.randrange(1, 4)
        cost = [rng.randrange(0, 4) for _ in range(n)]
        lhs = [[rng.randrange(0, 3) for _ in range(n)] for _ in range(m)]
        rhs = [rng.randrange(0, 4) for _ in range(m)]
        # keep the region bounded in every costed direction
        lhs.append([1] * n)
        rhs.append(5)
        value, x = maximize(cost, lhs, rhs)
        assert all(xi >= 0 for xi in x)
        assert all(sum(a * xi for a, xi in zip(row, x)) <= b
                   for row, b in zip(lhs, rhs))
        assert sum(c * xi for c, xi in zip(cost, x)) == value
        grid_best = brute_force_max(cost, lhs, rhs)
        assert grid_best is not None
        assert value >= grid_best


def test_feasible_equalities_solves():
    x = feasible_equalities([[1, 1, 0], [0, 1, 1]], [1, 1])
    assert x is not None
    assert x[0] + x[1] == 1
    assert x[1] + x[2] == 1
    assert all(v >= 0 for v in x)


def test_feasible_equalities_detects_infeasibility():
    # x + y = 1 and x + y = 2 cannot both hold
    assert feasible_equalities([[1, 1], [1, 1]], [1, 2]) is None
    # nonnegativity makes x1 + x2 = -1 impossible even with signed rhs flip
    assert feasible_equalities([[1, 0], [-1, 0]], [1, 2]) is None


def test_feasible_equalities_random_consistency():
    rng = random.Random(13)
    for _ in range(30):
        n = rng.randrange(1, 5)
        m = rng.randrange(1, 4)
        lhs = [[rng.randrange(-2, 3) for _ in range(n)] for _ in range(m)]
        hidden = [Fraction(rng.randrange(0, 4), rng.randrange(1, 4)) for _ in range(n)]
        rhs = [sum(a * x for a, x in zip(row, hidden)) for row in lhs]
        x = feasible_equalities(lhs, rhs)
        # a solution is known to exist, and the returned one must verify
        assert x is not None
        assert all(sum(a * xi for a, xi in zip(row, x)) == b
                   for row, b in zip(lhs, rhs))
        assert all(xi >= 0 for xi in x)


def test_maximize_unbounded_raises():
    # x - y <= 1 leaves x + y free to grow along x = y
    with pytest.raises(ArithmeticError, match="objective unbounded"):
        maximize([1, 1], [[1, -1]], [1])
    with pytest.raises(ArithmeticError, match="objective unbounded"):
        maximize([1], [], [])


# ---------------------------------------------------------------- reference
# A tableau of Fractions with the same Bland rule, kept as the oracle for
# the integer-preserving engine: same pivots, so the same optimum and vertex.

def _bland(matrix, cost):
    """Pivot [A | I | b] rows to optimality; returns the final basis and rows."""
    m = len(matrix)
    basis = [len(cost) - m + i for i in range(m)]
    while True:
        enter = next((j for j, c in enumerate(cost) if c > 0), None)
        if enter is None:
            return basis, matrix
        # lowest ratio, ties to the lowest basic variable index
        ratios = [(r[-1] / r[enter], basis[i], i) for i, r in enumerate(matrix) if r[enter] > 0]
        if not ratios:
            raise ArithmeticError("objective unbounded")
        leave = min(ratios)[2]
        prow = [v / matrix[leave][enter] for v in matrix[leave]]
        # a row with a zero in the entering column is unchanged, and so is
        # an entry above a zero of the pivot row
        matrix = [prow if i == leave else
                  [a - r[enter] * b if b else a for a, b in zip(r, prow)] if r[enter] else r
                  for i, r in enumerate(matrix)]
        cost = [a - cost[enter] * b for a, b in zip(cost, prow)]
        basis[leave] = enter


def _slack_tableau(lhs, rhs):
    m = len(lhs)
    return [[Fraction(v) for v in row] + [Fraction(int(i == k)) for k in range(m)] + [Fraction(b)]
            for i, (row, b) in enumerate(zip(lhs, rhs))]


def _vertex(basis, matrix, n):
    x = [Fraction(0)] * n
    for var, row in zip(basis, matrix):
        if var < n:
            x[var] = row[-1]
    return x


def reference_maximize(cost, lhs, rhs):
    c = [Fraction(v) for v in cost]
    basis, matrix = _bland(_slack_tableau(lhs, rhs), c + [Fraction(0)] * len(lhs))
    x = _vertex(basis, matrix, len(c))
    return sum(ci * xi for ci, xi in zip(c, x)), x


def reference_feasible_equalities(lhs, rhs):
    flipped = [([-Fraction(v) for v in row], -Fraction(b)) if Fraction(b) < 0 else (row, b)
               for row, b in zip(lhs, rhs)]
    lhs, rhs = [row for row, _ in flipped], [b for _, b in flipped]
    n, m = len(lhs[0]), len(lhs)
    cost = [sum(Fraction(row[j]) for row in lhs) for j in range(n)] + [Fraction(0)] * m
    basis, matrix = _bland(_slack_tableau(lhs, rhs), cost)
    if any(var >= n and row[-1] for var, row in zip(basis, matrix)):
        return None
    return _vertex(basis, matrix, n)


def _python_ints(values):
    """Every Fraction holds Python ints: an np.int64 numerator overflows."""
    return all(type(v.numerator) is int and type(v.denominator) is int for v in values)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ArithmeticError as exc:
        return repr(exc)


def _entry(rng, rational):
    """An integer in [-2, 3], or with `rational` also a non-integer fraction."""
    if rational and rng.random() < 0.4:
        return Fraction(rng.randrange(-7, 8), rng.randrange(2, 6))
    return rng.randrange(-2, 4)


def _random_lp(rng, rational):
    n, m = rng.randrange(1, 6), rng.randrange(1, 6)
    kind = rng.randrange(3)
    if kind == 0:  # 0/1 incidence rows, as in the noncontextual-fraction LP
        lhs = [[rng.randrange(2) for _ in range(n)] for _ in range(m)]
    else:
        lhs = [[_entry(rng, rational) for _ in range(n)] for _ in range(m)]
    # zeros on the right make degenerate vertices; kind 2 costs nothing
    rhs = [Fraction(rng.randrange(0, 5), rng.randrange(1, 4)) if rng.random() < 0.7 else 0
           for _ in range(m)]
    cost = [0] * n if kind == 2 else [_entry(rng, rational) for _ in range(n)]
    return cost, lhs, rhs


@pytest.mark.parametrize("rational", [False, True])
def test_maximize_matches_fraction_tableau(rational):
    rng = random.Random(31 + rational)
    unbounded = 0
    for _ in range(300):
        cost, lhs, rhs = _random_lp(rng, rational)
        got = _outcome(maximize, cost, lhs, rhs)
        assert got == _outcome(reference_maximize, cost, lhs, rhs)
        assert isinstance(got, str) or _python_ints([got[0], *got[1]])
        unbounded += isinstance(got, str)
    assert 0 < unbounded < 300


@pytest.mark.parametrize("rational", [False, True])
def test_feasible_equalities_matches_fraction_tableau(rational):
    rng = random.Random(41 + rational)
    infeasible = 0
    for _ in range(300):
        _, lhs, rhs = _random_lp(rng, rational)
        if rng.random() < 0.5:  # a consistent right-hand side, signed
            hidden = [Fraction(rng.randrange(0, 4), rng.randrange(1, 4)) for _ in lhs[0]]
            rhs = [sum(a * x for a, x in zip(row, hidden)) for row in lhs]
        else:
            rhs = [b * rng.choice((-1, 1)) for b in rhs]
        got = feasible_equalities(lhs, rhs)
        assert got == reference_feasible_equalities(lhs, rhs)
        assert got is None or _python_ints(got)
        infeasible += got is None
    assert 0 < infeasible < 300


def test_maximize_matches_fraction_tableau_on_bell_lps():
    # the noncontextual-fraction LP, max |X| subject to M X <= V, X >= 0,
    # on mixtures of the CHSH table and the PR box
    from contextuality.analysis import build_incidence, model_vector
    from contextuality.corpus import chsh_model, pr_box
    from contextuality.empirical import convex_mix

    rng = random.Random(51)
    chsh, box = chsh_model(), pr_box()
    inc = build_incidence(chsh.scenario)
    n = len(inc.columns)
    lhs = [[(mask >> j) & 1 for j in range(n)] for mask in inc.row_masks]
    for _ in range(10):
        model = convex_mix(chsh, box, Fraction(rng.randrange(0, 9), 8))
        vec = model_vector(model)
        assert maximize([1] * n, lhs, vec) == reference_maximize([1] * n, lhs, vec)


def test_compact_tableau_matches_fraction_tableau_on_xy_lps():
    # the benchmark's LP: the dense 64x64 three-party X/Y incidence, with V
    # realized exactly from Gaussian-integer states; both the ncf LP and
    # the phase one of find_global_distribution
    from contextuality.analysis import (
        _bits, _survivors, build_incidence, find_global_distribution, model_vector)
    from contextuality.corpus import xy322_scenario
    from contextuality.realize import realize_model_exact

    scenario = xy322_scenario()
    inc = build_incidence(scenario)
    assert inc.shape == (64, 64)
    lhs = [[(mask >> j) & 1 for j in range(64)] for mask in inc.row_masks]
    verdicts = []
    for seed in range(4):
        rng = random.Random(seed)
        amps = [(Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3))) for _ in range(8)]
        model = realize_model_exact(amps, scenario)
        vec = model_vector(model)
        assert maximize([1] * 64, lhs, vec) == reference_maximize([1] * 64, lhs, vec)
        # phase one sees the positive rows and the surviving columns
        cols = _bits(_survivors(inc, vec))
        rows = [(mask, v) for mask, v in zip(inc.row_masks, vec) if v]
        x = reference_feasible_equalities([[(mask >> j) & 1 for j in cols] for mask, _ in rows],
                                          [v for _, v in rows])
        found = find_global_distribution(model)
        if x is None:
            assert found is None
        else:
            assert found.weights == {inc.columns[j]: xj for j, xj in zip(cols, x) if xj}
        verdicts.append(found is not None)
    assert any(verdicts) and not all(verdicts)


def test_tableau_past_int64_bound_matches_fraction_tableau():
    # integer tableaux whose entries pass 2^31, where p * a - f * b could
    # leave int64. From the start: b over the common denominator
    # 3 (2^40 - 87) passes 2^40, and over three coprime denominators near
    # 2^40 it passes 2^63. Only after pivots: dense rows with entries up to
    # 2^20 pass it at the first, 10x10 ones up to 2^8 and 12x12 ones up to
    # 2^4 several pivots later
    rng = random.Random(61)
    big = 2**40 - 87
    lps = []
    for denominators in ([3, big], [big, big + 2, big + 4]):
        lhs = [[rng.randrange(0, 3) for _ in range(6)] for _ in range(5)] + [[1] * 6]
        rhs = [Fraction(rng.randrange(1, 2**20), denominators[i % len(denominators)])
               for i in range(6)]
        lps.append(([rng.randrange(1, 4) for _ in range(6)], lhs, rhs))
    for size, top in [(6, 2**20)] * 6 + [(10, 2**8)] * 3 + [(12, 2**4)] * 3:
        lhs = [[rng.randrange(1, top) for _ in range(size)] for _ in range(size)]
        rhs = [rng.randrange(1, top) for _ in range(size)]
        lps.append(([rng.randrange(1, top) for _ in range(size)], lhs, rhs))
    for cost, lhs, rhs in lps:
        value, x = maximize(cost, lhs, rhs)
        assert (value, x) == reference_maximize(cost, lhs, rhs)
        assert _python_ints([value, *x])
        hidden = [Fraction(rng.randrange(0, 4), rng.randrange(1, 4)) for _ in cost]
        target = [sum(a * h for a, h in zip(row, hidden)) for row in lhs]
        for b in (target, rhs):
            x = feasible_equalities(lhs, b)
            assert x == reference_feasible_equalities(lhs, b)
            assert x is None or _python_ints(x)


def _phase_one_reference(model, inc):
    """The Fraction phase one on the positive rows and the surviving columns,
    as x over those columns or None."""
    from contextuality.analysis import _bits, _survivors, model_vector

    vec = model_vector(model)
    cols = _bits(_survivors(inc, vec))
    rows = [(mask, v) for mask, v in zip(inc.row_masks, vec) if v]
    if not cols:  # every column died, and each context has a positive row
        return cols, None
    return cols, reference_feasible_equalities(
        [[(mask >> j) & 1 for j in cols] for mask, _ in rows], [v for _, v in rows])


def test_find_global_distribution_reads_ncf_one():
    # find_global_distribution is the ncf witness at ncf = 1; it must agree
    # with phase one on the verdict, and its witness must realize the model
    from contextuality.analysis import GlobalDistribution, build_incidence, find_global_distribution
    from contextuality.corpus import REGISTRY, chsh_model, pr_box, xy322_scenario
    from contextuality.empirical import convex_mix
    from contextuality.realize import realize_model_exact
    from contextuality.scenario import enumerate_assignments

    models = [e.build() for e in REGISTRY.values() if e.kind == "model"]
    rng = random.Random(71)
    one, zero = (Fraction(1), Fraction(0)), (Fraction(0), Fraction(0))
    for k in range(40):
        if k % 10 == 0:  # dense Gaussian-integer states
            amps = [(Fraction(rng.randint(-1, 1)), Fraction(rng.randint(-1, 1)))
                    for _ in range(8)]
            amps[0] = one
        elif k % 10 < 3:  # GHZ-type |000> + c |111>, AvN when c is i^k
            c = rng.choice([(1, 0), (-1, 0), (0, 1), (0, -1), (2, 0), (1, 1)])
            amps = [one] + [zero] * 6 + [(Fraction(c[0]), Fraction(c[1]))]
        else:  # product states, noncontextual; X or Y eigenstates shed columns
            eigen = [(Fraction(s), Fraction(0)) for s in (1, -1)] + [
                (Fraction(0), Fraction(s)) for s in (1, -1)]
            qubits = [[one, rng.choice(eigen)] if rng.random() < 0.7 else
                      [(Fraction(rng.randint(1, 2)), Fraction(0)),
                       (Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-2, 2)))]
                      for _ in range(3)]
            amps = []
            for b in product((0, 1), repeat=3):
                re, im = Fraction(1), Fraction(0)
                for q, bit in zip(qubits, b):
                    re, im = re * q[bit][0] - im * q[bit][1], re * q[bit][1] + im * q[bit][0]
                amps.append((re, im))
        models.append(realize_model_exact(amps, xy322_scenario()))
    chsh, box = chsh_model(), pr_box()
    points = list(enumerate_assignments(chsh.scenario.measurements, chsh.scenario.outcomes))
    for _ in range(40):
        models.append(convex_mix(chsh, box, Fraction(rng.randrange(0, 9), 8)))
        # and towards a global mixture, some mixtures noncontextual
        raws = {rng.choice(points): Fraction(rng.randrange(1, 9)) for _ in range(4)}
        total = sum(raws.values())
        local = GlobalDistribution(chsh.scenario, {g: w / total for g, w in raws.items()})
        models.append(convex_mix(rng.choice((chsh, box)), local.realized_model(),
                                 Fraction(rng.randrange(0, 9), 8)))
    verdicts = []
    for model in models:
        inc = build_incidence(model.scenario)
        cols, x = _phase_one_reference(model, inc)
        found = find_global_distribution(model)
        assert (found is None) == (x is None)
        if found is not None:
            assert found.realized_model() == model
            # the same Bland pivots as phase one, so the same vertex
            assert found.weights == {inc.columns[j]: xj for j, xj in zip(cols, x) if xj}
        verdicts.append((model.scenario.measurements, found is None))
    xy = xy322_scenario().measurements
    assert {(xy, True), (xy, False)} <= set(verdicts)
    assert {(chsh.scenario.measurements, v) for v in (True, False)} <= set(verdicts)


def test_four_party_xy_lp_pinned():
    # ROADMAP D2's LP: the 256x256 incidence of the 4-party X/Y scenario,
    # V realized from Gaussian-integer amplitudes (seed 2); the Fraction
    # reference would take minutes, so the witness is checked directly
    from contextuality.analysis import build_incidence, model_vector, noncontextual_fraction
    from contextuality.realize import realize_model_exact
    from contextuality.scenario import MeasurementScenario

    parties = [["".join(p if k == q else "I" for k in range(4)) for p in "XY"] for q in range(4)]
    scenario = MeasurementScenario(tuple(w for pair in parties for w in pair),
                                   [list(ctx) for ctx in product(*parties)])
    rng = random.Random(2)
    amps = [(Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3))) for _ in range(16)]
    model = realize_model_exact(amps, scenario)
    inc = build_incidence(scenario)
    assert inc.shape == (256, 256)
    result = noncontextual_fraction(model)
    assert result.ncf == Fraction(597, 752)
    # primal feasible and optimal: X >= 0, M X <= V, |X| = ncf, all Fractions
    weights = [result.witness.get(col, Fraction(0)) for col in inc.columns]
    assert all(type(w) is Fraction and w >= 0 for w in weights)
    assert sum(weights) == result.ncf
    for mask, v in zip(inc.row_masks, model_vector(model)):
        assert sum(w for j, w in enumerate(weights) if mask >> j & 1) <= v


def test_maximize_turns_numpy_integers_into_python_ints():
    # Fraction(np.int64(k)).numerator stays np.int64, whose products wrap
    big = 2**40
    cases = [
        ([np.int64(big), 1], [[np.int64(big), np.int64(big)]], [np.int64(big)]),
        ([1, 1], [[Fraction(1, 3), 1]], [np.int64(2**62)]),
        ([1, 1], [[np.int64(big), 3], [5, np.int64(big)]], [2 * big, 2 * big]),
    ]
    for cost, lhs, rhs in cases:
        plain = ([int(v) for v in cost], [[v if type(v) is Fraction else int(v) for v in row]
                                          for row in lhs], [int(b) for b in rhs])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an overflow warning fails too
            got = maximize(cost, lhs, rhs)
        assert got == maximize(*plain)
        assert _python_ints([got[0], *got[1]])
    assert maximize(*cases[0])[0] == big


def test_integer_rows_match_list_rows():
    # the ncf LP as analysis hands it over, a list of 1-D numpy rows unpacked
    # from the incidence masks, against the same rows as lists of ints
    from contextuality import exactlp
    from contextuality.analysis import _mask_rows, build_incidence, model_vector
    from contextuality.corpus import chsh_scenario, xy322_scenario
    from contextuality.realize import realize_model_exact

    scenario = xy322_scenario()
    masks = build_incidence(scenario).row_masks
    bits = _mask_rows(masks, 64)
    lists = [[(mask >> j) & 1 for j in range(64)] for mask in masks]
    assert bits.tolist() == lists
    rng = random.Random(81)
    for k in range(8):
        amps = [(Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3))) for _ in range(8)]
        if k % 4 == 3:  # GHZ-type: zero rows, degenerate vertices
            amps[1:7] = [(Fraction(0), Fraction(0))] * 6
        vec = model_vector(realize_model_exact(amps, scenario))
        got = maximize([1] * 64, list(bits), vec)
        assert got == maximize([1] * 64, lists, vec)
        assert _python_ints([got[0], *got[1]])
    # b over a common denominator past 2^63: the table holds Python ints
    # from the start
    masks = build_incidence(chsh_scenario()).row_masks
    rows = list(_mask_rows(masks, 16))
    lists = [[(mask >> j) & 1 for j in range(16)] for mask in masks]
    big = 2**40 - 87
    rhs = [Fraction(rng.randrange(1, 2**20), (big, big + 2, big + 4)[i % 3])
           for i in range(len(rows))]
    a, b, _ = exactlp._integer_rows(rows, rhs)
    assert exactlp._table(a, b, [1] * 16).dtype == object
    got = maximize([1] * 16, rows, rhs)
    assert got == maximize([1] * 16, lists, rhs) == reference_maximize([1] * 16, lists, rhs)
    assert _python_ints([got[0], *got[1]])
