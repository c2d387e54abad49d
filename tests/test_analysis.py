import json
import random
import sys
from fractions import Fraction
from itertools import product

import pytest

from contextuality import (
    Assignment,
    Context,
    ContextDistribution,
    EmpiricalModel,
    GlobalDistribution,
    HiddenVariableModel,
    MeasurementScenario,
    PossibilisticModel,
    SizeLimitError,
    ValidationError,
    build_incidence,
    convex_mix,
    find_global_distribution,
    from_hidden_variable,
    global_section_count,
    global_sections,
    is_avn,
    is_logically_contextual,
    is_no_signaling,
    is_strongly_contextual,
    model_vector,
    noncontextual_fraction,
    possibilistic_collapse,
    to_hidden_variable,
)
from contextuality.corpus import (
    chsh_model,
    chsh_scenario,
    mermin_square_bell_model,
    pr_box,
    xy322_ghz_model,
    xy322_plus_model,
    xz222_model,
)
from contextuality import cli, exactlp
from contextuality.scenario import enumerate_assignments


def deterministic_model(scenario, global_assignment):
    dist = GlobalDistribution(scenario, {global_assignment: Fraction(1)})
    return dist.realized_model()


def random_global_mixture(scenario, rng, terms=4):
    """A convex mixture of deterministic global assignments."""
    weights = {}
    points = list(enumerate_assignments(scenario.measurements, scenario.outcomes))
    raws = [rng.randrange(1, 9) for _ in range(terms)]
    total = sum(raws)
    for raw in raws:
        g = rng.choice(points)
        weights[g] = weights.get(g, Fraction(0)) + Fraction(raw, total)
    return GlobalDistribution(scenario, weights)


def test_incidence_shape_and_entries():
    sc = chsh_scenario()
    inc = build_incidence(sc)
    assert inc.shape == (16, 16)
    v = model_vector(chsh_model())
    assert sum(v) == 4  # four contexts, each row block sums to one
    for mask in inc.row_masks:
        hits = mask.bit_count()
        assert hits == 4  # free measurements double the count per level


def test_global_distribution_marginalizes():
    sc = chsh_scenario()
    g = Assignment(sc.measurements, (0, 1, 0, 1))
    model = deterministic_model(sc, g)
    ctx = sc.contexts[0]
    assert model.rows[ctx].weights[g.restrict(ctx.members)] == 1


def test_find_global_distribution_on_mixtures():
    rng = random.Random(21)
    sc = chsh_scenario()
    for _ in range(10):
        dist = random_global_mixture(sc, rng)
        model = dist.realized_model()
        found = find_global_distribution(model)
        assert found is not None
        assert found.realized_model() == model
    assert find_global_distribution(xz222_model()) is not None


def test_no_global_distribution_for_pr_box():
    assert find_global_distribution(pr_box()) is None
    assert find_global_distribution(chsh_model()) is None


def test_noncontextual_fraction_values():
    assert noncontextual_fraction(chsh_model()).ncf == Fraction(3, 4)
    assert noncontextual_fraction(chsh_model()).cf == Fraction(1, 4)
    assert noncontextual_fraction(pr_box()).ncf == 0
    assert noncontextual_fraction(xz222_model()).ncf == 1
    assert noncontextual_fraction(xy322_plus_model()).ncf == 1
    assert noncontextual_fraction(mermin_square_bell_model()).ncf == 0


def test_ncf_witness_is_a_valid_subdistribution():
    res = noncontextual_fraction(chsh_model())
    total = sum(res.witness.values())
    assert total == res.ncf
    model = chsh_model()
    for ctx in model.scenario.contexts:
        for s, w in model.rows[ctx].weights.items():
            mass = sum(v for g, v in res.witness.items() if g.extends(s))
            assert mass <= w


def test_ncf_lp_leaves_out_dead_rows(monkeypatch):
    """Rows zero over the surviving columns never reach maximize, and the LP
    with them gives the same optimum and vertex."""
    seen = []
    real = exactlp.maximize

    def recording(cost, lhs, rhs):
        seen.append(lhs)
        return real(cost, lhs, rhs)

    monkeypatch.setattr(exactlp, "maximize", recording)
    dead = 0
    for model in (chsh_model(), xz222_model(), convex_mix(chsh_model(), pr_box(), Fraction(1, 3))):
        seen.clear()
        res = noncontextual_fraction(model)
        assert len(seen) == 1 and all(any(row) for row in seen[0])
        inc = build_incidence(model.scenario)
        vec = model_vector(model)
        cols = [j for j in range(len(inc.columns))
                if all(v or not mask >> j & 1 for mask, v in zip(inc.row_masks, vec))]
        full = [[mask >> j & 1 for j in cols] for mask in inc.row_masks]
        dead += sum(not any(row) for row in full)
        value, x = real([1] * len(cols), full, vec)
        assert value == res.ncf
        assert {inc.columns[j]: xj for j, xj in zip(cols, x) if xj} == dict(res.witness)
    assert dead > 0


def test_ncf_interpolates_along_mixtures():
    # ncf is exactly linear between the PR vertex and its classical part
    a, b = chsh_model(), pr_box()
    for lam in (Fraction(0), Fraction(1, 2), Fraction(1)):
        m = convex_mix(a, b, lam)
        ncf = noncontextual_fraction(m).ncf
        assert ncf >= lam * Fraction(3, 4) - (1 - lam)


def test_global_sections_and_strength():
    assert len(global_sections(chsh_model())) == 8
    assert global_sections(pr_box()) == ()
    assert is_strongly_contextual(pr_box())
    assert not is_strongly_contextual(chsh_model())
    assert len(global_sections(xz222_model())) == 4
    assert len(global_sections(xy322_plus_model())) == 64


def test_oversized_scenarios_are_refused_before_any_build():
    sc = MeasurementScenario([f"m{i}" for i in range(21)], [["m0", "m1"]])
    poss = PossibilisticModel(sc, {sc.contexts[0]: sc.assignments(sc.contexts[0])})
    with pytest.raises(SizeLimitError):
        build_incidence(sc)
    for verdict in (global_sections, is_strongly_contextual, is_logically_contextual):
        with pytest.raises(SizeLimitError):
            verdict(poss)


def test_logical_contextuality():
    assert not is_logically_contextual(chsh_model())
    assert is_logically_contextual(pr_box())
    assert is_logically_contextual(xy322_ghz_model())
    assert is_logically_contextual(possibilistic_collapse(pr_box()))


def test_hidden_variable_round_trip_exact():
    rng = random.Random(22)
    sc = chsh_scenario()
    for _ in range(10):
        dist = random_global_mixture(sc, rng)
        hv = to_hidden_variable(dist)
        assert set(hv.prior) == set(dist.weights)
        assert hv.realized_model() == dist.realized_model()
        back = from_hidden_variable(hv)
        assert back.realized_model() == dist.realized_model()


def test_hidden_variable_rejects_nonfactorisable():
    sc = chsh_scenario()
    lam = "l"
    ctxs = sc.contexts
    conditionals = {}
    for ctx in ctxs:
        # correlated responses cannot factor into per-measurement terms
        weights = {Assignment(ctx.members, (0, 0)): Fraction(1, 2),
                   Assignment(ctx.members, (1, 1)): Fraction(1, 2)}
        conditionals[(lam, ctx)] = ContextDistribution(ctx, (0, 1), weights)
    hv = HiddenVariableModel(sc, (lam,), {lam: Fraction(1)}, conditionals)
    with pytest.raises(ValidationError):
        from_hidden_variable(hv)
    # hidden values need only hash: values that do not sort are compared as a set
    mixed = {(v, ctx): conditionals[(lam, ctx)] for v in (0, "a") for ctx in ctxs}
    half = {0: Fraction(1, 2), "a": Fraction(1, 2)}
    assert HiddenVariableModel(sc, (0, "a"), half, mixed).values == (0, "a")
    for values, prior in (((0, "a", 0), half), ((0, "a"), {0: Fraction(1)})):
        with pytest.raises(ValidationError):
            HiddenVariableModel(sc, values, prior, mixed)


# ------------------------------------------- references for the bitmask engine

def reference_assignments(labels, outcomes):
    """Every assignment on sorted labels, lexicographic, through the checking constructor."""
    return tuple(Assignment(labels, vals) for vals in product(outcomes, repeat=len(labels)))


def reference_incidence_masks(scenario):
    """Row masks by comparing each column's restriction with each local assignment."""
    columns = reference_assignments(scenario.measurements, scenario.outcomes)
    masks = []
    for ctx in scenario.contexts:
        restr = [g.restrict(ctx.members) for g in columns]
        for s in reference_assignments(ctx.members, scenario.outcomes):
            masks.append(sum(1 << j for j, r in enumerate(restr) if r == s))
    return tuple(masks)


def reference_sections(poss):
    """Backtracking over contexts, tightest supports first; free labels last."""
    scenario = poss.scenario
    order = sorted(scenario.contexts, key=lambda c: (len(poss.supports[c]), c))
    sections = []

    def extend(i, partial):
        if i == len(order):
            free = [m for m in scenario.measurements if m not in partial]
            for tail in enumerate_assignments(free, scenario.outcomes):
                sections.append(Assignment.from_mapping({**partial, **tail.as_dict()}))
            return
        for s in sorted(poss.supports[order[i]]):
            vals = s.as_dict()
            if all(partial.get(m, v) == v for m, v in vals.items()):
                extend(i + 1, {**partial, **vals})

    extend(0, {})
    return tuple(sorted(sections))


def random_possibilistic(rng):
    """A random scenario with full, single-point or arbitrary (signalling) supports."""
    d = rng.choice((2, 3))
    labels = [f"m{i}" for i in range(rng.randint(1, 6 if d == 2 else 4))]
    contexts = {Context(rng.sample(labels, rng.randint(1, min(3, len(labels)))))
                for _ in range(rng.randint(1, 4))}
    if rng.random() < 0.3:
        labels.append("z")  # a measurement in no context
    ring = "none" if d == 3 or rng.random() < 0.5 else "Z2"
    scenario = MeasurementScenario(labels, contexts, range(d), ring)
    kind = rng.choice(("full", "single", "signalling"))
    supports = {}
    for ctx in scenario.contexts:
        local = enumerate_assignments(ctx.members, scenario.outcomes)
        if kind == "full":
            supports[ctx] = local
        elif kind == "single":
            supports[ctx] = [rng.choice(local)]
        else:
            supports[ctx] = rng.sample(local, rng.randint(1, len(local)))
    return PossibilisticModel(scenario, supports)


def uniform_model(poss):
    """The empirical model spreading each context's weight evenly over its support."""
    rows = {ctx: ContextDistribution(
                ctx, poss.scenario.outcomes,
                {s: Fraction(1, len(sup)) for s in sup})
            for ctx, sup in poss.supports.items()}
    return EmpiricalModel(poss.scenario, rows)


def test_bitmask_incidence_matches_restriction_reference():
    rng = random.Random(61)
    for _ in range(150):
        scenario = random_possibilistic(rng).scenario
        inc = build_incidence(scenario)
        assert inc.row_masks == reference_incidence_masks(scenario)
        columns = reference_assignments(scenario.measurements, scenario.outcomes)
        assert tuple(inc.columns) == columns
        assert enumerate_assignments(scenario.measurements, scenario.outcomes) == columns
        assert inc.columns[-1] == inc.columns[len(inc.columns) - 1]
        rows = tuple((ctx, s) for ctx in scenario.contexts
                     for s in reference_assignments(ctx.members, scenario.outcomes))
        assert inc.row_index == rows
        assert len(rows) == inc.shape[0]


def test_model_vector_matches_hashed_definition():
    """V read in table order equals V looked up row by row, zero weights included."""
    rng = random.Random(67)
    seen = set()
    for _ in range(120):
        scenario = random_possibilistic(rng).scenario
        rows = {}
        for ctx in scenario.contexts:
            local = list(reference_assignments(ctx.members, scenario.outcomes))
            raws = [rng.choice((0, 0, 1, 2, 5)) for _ in local]
            raws[rng.randrange(len(raws))] += 1
            rng.shuffle(local)  # the table order must not depend on the key order
            rows[ctx] = ContextDistribution(
                ctx, scenario.outcomes,
                {s: Fraction(r, sum(raws)) for s, r in zip(local, raws)})
        model = EmpiricalModel(scenario, rows)
        inc = build_incidence(scenario)
        expected = [model.rows[ctx].weights[s] for ctx, s in inc.row_index]
        assert model_vector(model) == expected
        seen.add((len(scenario.outcomes), 0 in expected))
    assert seen == {(2, False), (2, True), (3, False), (3, True)}


def count_assignments(monkeypatch):
    """A dict whose "built" counts every Assignment made from now on.

    The checking constructor counts its calls; ``enumerate_assignments``,
    which skips the checks, counts its rows, wherever a module binds it."""
    counter = {"built": 0}
    init, enumerate_ = Assignment.__init__, enumerate_assignments

    def counting_init(self, *args, **kwargs):
        counter["built"] += 1
        init(self, *args, **kwargs)

    def counting_enumerate(labels, outcomes):
        rows = enumerate_(labels, outcomes)
        counter["built"] += len(rows)
        return rows

    monkeypatch.setattr(Assignment, "__init__", counting_init)
    for name, module in list(sys.modules.items()):
        if name.startswith("contextuality") and \
                getattr(module, "enumerate_assignments", None) is enumerate_:
            monkeypatch.setattr(module, "enumerate_assignments", counting_enumerate)
    return counter


def test_grading_builds_no_assignment(monkeypatch, capsys):
    """The incidence, V and the section verdicts work on masks and tables;
    a whole analyze request builds a pinned number of assignments."""
    model = xy322_plus_model()
    poss = possibilistic_collapse(model)
    counter = count_assignments(monkeypatch)
    assert build_incidence(model.scenario).shape == (64, 64)
    assert len(model_vector(model)) == 64
    for m in (model, poss):
        assert global_section_count(m) == 64
        assert not is_strongly_contextual(m) and not is_logically_contextual(m)
    assert counter["built"] == 0
    assert len(model.scenario.assignments()) == counter["built"] == 64
    # the corpus model's 64 weights, its 8 tables of 8 and the consistent
    # theory's global assignment; the ncf witness's 8 columns are decoded by
    # unchecked_assignments, which neither counted path reaches
    counter["built"] = 0
    assert cli.main(["analyze", "--corpus", "xy322-plus", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["ncf"] == "1"
    assert counter["built"] == 129


def test_section_verdicts_match_backtracking_reference():
    rng = random.Random(62)
    kinds = {"strong": 0, "logical": 0, "neither": 0}
    for _ in range(150):
        poss = random_possibilistic(rng)
        sections = reference_sections(poss)
        missed = {(ctx, s): not any(g.restrict(ctx.members) == s for g in sections)
                  for ctx, sup in poss.supports.items() for s in sup}
        for model in (poss, uniform_model(poss)):
            assert global_sections(model) == sections
            assert is_strongly_contextual(model) == (not sections)
            assert is_logically_contextual(model) == any(missed.values())
        kinds["strong" if not sections else
              "logical" if any(missed.values()) else "neither"] += 1
    assert min(kinds.values()) > 10  # every branch of the hierarchy is exercised


def test_hierarchy_holds_on_random_models():
    """strong => logical on every model, AvN => strong on Z2 models, and on
    the uniform model strong <=> ncf = 0."""
    rng = random.Random(64)
    seen = {"avn": 0, "strong": 0, "logical": 0, "neither": 0}
    for _ in range(150):
        poss = random_possibilistic(rng)
        model = uniform_model(poss)
        strong, logical = is_strongly_contextual(poss), is_logically_contextual(poss)
        assert is_strongly_contextual(model) == strong
        assert is_logically_contextual(model) == logical
        assert logical or not strong
        avn = poss.scenario.ring == "Z2" and is_avn(poss)
        if avn:
            assert strong and is_avn(model)
        assert strong == (noncontextual_fraction(model).ncf == 0)
        seen["avn" if avn else "strong" if strong else "logical" if logical else "neither"] += 1
    assert min(seen.values()) >= 5  # every grade of the hierarchy is reached


def parity_ring(n, parity):
    """n measurements in a cycle of 2-member contexts; edge i fixes x_i + x_i+1,
    all edges even but the last, which has ``parity``. An odd ring has no
    global section; an even one has exactly two."""
    labels = [f"m{i:02d}" for i in range(n)]
    scenario = MeasurementScenario(
        labels, [[labels[i], labels[(i + 1) % n]] for i in range(n)], (0, 1))
    supports = {}
    for i in range(n):
        ctx = Context([labels[i], labels[(i + 1) % n]])
        c = parity if i == n - 1 else 0
        supports[ctx] = [s for s in enumerate_assignments(ctx.members, (0, 1))
                         if sum(s.values) % 2 == c]
    return PossibilisticModel(scenario, supports)


@pytest.mark.parametrize("n", range(4, 11))
def test_rings_match_backtracking_reference(n):
    for parity in (0, 1):
        poss = parity_ring(n, parity)
        sections = reference_sections(poss)
        assert len(sections) == 2 * (1 - parity)
        for model in (poss, uniform_model(poss)):
            assert global_sections(model) == sections
            assert is_strongly_contextual(model) == (not sections)
            assert is_logically_contextual(model) == (not sections)


def test_large_ring_decides_without_building_columns(monkeypatch):
    poss = parity_ring(18, 1)
    built = [0]
    init = Assignment.__init__

    def counting(self, *args, **kwargs):
        built[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(Assignment, "__init__", counting)
    assert is_strongly_contextual(poss)
    assert is_logically_contextual(poss)
    assert global_sections(poss) == ()
    assert len(build_incidence(poss.scenario).columns) == 1 << 18
    assert built[0] < 1000  # not one per each of the 2^18 columns


def test_global_section_count_is_the_number_of_sections():
    from contextuality.corpus import REGISTRY, xy322_scenario
    from contextuality.realize import realize_model_exact

    models = [e.build() for e in REGISTRY.values() if e.kind in ("model", "possibilistic")]
    models += [parity_ring(n, parity) for n in (4, 5, 9) for parity in (0, 1)]
    rng = random.Random(63)
    for re, im in ((1, 0), (0, 1), (-1, 0), (0, -1)):
        dense = [(Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3))) for _ in range(8)]
        # GHZ-type |000> + i^k |111>: zero rows leave few surviving columns
        ghz = [(Fraction(1), Fraction(0))] + [(Fraction(0), Fraction(0))] * 6
        ghz.append((Fraction(re), Fraction(im)))
        models += [realize_model_exact(dense, xy322_scenario()),
                   realize_model_exact(ghz, xy322_scenario())]
    counts = [global_section_count(m) for m in models]
    assert counts == [len(global_sections(m)) for m in models]
    assert 0 in counts and 2 in counts and 64 in counts


def graded_inputs():
    """(kind, model) pairs across the hierarchy: the corpus, seeded X/Y
    models, dense and GHZ-type, CHSH/PR-box mixtures, and random
    possibilistic models with their uniform empirical models."""
    from contextuality.corpus import REGISTRY, xy322_scenario
    from contextuality.realize import realize_model_exact

    inputs = [(e.kind, e.build()) for e in REGISTRY.values()
              if e.kind in ("model", "possibilistic")]
    rng = random.Random(91)
    one, zero = (Fraction(1), Fraction(0)), (Fraction(0), Fraction(0))
    for k in range(12):
        if k % 3:
            amps = [(Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3)))
                    for _ in range(8)]
            amps[0] = one
        else:  # |000> + c |111>, strongly contextual when c is i^k
            c = rng.choice([(1, 0), (0, 1), (-1, 0), (0, -1), (2, 1)])
            amps = [one] + [zero] * 6 + [(Fraction(c[0]), Fraction(c[1]))]
        inputs.append(("model", realize_model_exact(amps, xy322_scenario())))
    for _ in range(8):
        inputs.append(("model", convex_mix(chsh_model(), pr_box(),
                                           Fraction(rng.randrange(0, 9), 8))))
    for _ in range(40):
        poss = random_possibilistic(rng)
        inputs += [("possibilistic", poss), ("model", uniform_model(poss))]
    return inputs


def test_one_pass_payload_matches_public_checks():
    from contextuality.linear_theory import is_avn

    kinds = set()
    for kind, model in graded_inputs():
        checks = cli._MODEL_CHECKS if kind == "model" else cli._POSS_CHECKS
        expected = {}
        if kind == "model":
            res = noncontextual_fraction(model)
            expected.update(no_signaling=is_no_signaling(model),
                            ncf=str(res.ncf), cf=str(res.cf))
        expected.update(strongly_contextual=is_strongly_contextual(model),
                        logically_contextual=is_logically_contextual(model),
                        global_section_count=global_section_count(model))
        if model.scenario.ring == "Z2":
            expected["avn"] = is_avn(model)
        else:
            checks = tuple(c for c in checks if c != "avn")
        assert cli._analysis_payload(kind, model, checks) == expected
        kinds.add((kind, expected["strongly_contextual"], expected.get("avn")))
    assert {("model", True, True), ("model", False, False),
            ("possibilistic", True, True), ("possibilistic", False, False)} <= kinds


def test_default_analyze_builds_one_incidence_and_no_possibilistic_model(
        monkeypatch, capsys, tmp_path):
    from contextuality import analysis, empirical
    from contextuality.empirical import model_to_dict

    counts = {"incidence": 0, "collapse": 0}
    build, collapse = analysis.build_incidence, empirical.possibilistic_collapse

    def counting_build(scenario):
        counts["incidence"] += 1
        return build(scenario)

    def counting_collapse(model):
        counts["collapse"] += 1
        return collapse(model)

    monkeypatch.setattr(analysis, "build_incidence", counting_build)
    for name, module in list(sys.modules.items()):
        if name.startswith("contextuality") and \
                getattr(module, "possibilistic_collapse", None) is collapse:
            monkeypatch.setattr(module, "possibilistic_collapse", counting_collapse)
    path = tmp_path / "chsh.json"
    path.write_text(json.dumps(model_to_dict(chsh_model())))
    for source in (["--corpus", "xy322-ghz"], ["--corpus", "mermin-square-possibilistic"],
                   [str(path)]):
        counts.update(incidence=0, collapse=0)
        assert cli.main(["analyze", *source]) == 0
        assert counts == {"incidence": 1, "collapse": 0}
    capsys.readouterr()
