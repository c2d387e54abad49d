"""Empirical models: one exact outcome distribution per context.

All probabilities are ``fractions.Fraction``; nothing in this module, or in
the analysis stack above it, touches floating point. A model is no-signaling
when any two contexts induce the same marginal on their overlap, checked
exactly. Collapsing a model to its supports yields a possibilistic model,
the input to logical and parity-based contextuality tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import lcm
from typing import Iterable, Mapping

from .errors import ParseError, ValidationError
from .scenario import (
    Assignment,
    Context,
    Label,
    MeasurementScenario,
    Outcome,
    enumerate_assignments,
    parse_assignment,
    scenario_from_dict,
    scenario_to_dict,
)

_ZERO = Fraction(0)  # the weight of a cell the mapping omits, shared


@dataclass(frozen=True)
class ContextDistribution:
    """Exact distribution over all assignments of one context.

    ``weights`` has a key for every element of E(C), in
    ``enumerate_assignments`` order whatever the order of the mapping
    given; readers such as ``analysis.model_vector`` rely on that order.
    Weights are nonnegative rationals summing to one.
    """

    context: Context
    outcomes: tuple[Outcome, ...]
    weights: Mapping[Assignment, Fraction]

    def __init__(self, context: Context, outcomes: Iterable[Outcome],
                 weights: Mapping[Assignment, Fraction | int | str]):
        outs = tuple(outcomes)
        full = enumerate_assignments(context.members, outs)
        table: dict[Assignment, Fraction] = {}
        for s in full:
            w = weights.get(s, _ZERO)
            if not isinstance(w, Fraction):
                w = Fraction(w)
            if w < 0:
                raise ValidationError(f"negative weight {w} at {s}")
            table[s] = w
        stray = set(weights) - set(full)
        if stray:
            raise ValidationError(f"weights keyed outside E({context}): {sorted(stray)}")
        total = sum(table.values())
        if total != 1:
            raise ValidationError(f"weights at {context} sum to {total}, not 1")
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "outcomes", outs)
        object.__setattr__(self, "weights", table)

    def __getitem__(self, s: Assignment) -> Fraction:
        return self.weights[s]

    def support(self) -> frozenset[Assignment]:
        return frozenset(s for s, w in self.weights.items() if w > 0)

    def marginal(self, labels: Iterable[Label]) -> "ContextDistribution":
        """Push forward onto a sub-context by summing over the rest."""
        sub = Context(labels)
        if not set(sub.members) <= set(self.context.members):
            raise ValidationError(f"{sub} is not a sub-context of {self.context}")
        out: dict[Assignment, Fraction] = {}
        for s, w in self.weights.items():
            r = s.restrict(sub.members)
            out[r] = out.get(r, Fraction(0)) + w
        return ContextDistribution(sub, self.outcomes, out)


@dataclass(frozen=True)
class NoSignalingViolation:
    """Two contexts disagreeing on a shared marginal."""

    context_a: Context
    context_b: Context
    restriction: Assignment
    value_a: Fraction
    value_b: Fraction

    def __str__(self) -> str:
        return (f"{self.context_a} and {self.context_b} give {self.value_a} vs "
                f"{self.value_b} at {self.restriction.to_string()} on the overlap")


@dataclass(frozen=True)
class EmpiricalModel:
    """One ContextDistribution per context of a scenario."""

    scenario: MeasurementScenario
    rows: Mapping[Context, ContextDistribution]

    def __init__(self, scenario: MeasurementScenario,
                 rows: Mapping[Context, ContextDistribution]):
        if set(rows) != set(scenario.contexts):
            raise ValidationError("model rows must cover exactly the scenario's contexts")
        for c, dist in rows.items():
            if dist.context != c:
                raise ValidationError(f"row keyed {c} holds a distribution over {dist.context}")
            if dist.outcomes != scenario.outcomes:
                raise ValidationError(f"row {c} uses outcomes {dist.outcomes}")
        object.__setattr__(self, "scenario", scenario)
        object.__setattr__(self, "rows", dict(rows))

    def row(self, context: Context | Iterable[Label]) -> ContextDistribution:
        c = context if isinstance(context, Context) else Context(context)
        return self.rows[c]

    def probability(self, context: Context | Iterable[Label],
                    values: Assignment | Mapping[Label, Outcome]) -> Fraction:
        dist = self.row(context)
        if isinstance(values, Assignment):
            return dist[values]
        return dist[Assignment.from_mapping(dict(values))]


def _scaled_rows(dist: ContextDistribution) -> tuple[int, list[tuple[tuple[Outcome, ...], int]]]:
    """A common denominator L of the weights, and each (values, weight * L)."""
    scale = lcm(*(w.denominator for w in dist.weights.values()))
    return scale, [(s.values, w.numerator * (scale // w.denominator))
                   for s, w in dist.weights.items()]


def _overlap_sums(scaled: list[tuple[tuple[Outcome, ...], int]],
                  pos: list[int]) -> dict[tuple[Outcome, ...], int]:
    """Scaled marginal on the positions ``pos``, keyed by the values there."""
    sums: dict[tuple[Outcome, ...], int] = {}
    for vals, w in scaled:
        key = tuple([vals[p] for p in pos])
        sums[key] = sums.get(key, 0) + w
    return sums


def check_no_signaling(model: EmpiricalModel) -> list[NoSignalingViolation]:
    """Exact pairwise marginal comparison on every context overlap.

    Each context's weights are put over one integer denominator once and
    summed once per overlap; an assignment and a violation are built only
    where two contexts disagree, in outcome order within each pair.
    """
    violations = []
    contexts = model.scenario.contexts
    scales, scaled = {}, {}
    for c in contexts:
        scales[c], scaled[c] = _scaled_rows(model.rows[c])
    sums: dict[tuple[Context, tuple[Label, ...]], dict] = {}
    for i, a in enumerate(contexts):
        for b in contexts[i + 1:]:
            shared = a.intersection(b)
            if not shared:
                continue
            for c in (a, b):
                if (c, shared) not in sums:
                    pos = [c.members.index(label) for label in shared]
                    sums[c, shared] = _overlap_sums(scaled[c], pos)
            la, lb = scales[a], scales[b]
            ma, mb = sums[a, shared], sums[b, shared]
            for vals in product(model.scenario.outcomes, repeat=len(shared)):
                wa, wb = ma.get(vals, 0), mb.get(vals, 0)
                if wa * lb != wb * la:
                    violations.append(NoSignalingViolation(
                        a, b, Assignment(shared, vals), Fraction(wa, la), Fraction(wb, lb)))
    return violations


def is_no_signaling(model: EmpiricalModel) -> bool:
    return not check_no_signaling(model)


def convex_mix(a: EmpiricalModel, b: EmpiricalModel, lam: Fraction) -> EmpiricalModel:
    """Pointwise mixture lam*a + (1-lam)*b of models on the same scenario."""
    lam = Fraction(lam)
    if not 0 <= lam <= 1:
        raise ValidationError(f"mixing weight {lam} outside [0, 1]")
    if a.scenario != b.scenario:
        raise ValidationError("cannot mix models on different scenarios")
    rows = {}
    for c in a.scenario.contexts:
        weights = {s: lam * a.rows[c].weights[s] + (1 - lam) * b.rows[c].weights[s]
                   for s in a.rows[c].weights}
        rows[c] = ContextDistribution(c, a.scenario.outcomes, weights)
    return EmpiricalModel(a.scenario, rows)


@dataclass(frozen=True)
class PossibilisticModel:
    """Only the supports of a model: which outcomes are possible at all."""

    scenario: MeasurementScenario
    supports: Mapping[Context, frozenset[Assignment]]

    def __init__(self, scenario: MeasurementScenario,
                 supports: Mapping[Context, Iterable[Assignment]]):
        if set(supports) != set(scenario.contexts):
            raise ValidationError("supports must cover exactly the scenario's contexts")
        table = {}
        d = len(scenario.outcomes)
        for c, sup in supports.items():
            sup = frozenset(sup)
            if not sup:
                raise ValidationError(f"empty support at {c}")
            if not all(isinstance(s, Assignment) and s.labels == c.members
                       and all(v < d for v in s.values) for s in sup):
                raise ValidationError(f"support at {c} contains foreign assignments")
            table[c] = sup
        object.__setattr__(self, "scenario", scenario)
        object.__setattr__(self, "supports", table)

    def support(self, context: Context | Iterable[Label]) -> frozenset[Assignment]:
        c = context if isinstance(context, Context) else Context(context)
        return self.supports[c]


def possibilistic_collapse(model: EmpiricalModel) -> PossibilisticModel:
    """Forget probabilities, keep supports."""
    return PossibilisticModel(
        model.scenario, {c: model.rows[c].support() for c in model.scenario.contexts})


# ----------------------------------------------------------------- JSON form

def _fraction_from_string(text: object) -> Fraction:
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    if not isinstance(text, str):
        raise ParseError(f"expected rational string, got {text!r}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"malformed rational {text!r}") from None


def model_to_dict(model: EmpiricalModel) -> dict:
    rows = {}
    for c in model.scenario.contexts:
        dist = model.rows[c]
        rows[c.key()] = {s.to_string(): str(w)
                         for s, w in dist.weights.items() if w != 0}
    return {"scenario": scenario_to_dict(model.scenario), "rows": rows}


def model_from_dict(data: object) -> EmpiricalModel:
    if not isinstance(data, dict):
        raise ParseError("model must be a JSON object")
    if "scenario" not in data or "rows" not in data:
        raise ParseError("model object needs 'scenario' and 'rows'")
    scenario = scenario_from_dict(data["scenario"])
    raw_rows = data["rows"]
    if not isinstance(raw_rows, dict):
        raise ParseError("model rows must be an object keyed by context")
    by_key = {c.key(): c for c in scenario.contexts}
    rows = {}
    for key, table in raw_rows.items():
        if key not in by_key:
            raise ParseError(f"row keyed {key!r} matches no scenario context")
        c = by_key[key]
        if not isinstance(table, dict):
            raise ParseError(f"row {key!r} must be an object of outcome weights")
        # a string missing from the table is left to parse_assignment, which
        # raises its error (or decodes non-ASCII digits, as it always has)
        by_string = {s.to_string(): s
                     for s in enumerate_assignments(c.members, scenario.outcomes)}
        weights = {by_string.get(o) or parse_assignment(o, c, scenario.outcomes):
                   _fraction_from_string(w) for o, w in table.items()}
        rows[c] = ContextDistribution(c, scenario.outcomes, weights)
    missing = set(by_key.values()) - set(rows)
    if missing:
        raise ValidationError(f"model missing rows for {sorted(c.key() for c in missing)}")
    return EmpiricalModel(scenario, rows)


def possibilistic_to_dict(model: PossibilisticModel) -> dict:
    return {
        "scenario": scenario_to_dict(model.scenario),
        "supports": {c.key(): sorted(s.to_string() for s in model.supports[c])
                     for c in model.scenario.contexts},
    }


def possibilistic_from_dict(data: object) -> PossibilisticModel:
    if not isinstance(data, dict):
        raise ParseError("possibilistic model must be a JSON object")
    if "scenario" not in data or "supports" not in data:
        raise ParseError("possibilistic object needs 'scenario' and 'supports'")
    scenario = scenario_from_dict(data["scenario"])
    raw = data["supports"]
    if not isinstance(raw, dict):
        raise ParseError("supports must be an object keyed by context")
    by_key = {c.key(): c for c in scenario.contexts}
    supports = {}
    for key, strings in raw.items():
        if key not in by_key:
            raise ParseError(f"support keyed {key!r} matches no scenario context")
        c = by_key[key]
        if not isinstance(strings, list):
            raise ParseError(f"support {key!r} must be a list of outcome strings")
        supports[c] = frozenset(parse_assignment(o, c, scenario.outcomes) for o in strings)
    missing = set(by_key.values()) - set(supports)
    if missing:
        raise ValidationError(f"missing supports for {sorted(c.key() for c in missing)}")
    return PossibilisticModel(scenario, supports)
