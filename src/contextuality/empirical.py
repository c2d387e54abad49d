"""Empirical models: one exact outcome distribution per context.

All probabilities are ``fractions.Fraction``; nothing in this module, or in
the analysis stack above it, touches floating point. A model is no-signaling
when any two contexts induce the same marginal on their overlap, checked
exactly. Collapsing a model to its supports yields a possibilistic model,
the input to logical and parity-based contextuality tests.

Weights are checked on integers. A context's sign and sum are read off the
numerators over the weights' LCD, and no-signalling compares marginals
summed as scaled integers into lists indexed by outcome arithmetic. The
JSON loader enumerates each context's assignments once and reads plain
``p/q`` and integer weight strings with ``int``; ``Fraction`` reads the
rest.
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
        table = _weight_table(full, (weights.get(s, _ZERO) for s in full))
        stray = set(weights) - set(full)
        if stray:
            raise ValidationError(f"weights keyed outside E({context}): {sorted(stray)}")
        self._set(context, outs, table)

    @classmethod
    def _in_order(cls, context: Context, outcomes: tuple[Outcome, ...],
                  full: tuple[Assignment, ...], weights: Iterable[Fraction]) -> "ContextDistribution":
        """The distribution with E(C) = ``full`` enumerated already, and the
        weights given in its order, so no assignment is looked up."""
        dist = object.__new__(cls)
        dist._set(context, outcomes, _weight_table(full, weights))
        return dist

    def _set(self, context: Context, outcomes: tuple[Outcome, ...],
             table: dict[Assignment, Fraction]) -> None:
        # the sum is checked on the numerators over the weights' LCD
        scale = lcm(*(w.denominator for w in table.values()))
        total = sum(w.numerator * (scale // w.denominator) for w in table.values())
        if total != scale:
            raise ValidationError(
                f"weights at {context} sum to {Fraction(total, scale)}, not 1")
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "outcomes", outcomes)
        object.__setattr__(self, "weights", table)

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


def _weight_table(full: Iterable[Assignment], weights: Iterable[object]) -> dict[Assignment, Fraction]:
    """Each assignment keyed to its weight as a Fraction, refusing the first
    negative one in ``full``'s order."""
    table = {}
    for s, w in zip(full, weights):
        if not isinstance(w, Fraction):
            w = Fraction(w)
        if w.numerator < 0:
            raise ValidationError(f"negative weight {w} at {s}")
        table[s] = w
    return table


def _overlap_slots(k: int, pos: tuple[int, ...], d: int) -> list[int]:
    """For each row of a k-member context, in table order, the index of its
    values at the positions ``pos`` in the overlap's own table order: both
    orders read the values as base-d digits, the first position most
    significant."""
    slots = []
    for i in range(d ** k):
        j = 0
        for p in pos:
            j = j * d + i // d ** (k - 1 - p) % d
        slots.append(j)
    return slots


def check_no_signaling(model: EmpiricalModel) -> list[NoSignalingViolation]:
    """Exact pairwise marginal comparison on every context overlap.

    Each context's weights are put over one integer denominator once, and
    summed once per overlap into a list in the overlap's table order, each
    row's slot computed from its index. An assignment and a violation are
    built only where two contexts disagree, in outcome order within each
    pair.
    """
    violations = []
    scenario = model.scenario
    d = len(scenario.outcomes)
    contexts = scenario.contexts
    scaled = []  # per context: a common denominator L, and each weight * L
    for c in contexts:
        weights = model.rows[c].weights.values()
        scale = lcm(*(w.denominator for w in weights))
        scaled.append((scale, [w.numerator * (scale // w.denominator) for w in weights]))
    slots: dict[tuple[int, tuple[int, ...]], list[int]] = {}
    sums: dict[tuple[int, tuple[str, ...]], list[int]] = {}
    for i, a in enumerate(contexts):
        for j in range(i + 1, len(contexts)):
            b = contexts[j]
            shared = a.intersection(b)
            if not shared:
                continue
            for n, c in ((i, a), (j, b)):
                if (n, shared) not in sums:
                    pos = tuple(c.members.index(label) for label in shared)
                    if (len(c), pos) not in slots:
                        slots[len(c), pos] = _overlap_slots(len(c), pos, d)
                    marginal = [0] * d ** len(shared)
                    for w, slot in zip(scaled[n][1], slots[len(c), pos]):
                        marginal[slot] += w
                    sums[n, shared] = marginal
            la, lb = scaled[i][0], scaled[j][0]
            for index, (wa, wb) in enumerate(zip(sums[i, shared], sums[j, shared])):
                if wa * lb != wb * la:
                    vals = tuple(index // d ** (len(shared) - 1 - q) % d
                                 for q in range(len(shared)))
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


def possibilistic_collapse(model: EmpiricalModel) -> PossibilisticModel:
    """Forget probabilities, keep supports."""
    return PossibilisticModel(
        model.scenario, {c: model.rows[c].support() for c in model.scenario.contexts})


# ----------------------------------------------------------------- JSON form

def _is_ascii_integer(text: str) -> bool:
    """Is ``text`` ASCII digits, after at most one leading minus sign?"""
    digits = text[1:] if text[:1] == "-" else text
    return digits.isascii() and digits.isdigit()


def _fraction_from_string(text: object) -> Fraction:
    """A JSON weight as a Fraction: an integer, or a string that ``Fraction``
    accepts. Plain ``p/q`` and integer strings in ASCII digits are read with
    ``int``; every other string goes to ``Fraction(text)``, which decides
    what else it takes (spaces, ``+``, ``_``, decimals, exponents, other
    scripts' digits) and refuses, as its Python version does."""
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    if not isinstance(text, str):
        raise ParseError(f"expected rational string, got {text!r}")
    num, slash, den = text.partition("/")
    try:
        if _is_ascii_integer(num) and (not slash or den.isascii() and den.isdigit()):
            return Fraction(int(num), int(den)) if slash else Fraction(int(num))
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
    outcomes = scenario.outcomes
    digits = [str(v) for v in outcomes]
    rows = {}
    for key, table in raw_rows.items():
        if key not in by_key:
            raise ParseError(f"row keyed {key!r} matches no scenario context")
        c = by_key[key]
        if not isinstance(table, dict):
            raise ParseError(f"row {key!r} must be an object of outcome weights")
        # E(C) is enumerated once; each outcome string's place in it comes
        # from the same digit order. A string missing there is left to
        # parse_assignment, which raises its error (or decodes non-ASCII
        # digits, as it always has)
        full = enumerate_assignments(c.members, outcomes)
        index = {"".join(t): i for i, t in enumerate(product(digits, repeat=len(c)))}
        weights = [_ZERO] * len(full)
        for o, w in table.items():
            i = index.get(o)
            if i is None:
                i = full.index(parse_assignment(o, c, outcomes))
            weights[i] = _fraction_from_string(w)
        rows[c] = ContextDistribution._in_order(c, outcomes, full, weights)
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
