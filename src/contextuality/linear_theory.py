"""Parity equation theories over the outcomes of a scenario.

An equation asserts that the mod-2 sum of selected outcomes inside one
context equals a constant. The theory of supports extracts every equation
a model's possible outcomes obey; inconsistency of that theory is an
all-versus-nothing argument: no global outcome assignment satisfies what
the supports jointly certify.

Theories are held in canonical form, one reduced echelon basis per
context, so equality of theories is equality of bases.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from . import gf2
from .empirical import EmpiricalModel, PossibilisticModel, possibilistic_collapse
from .errors import ParseError, SizeLimitError, ValidationError
from .scenario import (
    Assignment,
    Context,
    MeasurementScenario,
    scenario_from_dict,
    scenario_to_dict,
)

SPAN_LIMIT = 16  # full-span enumeration refuses above this many context members


@dataclass(frozen=True, order=True)
class LinearEquation:
    """sum of s(m) over flagged members of a context = constant (mod 2).

    ``coefficients[i]`` flags ``context.members[i]``; zero coefficients are
    kept explicit so equations on the same context compare positionally.
    """

    context: Context
    coefficients: tuple[int, ...]
    constant: int

    def __init__(self, context: Context, coefficients: Iterable[int], constant: int):
        coefs = tuple(map(int, coefficients))
        if len(coefs) != len(context):
            raise ValidationError(
                f"{len(coefs)} coefficients for context {context} of size {len(context)}")
        if not {*coefs} <= {0, 1} or constant not in (0, 1):
            raise ValidationError("coefficients and constant must be bits")
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "coefficients", coefs)
        object.__setattr__(self, "constant", int(constant))

    def coefficient_mask(self) -> int:
        mask = 0
        for i, c in enumerate(self.coefficients):
            mask |= c << i
        return mask

    def render(self) -> str:
        terms = [f"s({m})" for m, c in zip(self.context.members, self.coefficients) if c]
        lhs = " + ".join(terms) if terms else "0"
        return f"{lhs} = {self.constant}"

    def __str__(self) -> str:
        return self.render()


def satisfies(assignment: Assignment, equation: LinearEquation) -> bool:
    """Does an assignment covering the equation's context satisfy it?"""
    total = 0
    for m, c in zip(equation.context.members, equation.coefficients):
        if c:
            total ^= assignment[m] & 1
    return total == equation.constant


@dataclass(frozen=True)
class LinearTheory:
    """A set of parity equations over one scenario, stored per-context reduced."""

    scenario: MeasurementScenario
    equations: tuple[LinearEquation, ...]

    def __init__(self, scenario: MeasurementScenario, equations: Iterable[LinearEquation]):
        if scenario.ring != "Z2":
            raise ValidationError("parity equations need a Z2-ringed scenario")
        eqs = tuple(equations)
        ctx_set = set(scenario.contexts)
        for eq in eqs:
            if eq.context not in ctx_set:
                raise ValidationError(f"equation on {eq.context} outside the cover")
        object.__setattr__(self, "scenario", scenario)
        object.__setattr__(self, "equations", _reduce_per_context(eqs))

    @classmethod
    def _from_reduced(cls, scenario: MeasurementScenario,
                      equations: Iterable[LinearEquation]) -> "LinearTheory":
        """Trust equations already in canonical form: reduced per context, sorted."""
        theory = object.__new__(cls)
        object.__setattr__(theory, "scenario", scenario)
        object.__setattr__(theory, "equations", tuple(equations))
        return theory

    def __len__(self) -> int:
        return len(self.equations)

    def context_basis(self, context: Context) -> tuple[LinearEquation, ...]:
        return tuple(eq for eq in self.equations if eq.context == context)

    def span(self, context: Context) -> tuple[LinearEquation, ...]:
        """Every equation the context's basis implies, the zero one included."""
        basis = self.context_basis(context)
        if len(context) > SPAN_LIMIT:
            raise SizeLimitError(
                f"span enumeration refused for context of size {len(context)} > {SPAN_LIMIT}")
        k = len(context)
        seen = {}
        for combo in range(1 << len(basis)):
            mask, const = 0, 0
            for i, eq in enumerate(basis):
                if (combo >> i) & 1:
                    mask ^= eq.coefficient_mask()
                    const ^= eq.constant
            seen[(mask, const)] = LinearEquation(
                context, tuple((mask >> i) & 1 for i in range(k)), const)
        return tuple(sorted(seen.values()))

    def implies(self, equation: LinearEquation) -> bool:
        """Is the equation in the span of its context's basis?"""
        basis = self.context_basis(equation.context)
        rows = [eq.coefficient_mask() | (eq.constant << len(equation.context))
                for eq in basis]
        reduced, _ = gf2.rref(rows)
        target = equation.coefficient_mask() | (equation.constant << len(equation.context))
        return gf2.in_span(reduced, target)


def _reduce_per_context(equations: Iterable[LinearEquation]) -> tuple[LinearEquation, ...]:
    by_ctx: dict[Context, list[LinearEquation]] = {}
    for eq in equations:
        by_ctx.setdefault(eq.context, []).append(eq)
    out = []
    for ctx in sorted(by_ctx):
        k = len(ctx)
        # constant rides in bit k; rref never pivots there because any row
        # reducing to bare constant 1 is the inconsistent equation 0 = 1,
        # which must be preserved, and bare constant 0 rows drop out
        rows = [eq.coefficient_mask() | (eq.constant << k) for eq in by_ctx[ctx]]
        reduced, pivots = gf2.rref(rows)
        for row, p in zip(reduced, pivots):
            if p == k:
                out.append(LinearEquation(ctx, (0,) * k, 1))
            else:
                out.append(LinearEquation(
                    ctx, tuple((row >> i) & 1 for i in range(k)), (row >> k) & 1))
    return tuple(sorted(out))


def theory_of_supports(model: EmpiricalModel | PossibilisticModel) -> LinearTheory:
    """All parity equations every possible outcome of each context obeys.

    Per context this is the annihilator of the support vectors augmented
    with a constant coordinate, returned as a reduced basis.
    """
    if isinstance(model, EmpiricalModel):
        model = possibilistic_collapse(model)
    scenario = model.scenario
    equations = []
    for ctx in scenario.contexts:
        k = len(ctx)
        rows = []
        for s in sorted(model.supports[ctx]):
            mask = 0
            for i, v in enumerate(s.values):
                mask |= (v & 1) << i
            rows.append(mask | (1 << k))
        for v in gf2.nullspace(rows, k + 1):
            equations.append(LinearEquation(
                ctx, tuple((v >> i) & 1 for i in range(k)), (v >> k) & 1))
    return LinearTheory(scenario, equations)


@dataclass(frozen=True)
class ConsistencyResult:
    """Outcome of a global satisfiability check.

    Consistent theories carry a witness assignment; inconsistent ones carry
    a certificate: equations summing, coefficient-wise, to the contradiction
    0 = 1.
    """

    consistent: bool
    assignment: Assignment | None
    certificate: tuple[LinearEquation, ...] | None

    def __bool__(self) -> bool:
        return self.consistent


def is_consistent(theory: LinearTheory) -> ConsistencyResult:
    """Global GF(2) solve across contexts, with certificate extraction.

    It stops at the first contradiction 0 = 1, with the certificate a full
    pass would give: the basis never replaces its first conflict.
    """
    labels = theory.scenario.measurements
    index = {m: i for i, m in enumerate(labels)}
    system = gf2.AffineBasis(len(labels))
    for eq in theory.equations:
        mask = 0
        for m, c in zip(eq.context.members, eq.coefficients):
            if c:
                mask |= 1 << index[m]
        system.add(mask, eq.constant)
        if system.conflict is not None:
            cert = tuple(e for i, e in enumerate(theory.equations) if system.conflict >> i & 1)
            return ConsistencyResult(False, None, cert)
    sol = system.solution()
    values = tuple((sol >> i) & 1 for i in range(len(labels)))
    return ConsistencyResult(True, Assignment(labels, values), None)


def is_avn(model: EmpiricalModel | PossibilisticModel) -> bool:
    """All-versus-nothing: the support theory admits no global assignment."""
    return not is_consistent(theory_of_supports(model)).consistent


# ----------------------------------------------------------------- JSON form

def theory_to_dict(theory: LinearTheory) -> dict:
    return {
        "scenario": scenario_to_dict(theory.scenario),
        "equations": [
            {
                "context": list(eq.context.members),
                "r": {m: c for m, c in zip(eq.context.members, eq.coefficients)},
                "a": eq.constant,
            }
            for eq in theory.equations
        ],
    }


def theory_from_dict(data: object) -> LinearTheory:
    if not isinstance(data, dict) or "scenario" not in data or "equations" not in data:
        raise ParseError("theory object needs 'scenario' and 'equations'")
    scenario = scenario_from_dict(data["scenario"])
    equations = []
    raw = data["equations"]
    if not isinstance(raw, list):
        raise ParseError("'equations' must be a list")
    for item in raw:
        if not isinstance(item, dict) or "context" not in item or "r" not in item:
            raise ParseError("each equation needs 'context', 'r' and 'a'")
        ctx = Context(item["context"])
        coefs = tuple(int(item["r"].get(m, 0)) for m in ctx.members)
        equations.append(LinearEquation(ctx, coefs, int(item.get("a", 0))))
    return LinearTheory(scenario, equations)
