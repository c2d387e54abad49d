"""Global distributions, the noncontextual fraction, and global sections.

The incidence matrix M has a row per (context, local assignment) pair and a
column per global assignment, with a 1 where the global restricts to the
local. A model vector V stacks the context tables in the same row order.

* MX = V with X >= 0 solvable  <->  the model is noncontextual.
* max |X| with MX <= V, X >= 0 is the noncontextual fraction; 1 - it is
  the contextual fraction.
* Supports admit a global section exactly when the collapse is not
  strongly contextual.

Columns whose global assignment restricts into a zero-probability row are
eliminated before any pivoting: their variable is squeezed to zero by that
row, which is also why strongly contextual models resolve without simplex
work. Everything is exact.

The hidden-variable conversions realize the equivalence between global
distributions and factorisable hidden-variable models: the canonical
hidden variable ranges over global assignments themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Hashable, Iterable, Mapping

from . import exactlp
from .empirical import (
    ContextDistribution,
    EmpiricalModel,
    PossibilisticModel,
    possibilistic_collapse,
)
from .errors import SizeLimitError, ValidationError
from .scenario import (
    Assignment,
    Context,
    Label,
    MeasurementScenario,
    enumerate_assignments,
)

GLOBAL_LIMIT = 1 << 20  # refuse incidence/section builds above this many columns


def _check_size(scenario: MeasurementScenario) -> None:
    count = len(scenario.outcomes) ** len(scenario.measurements)
    if count > GLOBAL_LIMIT:
        raise SizeLimitError(
            f"{count} global assignments exceed the {GLOBAL_LIMIT} column limit")


@dataclass(frozen=True)
class IncidenceMatrix:
    """0/1 restriction matrix, rows as bitmasks over the column order."""

    scenario: MeasurementScenario
    row_index: tuple[tuple[Context, Assignment], ...]
    columns: tuple[Assignment, ...]
    row_masks: tuple[int, ...]

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.row_index), len(self.columns)


def build_incidence(scenario: MeasurementScenario) -> IncidenceMatrix:
    """Assemble M in canonical row and column enumeration order."""
    _check_size(scenario)
    columns = enumerate_assignments(scenario.measurements, scenario.outcomes)
    row_index = []
    row_masks = []
    for ctx in scenario.contexts:
        locals_ = enumerate_assignments(ctx.members, scenario.outcomes)
        restr = [g.restrict(ctx.members) for g in columns]
        for s in locals_:
            mask = 0
            for j, r in enumerate(restr):
                if r == s:
                    mask |= 1 << j
            row_index.append((ctx, s))
            row_masks.append(mask)
    return IncidenceMatrix(scenario, tuple(row_index), columns, tuple(row_masks))


def model_vector(model: EmpiricalModel, incidence: IncidenceMatrix | None = None) -> list[Fraction]:
    """V in the incidence row order."""
    inc = incidence if incidence is not None else build_incidence(model.scenario)
    return [model.rows[ctx].weights[s] for ctx, s in inc.row_index]


@dataclass(frozen=True)
class GlobalDistribution:
    """Distribution on all-measurement assignments; zero weights omitted."""

    scenario: MeasurementScenario
    weights: Mapping[Assignment, Fraction]

    def __init__(self, scenario: MeasurementScenario,
                 weights: Mapping[Assignment, Fraction]):
        table = {}
        for g, w in weights.items():
            w = Fraction(w)
            if g.labels != scenario.measurements:
                raise ValidationError(f"{g} is not a global assignment")
            if w < 0:
                raise ValidationError(f"negative weight {w} at {g}")
            if w:
                table[g] = w
        if sum(table.values()) != 1:
            raise ValidationError("global weights must sum to 1")
        object.__setattr__(self, "scenario", scenario)
        object.__setattr__(self, "weights", table)

    def marginal(self, context: Context | Iterable[Label]) -> ContextDistribution:
        ctx = context if isinstance(context, Context) else Context(context)
        out: dict[Assignment, Fraction] = {}
        for g, w in self.weights.items():
            r = g.restrict(ctx.members)
            out[r] = out.get(r, Fraction(0)) + w
        return ContextDistribution(ctx, self.scenario.outcomes, out)

    def realized_model(self) -> EmpiricalModel:
        return EmpiricalModel(
            self.scenario, {c: self.marginal(c) for c in self.scenario.contexts})


def _survivors(incidence: IncidenceMatrix, vector: list[Fraction]) -> list[int]:
    """Columns not forced to zero by a zero-probability row."""
    dead = 0
    for mask, v in zip(incidence.row_masks, vector):
        if v == 0:
            dead |= mask
    return [j for j in range(len(incidence.columns)) if not (dead >> j) & 1]


def find_global_distribution(model: EmpiricalModel) -> GlobalDistribution | None:
    """Exact solution of MX = V with X >= 0, or None when none exists."""
    inc = build_incidence(model.scenario)
    vec = model_vector(model, inc)
    cols = _survivors(inc, vec)
    rows = [(mask, v) for mask, v in zip(inc.row_masks, vec) if v != 0]
    # a positive row all of whose columns died is already infeasible
    for mask, v in rows:
        if all(not (mask >> j) & 1 for j in cols):
            return None
    if not cols:
        return None
    lhs = [[(mask >> j) & 1 for j in cols] for mask, _ in rows]
    rhs = [v for _, v in rows]
    x = exactlp.feasible_equalities(lhs, rhs)
    if x is None:
        return None
    weights = {inc.columns[j]: xj for j, xj in zip(cols, x) if xj}
    return GlobalDistribution(model.scenario, weights)


@dataclass(frozen=True)
class NoncontextualFraction:
    """Exact LP optimum with its subnormalized witness."""

    ncf: Fraction
    witness: Mapping[Assignment, Fraction]

    @property
    def cf(self) -> Fraction:
        return 1 - self.ncf


def noncontextual_fraction(model: EmpiricalModel) -> NoncontextualFraction:
    """max |X| subject to MX <= V, X >= 0, solved exactly."""
    inc = build_incidence(model.scenario)
    vec = model_vector(model, inc)
    cols = _survivors(inc, vec)
    if not cols:
        return NoncontextualFraction(Fraction(0), {})
    lhs = [[(mask >> j) & 1 for j in cols] for mask in inc.row_masks]
    value, x = exactlp.maximize([1] * len(cols), lhs, vec)
    witness = {inc.columns[j]: xj for j, xj in zip(cols, x) if xj}
    return NoncontextualFraction(value, witness)


def contextual_fraction(model: EmpiricalModel) -> Fraction:
    return noncontextual_fraction(model).cf


def global_sections(model: PossibilisticModel | EmpiricalModel) -> tuple[Assignment, ...]:
    """All global assignments consistent with every context's support.

    Backtracking over contexts, tightest supports first; measurements in
    no remaining context are enumerated freely at the end.
    """
    if isinstance(model, EmpiricalModel):
        model = possibilistic_collapse(model)
    scenario = model.scenario
    _check_size(scenario)
    order = sorted(scenario.contexts, key=lambda c: (len(model.supports[c]), c))
    sections: list[Assignment] = []

    def extend(i: int, partial: dict[Label, int]) -> None:
        if i == len(order):
            free = [m for m in scenario.measurements if m not in partial]
            for tail in enumerate_assignments(free, scenario.outcomes) if free else (None,):
                full = dict(partial)
                if tail is not None:
                    full.update(tail.as_dict())
                sections.append(Assignment.from_mapping(full))
            return
        ctx = order[i]
        for s in sorted(model.supports[ctx]):
            vals = s.as_dict()
            if all(partial.get(m, v) == v for m, v in vals.items()):
                nxt = dict(partial)
                nxt.update(vals)
                extend(i + 1, nxt)

    extend(0, {})
    return tuple(sorted(sections))


def is_strongly_contextual(model: PossibilisticModel | EmpiricalModel) -> bool:
    return not global_sections(model)


def logically_contextual_at(model: PossibilisticModel | EmpiricalModel,
                            context: Context | Iterable[Label],
                            s: Assignment) -> bool:
    """Is a possible local outcome missed by every global section?"""
    if isinstance(model, EmpiricalModel):
        model = possibilistic_collapse(model)
    ctx = context if isinstance(context, Context) else Context(context)
    if s not in model.supports[ctx]:
        raise ValidationError(f"{s} is not in the support at {ctx}")
    return not any(g.restrict(ctx.members) == s for g in global_sections(model))


def is_logically_contextual(model: PossibilisticModel | EmpiricalModel) -> bool:
    """Does any context hold a possible outcome with no global extension?"""
    if isinstance(model, EmpiricalModel):
        model = possibilistic_collapse(model)
    reachable: dict[Context, set[Assignment]] = {c: set() for c in model.scenario.contexts}
    for g in global_sections(model):
        for c in model.scenario.contexts:
            reachable[c].add(g.restrict(c.members))
    return any(model.supports[c] - reachable[c] for c in model.scenario.contexts)


# ------------------------------------------------- hidden-variable models

@dataclass(frozen=True)
class HiddenVariableModel:
    """Prior over hidden values with per-value, per-context response tables."""

    scenario: MeasurementScenario
    values: tuple[Hashable, ...]
    prior: Mapping[Hashable, Fraction]
    conditionals: Mapping[tuple[Hashable, Context], ContextDistribution]

    def __init__(self, scenario, values, prior, conditionals):
        values = tuple(values)
        if sorted(prior) != sorted(values):
            raise ValidationError("prior must weight exactly the hidden values")
        if any(w < 0 for w in prior.values()) or sum(prior.values()) != 1:
            raise ValidationError("prior must be a distribution")
        for lam in values:
            for ctx in scenario.contexts:
                if (lam, ctx) not in conditionals:
                    raise ValidationError(f"missing conditional for ({lam}, {ctx})")
        object.__setattr__(self, "scenario", scenario)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "prior", dict(prior))
        object.__setattr__(self, "conditionals", dict(conditionals))

    def realized_model(self) -> EmpiricalModel:
        """Average the response tables against the prior."""
        rows = {}
        for ctx in self.scenario.contexts:
            weights: dict[Assignment, Fraction] = {}
            for lam in self.values:
                p = self.prior[lam]
                if p == 0:
                    continue
                for s, w in self.conditionals[(lam, ctx)].weights.items():
                    weights[s] = weights.get(s, Fraction(0)) + p * w
            rows[ctx] = ContextDistribution(ctx, self.scenario.outcomes, weights)
        return EmpiricalModel(self.scenario, rows)


def to_hidden_variable(dist: GlobalDistribution) -> HiddenVariableModel:
    """Canonical factorisable model: hidden values are global assignments.

    The prior is the distribution itself; responses are deterministic
    point masses at the restriction.
    """
    scenario = dist.scenario
    values = tuple(sorted(dist.weights))
    conditionals = {}
    for lam in values:
        for ctx in scenario.contexts:
            point = lam.restrict(ctx.members)
            conditionals[(lam, ctx)] = ContextDistribution(
                ctx, scenario.outcomes, {point: Fraction(1)})
    return HiddenVariableModel(scenario, values, dict(dist.weights), conditionals)


def from_hidden_variable(hv: HiddenVariableModel) -> GlobalDistribution:
    """Collapse a factorisable hidden-variable model to a global distribution.

    Requires every response table to factor over its context's
    measurements and the single-measurement responses to agree across
    contexts; violations raise with the offending site.
    """
    scenario = hv.scenario
    single: dict[tuple[Hashable, Label], dict[int, Fraction]] = {}
    for lam in hv.values:
        for ctx in scenario.contexts:
            dist = hv.conditionals[(lam, ctx)]
            margs = {m: dist.marginal((m,)) for m in ctx.members}
            for s, w in dist.weights.items():
                prod = Fraction(1)
                for m in ctx.members:
                    prod *= margs[m].weights[s.restrict((m,))]
                if prod != w:
                    raise ValidationError(
                        f"response at ({lam}, {ctx}) does not factor at {s}")
            for m in ctx.members:
                table = {s.values[0]: w for s, w in margs[m].weights.items()}
                key = (lam, m)
                if key in single and single[key] != table:
                    raise ValidationError(
                        f"hidden value {lam} signals at measurement {m}")
                single[key] = table
    weights: dict[Assignment, Fraction] = {}
    for g in enumerate_assignments(scenario.measurements, scenario.outcomes):
        total = Fraction(0)
        for lam in hv.values:
            p = hv.prior[lam]
            if p == 0:
                continue
            for m, v in zip(g.labels, g.values):
                p *= single[(lam, m)][v]
                if p == 0:
                    break
            total += p
        if total:
            weights[g] = total
    return GlobalDistribution(scenario, weights)


def signed_global_solution(model: EmpiricalModel) -> dict[Assignment, Fraction] | None:
    """Solve MX = V over the rationals with no sign constraint.

    Plain Gaussian elimination; no-signaling models always admit one.
    """
    inc = build_incidence(model.scenario)
    vec = model_vector(model, inc)
    n = len(inc.columns)
    rows = [[Fraction((mask >> j) & 1) for j in range(n)] + [v]
            for mask, v in zip(inc.row_masks, vec)]
    pivots: dict[int, list[Fraction]] = {}
    for row in rows:
        for col, prow in pivots.items():
            if row[col]:
                f = row[col]
                row[:] = [a - f * b for a, b in zip(row, prow)]
        lead = next((j for j in range(n) if row[j]), None)
        if lead is None:
            if row[-1] != 0:
                return None
            continue
        row[:] = [v / row[lead] for v in row]
        for col, prow in pivots.items():
            if prow[lead]:
                f = prow[lead]
                prow[:] = [a - f * b for a, b in zip(prow, row)]
        pivots[lead] = row
    solution = {inc.columns[j]: prow[-1] for j, prow in pivots.items() if prow[-1]}
    return solution
