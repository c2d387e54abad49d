"""Global distributions, the noncontextual fraction, and global sections.

The incidence matrix M has a row per (context, local assignment) pair and a
column per global assignment, with a 1 where the global restricts to the
local. Rows are bitmasks over the columns; column j holds the outcomes
given by the base-d digits of j, the last measurement least significant.
A model vector V stacks the context tables in the same row order.

* max |X| with MX <= V, X >= 0 is the noncontextual fraction; 1 - it is
  the contextual fraction.
* MX = V with X >= 0 solvable  <->  noncontextual  <->  the fraction is 1.

A row is dead when its outcome is impossible: weight 0, or outside the
support. Every verdict starts from one mask, the columns that no dead row
kills. Those columns are exactly the global sections, so the model is
strongly contextual when the mask is empty and logically contextual when
some possible row misses every survivor. The LP sees only the surviving
columns, which is also why strongly contextual models resolve without
simplex work. Everything is exact.

The hidden-variable conversions realize the equivalence between global
distributions and factorisable hidden-variable models: the canonical
hidden variable ranges over global assignments themselves.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from typing import Hashable, Iterable, Mapping

from . import exactlp
from .empirical import (
    ContextDistribution,
    EmpiricalModel,
    PossibilisticModel,
)
from .errors import SizeLimitError, ValidationError
from .scenario import (
    Assignment,
    Context,
    Label,
    MeasurementScenario,
    enumerate_assignments,
)

GLOBAL_LIMIT = 1 << 20  # refuse incidence builds above this many columns


@dataclass(frozen=True)
class Columns(Sequence):
    """The global assignments in column order, each decoded when read.

    Column j holds the outcomes given by the base-d digits of j, the last
    measurement least significant, so a verdict that reads no column
    builds no assignment.
    """

    measurements: tuple[Label, ...]
    outcomes: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.outcomes) ** len(self.measurements)

    def __getitem__(self, j: int) -> Assignment:
        n = len(self)
        if j < 0:
            j += n
        if not 0 <= j < n:
            raise IndexError("column index out of range")
        d = len(self.outcomes)
        digits = []
        for _ in self.measurements:
            j, v = divmod(j, d)
            digits.append(v)
        return Assignment(self.measurements, digits[::-1])


@dataclass(frozen=True)
class IncidenceMatrix:
    """0/1 restriction matrix, rows as bitmasks over the column order."""

    scenario: MeasurementScenario
    row_index: tuple[tuple[Context, Assignment], ...]
    columns: Columns
    row_masks: tuple[int, ...]

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.row_index), len(self.columns)


def build_incidence(scenario: MeasurementScenario) -> IncidenceMatrix:
    """Assemble M in canonical row and column enumeration order.

    The columns where measurement i reads v repeat with period d * run,
    run = d ** (m - 1 - i): a block of run ones at offset v * run. A row's
    mask is the AND of its members' patterns.
    """
    d, m = len(scenario.outcomes), len(scenario.measurements)
    if d ** m > GLOBAL_LIMIT:
        raise SizeLimitError(
            f"{d ** m} global assignments exceed the {GLOBAL_LIMIT} column limit")
    full = (1 << d ** m) - 1
    pattern = {}
    for i, label in enumerate(scenario.measurements):
        run = d ** (m - 1 - i)
        tile = full // ((1 << d * run) - 1)
        for v in scenario.outcomes:
            pattern[label, v] = (((1 << run) - 1) << v * run) * tile
    row_index = []
    row_masks = []
    for ctx in scenario.contexts:
        for s in enumerate_assignments(ctx.members, scenario.outcomes):
            mask = full
            for label, v in zip(s.labels, s.values):
                mask &= pattern[label, v]
            row_index.append((ctx, s))
            row_masks.append(mask)
    return IncidenceMatrix(scenario, tuple(row_index),
                           Columns(scenario.measurements, scenario.outcomes),
                           tuple(row_masks))


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


def _survivors(incidence: IncidenceMatrix, live: Iterable[object]) -> int:
    """Mask of the columns that no dead row kills; ``live`` is falsy at dead rows."""
    dead = 0
    for mask, alive in zip(incidence.row_masks, live):
        if not alive:
            dead |= mask
    return ((1 << len(incidence.columns)) - 1) & ~dead


def _bits(mask: int) -> list[int]:
    """Indices of the set bits of ``mask``, ascending."""
    return [j for j, b in enumerate(bin(mask)[:1:-1]) if b == "1"]


def find_global_distribution(model: EmpiricalModel) -> GlobalDistribution | None:
    """Exact solution of MX = V with X >= 0, or None when none exists.

    It is the noncontextual fraction's witness when the fraction is 1:
    MX <= V, X >= 0 and |X| = 1 force MX = V, because each context's rows
    partition the columns and V sums to 1 on each context."""
    res = noncontextual_fraction(model)
    return GlobalDistribution(model.scenario, res.witness) if res.ncf == 1 else None


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
    cols = _bits(_survivors(inc, vec))
    if not cols:
        return NoncontextualFraction(Fraction(0), {})
    lhs = [[(mask >> j) & 1 for j in cols] for mask in inc.row_masks]
    value, x = exactlp.maximize([1] * len(cols), lhs, vec)
    witness = {inc.columns[j]: xj for j, xj in zip(cols, x) if xj}
    return NoncontextualFraction(value, witness)


def contextual_fraction(model: EmpiricalModel) -> Fraction:
    return noncontextual_fraction(model).cf


def _sections(model: PossibilisticModel | EmpiricalModel) -> tuple[IncidenceMatrix, list[bool], int]:
    """The incidence, which rows are possible, and the surviving-column mask."""
    inc = build_incidence(model.scenario)
    if isinstance(model, EmpiricalModel):
        live = [w > 0 for w in model_vector(model, inc)]
    else:
        live = [s in model.supports[ctx] for ctx, s in inc.row_index]
    return inc, live, _survivors(inc, live)


def global_sections(model: PossibilisticModel | EmpiricalModel) -> tuple[Assignment, ...]:
    """All global assignments consistent with every context's support, sorted."""
    inc, _, alive = _sections(model)
    return tuple(inc.columns[j] for j in _bits(alive))


def global_section_count(model: PossibilisticModel | EmpiricalModel) -> int:
    """``len(global_sections(model))``, counted without decoding a column."""
    return _sections(model)[2].bit_count()


def is_strongly_contextual(model: PossibilisticModel | EmpiricalModel) -> bool:
    return not _sections(model)[2]


def logically_contextual_at(model: PossibilisticModel | EmpiricalModel,
                            context: Context | Iterable[Label],
                            s: Assignment) -> bool:
    """Is a possible local outcome missed by every global section?"""
    ctx = context if isinstance(context, Context) else Context(context)
    if ctx not in model.scenario.contexts:
        raise ValidationError(f"{ctx} is not a context of the scenario")
    inc, live, alive = _sections(model)
    for row, mask, possible in zip(inc.row_index, inc.row_masks, live):
        if possible and row == (ctx, s):
            return not mask & alive
    raise ValidationError(f"{s} is not in the support at {ctx}")


def is_logically_contextual(model: PossibilisticModel | EmpiricalModel) -> bool:
    """Does any context hold a possible outcome with no global extension?"""
    inc, live, alive = _sections(model)
    return any(possible and not mask & alive
               for mask, possible in zip(inc.row_masks, live))


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
