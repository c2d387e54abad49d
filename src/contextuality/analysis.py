"""Global distributions, the noncontextual fraction, and global sections.

The incidence matrix M has a row per (context, local assignment) pair and a
column per global assignment, with a 1 where the global restricts to the
local. Rows are bitmasks over the columns; column j holds the outcomes
given by the base-d digits of j, the last measurement least significant.
A context's rows take the same digit order over its members; the row and
column assignments are decoded only when read, so building M builds none.
A model vector V stacks the context tables, each stored in that order.

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

``grade`` makes the one pass every verdict reads: the incidence, V, the
live rows and the survivor mask, built once per model into a ``Grading``.
``analyze`` grades a model once for all its incidence checks, and the
public verdict functions are wrappers that grade and read one verdict.
The LP's rows are never written cell by cell: the surviving rows' masks
are unpacked by one ``np.unpackbits`` and the surviving columns selected,
and ``exactlp.maximize`` takes those integer rows as they are.

The hidden-variable conversions realize the equivalence between global
distributions and factorisable hidden-variable models: the canonical
hidden variable ranges over global assignments themselves.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Hashable, Iterable, Mapping

import numpy as np

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
    unchecked_assignments,
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
        j = range(len(self))[j]  # negative j counts from the end; IndexError past it
        d, m = len(self.outcomes), len(self.measurements)
        values = tuple(j // d ** k % d for k in range(m - 1, -1, -1))
        return unchecked_assignments(self.measurements, [values])[0]


@dataclass(frozen=True)
class IncidenceMatrix:
    """0/1 restriction matrix: row masks over the column order, whose row and
    column assignments are decoded only when read."""

    scenario: MeasurementScenario
    columns: Columns
    row_masks: tuple[int, ...]

    @property
    def row_index(self) -> tuple[tuple[Context, Assignment], ...]:
        """The (context, local assignment) pair of each row."""
        return tuple((ctx, s) for ctx in self.scenario.contexts
                     for s in enumerate_assignments(ctx.members, self.scenario.outcomes))

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.row_masks), len(self.columns)


def build_incidence(scenario: MeasurementScenario) -> IncidenceMatrix:
    """Assemble M in canonical row and column enumeration order.

    The columns where measurement i reads v repeat with period d * run,
    run = d ** (m - 1 - i): a block of run ones at offset v * run. A row's
    mask is the AND of its members' patterns, so a context's masks are the
    product of its members' patterns, taken in row order.
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
    row_masks = []
    for ctx in scenario.contexts:
        masks = [full]
        for label in ctx.members:
            masks = [mask & pattern[label, v] for mask in masks for v in scenario.outcomes]
        row_masks += masks
    return IncidenceMatrix(scenario, Columns(scenario.measurements, scenario.outcomes),
                           tuple(row_masks))


def model_vector(model: EmpiricalModel) -> list[Fraction]:
    """V in the incidence row order, which is each context's table order."""
    return [w for ctx in model.scenario.contexts for w in model.rows[ctx].weights.values()]


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


def _mask_rows(masks: Sequence[int], n: int) -> np.ndarray:
    """The masks as 0/1 rows of n uint8 columns, bit j in column j, unpacked
    at once from their little-endian bytes."""
    width = (n + 7) // 8
    raw = b"".join(mask.to_bytes(width, "little") for mask in masks)
    packed = np.frombuffer(raw, dtype=np.uint8).reshape(len(masks), width)
    return np.unpackbits(packed, axis=1, count=n, bitorder="little")


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


@dataclass(frozen=True)
class Grading:
    """What every incidence verdict on one model reads, built once: the
    incidence, the model vector (None for a possibilistic model), the rows'
    liveness, falsy at dead rows (the model vector itself for an empirical
    model), and the mask of surviving columns."""

    incidence: IncidenceMatrix
    vector: list[Fraction] | None
    live: Sequence[object]
    alive: int

    def noncontextual_fraction(self) -> NoncontextualFraction:
        """max |X| subject to MX <= V, X >= 0 over the surviving columns."""
        inc, alive = self.incidence, self.alive
        if not alive:
            return NoncontextualFraction(Fraction(0), {})
        # a row zero over the surviving columns never enters the ratio test, so
        # dropping it keeps Bland's pivots and the vertex
        keep = [i for i, mask in enumerate(inc.row_masks) if mask & alive]
        bits = _mask_rows([inc.row_masks[i] for i in keep] + [alive], len(inc.columns))
        cols = np.flatnonzero(bits[-1])
        # a list of 1-D integer rows, which maximize takes without reading a cell
        lhs = list(bits[:-1, cols])
        value, x = exactlp.maximize([1] * len(cols), lhs, [self.vector[i] for i in keep])
        witness = {inc.columns[j]: xj for j, xj in zip(cols.tolist(), x) if xj}
        return NoncontextualFraction(value, witness)

    def is_strongly_contextual(self) -> bool:
        return not self.alive

    def is_logically_contextual(self) -> bool:
        alive = self.alive
        return any(possible and not mask & alive
                   for mask, possible in zip(self.incidence.row_masks, self.live))

    def global_section_count(self) -> int:
        return self.alive.bit_count()


def grade(model: PossibilisticModel | EmpiricalModel) -> Grading:
    """Build the incidence once and read which rows live off the model."""
    inc = build_incidence(model.scenario)
    if isinstance(model, EmpiricalModel):
        vector = live = model_vector(model)
    else:
        vector, live = None, []
        for ctx in model.scenario.contexts:
            support = {s.values for s in model.supports[ctx]}
            live += [vals in support
                     for vals in product(model.scenario.outcomes, repeat=len(ctx))]
    return Grading(inc, vector, live, _survivors(inc, live))


def noncontextual_fraction(model: EmpiricalModel) -> NoncontextualFraction:
    """max |X| subject to MX <= V, X >= 0, solved exactly."""
    return grade(model).noncontextual_fraction()


def global_sections(model: PossibilisticModel | EmpiricalModel) -> tuple[Assignment, ...]:
    """All global assignments consistent with every context's support, sorted."""
    g = grade(model)
    return tuple(g.incidence.columns[j] for j in _bits(g.alive))


def global_section_count(model: PossibilisticModel | EmpiricalModel) -> int:
    """``len(global_sections(model))``, counted without decoding a column."""
    return grade(model).global_section_count()


def is_strongly_contextual(model: PossibilisticModel | EmpiricalModel) -> bool:
    return grade(model).is_strongly_contextual()


def is_logically_contextual(model: PossibilisticModel | EmpiricalModel) -> bool:
    """Does any context hold a possible outcome with no global extension?"""
    return grade(model).is_logically_contextual()


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
        # hidden values need only hash, so they are compared as sets
        if len(set(values)) != len(values):
            raise ValidationError("hidden values must be distinct")
        if set(prior) != set(values):
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
