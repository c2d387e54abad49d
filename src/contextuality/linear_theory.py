"""Parity equation theories over the outcomes of a scenario.

An equation asserts that the mod-2 sum of selected outcomes inside one
context equals a constant. The theory of supports extracts every equation
a model's possible outcomes obey; inconsistency of that theory is an
all-versus-nothing argument: no global outcome assignment satisfies what
the supports jointly certify.

A theory holds its equations as bits: one tuple of rows per context, in
the scenario's context order. An equation on a context of k members is the
row ``r | a << k``, where bit i of r flags the context's i-th member and
``a`` is the constant. Each context keeps the reduced echelon basis of its
rows, ordered by falling pivot (lowest set bit), which is ascending
coefficient order with 0 = 1 first. Both validating constructors make
that canonical form on one reducing path, so equality of theories is
equality of rows. ``LinearTheory.unchecked`` takes rows already in that
form, as the Pauli parity pass emits them, and neither reduces nor checks
them. ``LinearEquation`` objects are built only where a caller reads
them: ``equations`` and the certificates of ``is_consistent``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from . import gf2
from .empirical import EmpiricalModel, PossibilisticModel
from .errors import ValidationError
from .scenario import Assignment, Context, MeasurementScenario


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

    def row(self) -> int:
        """The equation as the row ``r | constant << k``."""
        r = sum(c << i for i, c in enumerate(self.coefficients))
        return r | self.constant << len(self.coefficients)

    def render(self) -> str:
        return _render(self.context, self.row())

    def __str__(self) -> str:
        return self.render()


def _equation(context: Context, row: int) -> LinearEquation:
    k = len(context)
    return LinearEquation(context, (row >> i & 1 for i in range(k)), row >> k)


def _render_rows(context: Context, rows: Iterable[int]) -> list[str]:
    """Each row over the context as ``s(a) + s(b) = c``: the terms are built
    once per context, and each row's set bits pick its terms."""
    terms = [f"s({m})" for m in context.members]
    k = len(terms)
    out = []
    for row in rows:
        flagged, bits = [], row & (1 << k) - 1
        while bits:
            flagged.append(terms[(bits & -bits).bit_length() - 1])
            bits &= bits - 1
        out.append(f"{' + '.join(flagged) or '0'} = {row >> k}")
    return out


def _render(context: Context, row: int) -> str:
    return _render_rows(context, (row,))[0]


def satisfies(assignment: Assignment, equation: LinearEquation) -> bool:
    """Does an assignment covering the equation's context satisfy it?"""
    total = 0
    for m, c in zip(equation.context.members, equation.coefficients):
        if c:
            total ^= assignment[m] & 1
    return total == equation.constant


@dataclass(frozen=True)
class LinearTheory:
    """Parity equations over one scenario, held as each context's reduced rows."""

    scenario: MeasurementScenario
    rows: tuple[tuple[int, ...], ...]

    def __init__(self, scenario: MeasurementScenario, equations: Iterable[LinearEquation]):
        index = {ctx: i for i, ctx in enumerate(scenario.contexts)}
        rows: list[list[int]] = [[] for _ in scenario.contexts]
        for eq in equations:
            if eq.context not in index:
                raise ValidationError(f"equation on {eq.context} outside the cover")
            rows[index[eq.context]].append(eq.row())
        self._set_rows(scenario, rows)

    @classmethod
    def from_rows(cls, scenario: MeasurementScenario,
                  rows_per_context: Iterable[Iterable[int]]) -> "LinearTheory":
        """The theory of rows ``r | a << k`` given per context, in the
        scenario's context order; the rows need not be reduced or independent."""
        theory = object.__new__(cls)
        theory._set_rows(scenario, rows_per_context)
        return theory

    def _set_rows(self, scenario: MeasurementScenario,
                  rows_per_context: Iterable[Iterable[int]]) -> None:
        if scenario.ring != "Z2":
            raise ValidationError("parity equations need a Z2-ringed scenario")
        # the constant rides in bit k: a row reducing to 0 drops out, and one
        # with its pivot there is 0 = 1, which is kept and comes first
        rows = tuple(tuple(reversed(gf2.rref(list(r))[0])) for r in rows_per_context)
        if len(rows) != len(scenario.contexts):
            raise ValidationError(f"{len(rows)} row lists for {len(scenario.contexts)} contexts")
        object.__setattr__(self, "scenario", scenario)
        object.__setattr__(self, "rows", rows)

    @classmethod
    def unchecked(cls, scenario: MeasurementScenario,
                  rows: tuple[tuple[int, ...], ...]) -> "LinearTheory":
        """The theory holding ``rows`` as they are: one tuple per context of
        a Z2 scenario, each already reduced and in falling-pivot order.

        ``pauli.state_independent_theory`` vouches for its input: its
        ``_parity_rows`` emit each context's rows in that form. Nothing read
        from a user reaches it; ``from_rows`` reduces and checks those."""
        theory = object.__new__(cls)
        object.__setattr__(theory, "scenario", scenario)
        object.__setattr__(theory, "rows", rows)
        return theory

    def _entries(self) -> list[tuple[Context, int]]:
        """The context and row of every equation, in canonical order."""
        return [(ctx, row) for ctx, rows in zip(self.scenario.contexts, self.rows) for row in rows]

    @property
    def equations(self) -> tuple[LinearEquation, ...]:
        """Every row as a LinearEquation, built on each read."""
        return tuple(_equation(ctx, row) for ctx, row in self._entries())

    def render(self) -> list[str]:
        """What ``render`` gives for each of ``equations``, read off the rows."""
        out = []
        for ctx, rows in zip(self.scenario.contexts, self.rows):
            if rows:
                out += _render_rows(ctx, rows)
        return out

    def __len__(self) -> int:
        return sum(map(len, self.rows))

    def _context_rows(self, context: Context) -> tuple[int, ...]:
        return dict(zip(self.scenario.contexts, self.rows)).get(context, ())

    def implies(self, equation: LinearEquation) -> bool:
        """Is the equation in the span of its context's basis?"""
        # the basis is reduced, so each row clears the equation's bit at its pivot
        row = equation.row()
        for basis_row in self._context_rows(equation.context):
            if row >> gf2.lowest_bit(basis_row) & 1:
                row ^= basis_row
        return row == 0


def theory_of_supports(model: EmpiricalModel | PossibilisticModel) -> LinearTheory:
    """All parity equations every possible outcome of each context obeys.

    Per context this is the annihilator of the support vectors augmented
    with a constant coordinate. An empirical model's support is read off
    its nonzero weights, with no possibilistic model built.
    """
    scenario = model.scenario
    rows = []
    for ctx in scenario.contexts:
        if isinstance(model, EmpiricalModel):
            support = [s for s, w in model.rows[ctx].weights.items() if w]
        else:
            support = model.supports[ctx]
        k = len(ctx)
        vectors = [sum((v & 1) << i for i, v in enumerate(s.values)) | 1 << k for s in support]
        rows.append(gf2.nullspace(vectors, k + 1))
    return LinearTheory.from_rows(scenario, rows)


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
    pass would give: the basis never replaces its first conflict. Only the
    certificate's rows become LinearEquations.
    """
    labels = theory.scenario.measurements
    index = {m: i for i, m in enumerate(labels)}
    system = gf2.AffineBasis(len(labels))
    for ctx, rows in zip(theory.scenario.contexts, theory.rows):
        if not rows:
            continue
        k, bits = len(ctx), [1 << index[m] for m in ctx.members]
        for row in rows:
            coef, flagged = 0, row & (1 << k) - 1
            while flagged:
                coef |= bits[(flagged & -flagged).bit_length() - 1]
                flagged &= flagged - 1
            system.add(coef, row >> k)
            if system.conflict is not None:
                cert = tuple(_equation(c, r) for i, (c, r) in enumerate(theory._entries())
                             if system.conflict >> i & 1)
                return ConsistencyResult(False, None, cert)
    sol = system.solution()
    values = tuple((sol >> i) & 1 for i in range(len(labels)))
    return ConsistencyResult(True, Assignment(labels, values), None)


def is_avn(model: EmpiricalModel | PossibilisticModel) -> bool:
    """All-versus-nothing: the support theory admits no global assignment."""
    return not is_consistent(theory_of_supports(model)).consistent
