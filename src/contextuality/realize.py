"""Realizing empirical models from quantum states by the Born rule.

A state is a nonzero vector of Gaussian-rational amplitudes on up to 10
qubits and stands for its ray: ints, floats (each the dyadic rational it
stores) and decimal or "a/b" strings are taken exactly, never rounded or
normalized. A context of k commuting Hermitian Paulis is measured through
its 2^k subset products P_T, the products of the members in each subset
T; eigenvalue +1 records outcome 0 and -1 records outcome 1, so that

    p(s) = 2^-k sum_T (-1)^(s.T) <psi|P_T|psi> / <psi|psi>.

One engine evaluates this Walsh-Hadamard transform on amplitudes scaled to
Gaussian integers, where every expectation is an exact integer, and builds
Fractions only for the final weights: every Pauli row is exact. A state is
scaled once, and every context of a scenario reads the same integers. Context
eigenstates come from the same projector 2^-k sum_T (-1)^(s.T) P_T
applied to basis vectors.

Floats enter only with equatorial observables cos(a) X + sin(a) Y on
distinct parties, whose subset products expand into X/Y Pauli words with
cos/sin weights. These rows are snapped to the nearest rational with
denominator at most 2^16. If any weight sits further than 1e-12 from such
a rational, or the snapped weights do not sum to exactly 1, the row is
float-tagged instead and never enters the exact analysis stack. Best
approximations with such denominators are usually within 2^-32 of a
float, so a looser residual would snap almost any row.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from itertools import product
from typing import Mapping, Sequence

from .empirical import ContextDistribution, EmpiricalModel
from .errors import (
    NonCommutingContextError,
    ParseError,
    SizeLimitError,
    ValidationError,
)
from .pauli import PauliOperator
from .scenario import Assignment, Context, Label, MeasurementScenario

QUBIT_LIMIT = 10
MAX_DENOMINATOR = 1 << 16
RESIDUAL_TOLERANCE = 1e-12

RationalAmplitude = tuple[Fraction, Fraction]


def _check_qubits(num_qubits: int) -> None:
    # before any list of 2^n amplitudes is built
    if num_qubits < 1 or num_qubits > QUBIT_LIMIT:
        raise SizeLimitError(f"statevectors support 1..{QUBIT_LIMIT} qubits")


def _amplitude(value: object) -> RationalAmplitude:
    parts = (value.real, value.imag) if isinstance(value, complex) else value
    parts = parts if isinstance(parts, (tuple, list)) else (parts, 0)
    if len(parts) != 2 or not all(isinstance(q, (int, float, Fraction)) for q in parts):
        raise ValidationError(f"amplitude {value!r} is not a number or an (re, im) pair")
    if any(isinstance(q, float) and not math.isfinite(q) for q in parts):
        raise ValidationError("state amplitudes must be finite")
    return Fraction(parts[0]), Fraction(parts[1])


class StateVector:
    """A nonzero vector on n qubits, standing for its ray.

    Qubit 0 is the most significant index bit. Each amplitude is an int,
    float, complex or Fraction, or an (re, im) pair of reals, and is kept
    exactly as a (Fraction, Fraction) pair; nothing is normalized.
    """

    def __init__(self, num_qubits: int, amplitudes: Sequence):
        _check_qubits(num_qubits)
        amps = tuple(_amplitude(a) for a in amplitudes)
        if len(amps) != 1 << num_qubits:
            raise ValidationError(f"{len(amps)} amplitudes for {num_qubits} qubits")
        if not any(re or im for re, im in amps):
            raise ValidationError("zero state")
        self.num_qubits = num_qubits
        self.amplitudes: tuple[RationalAmplitude, ...] = amps

    def __repr__(self) -> str:
        return f"StateVector(num_qubits={self.num_qubits})"


def ghz(num_qubits: int) -> StateVector:
    """|0...0> + |1...1>."""
    _check_qubits(num_qubits)
    return StateVector(num_qubits, [1] + [0] * ((1 << num_qubits) - 2) + [1])


def plus(num_qubits: int) -> StateVector:
    """The all-ones vector, |+> on every qubit."""
    _check_qubits(num_qubits)
    return StateVector(num_qubits, [1] * (1 << num_qubits))


def basis_state(num_qubits: int, index: int = 0) -> StateVector:
    _check_qubits(num_qubits)
    if index < 0 or index >= 1 << num_qubits:
        raise ValidationError(f"basis index {index} outside {num_qubits} qubits")
    return StateVector(num_qubits, [int(i == index) for i in range(1 << num_qubits)])


def bell_phi_plus() -> StateVector:
    return ghz(2)


_STATE_PATTERN = re.compile(r"^(ghz|plus|basis)(\d+)$")


def canonical_state(name: str) -> StateVector:
    """Named states: ``bell_phi_plus``, ``ghzN``, ``plusN``, ``basisN``."""
    if name == "bell_phi_plus":
        return bell_phi_plus()
    m = _STATE_PATTERN.match(name)
    if not m:
        raise ParseError(f"unknown state name {name!r}")
    kind, n = m.group(1), int(m.group(2))
    if kind == "ghz":
        return ghz(n)
    if kind == "plus":
        return plus(n)
    return basis_state(n)


@dataclass(frozen=True)
class EquatorialMeasurement:
    """cos(angle) X + sin(angle) Y on one party's qubit."""

    party: int
    angle: float


@dataclass(frozen=True)
class FloatDistribution:
    """A context row that refused exactification; carries its residual."""

    context: Context
    weights: Mapping[Assignment, float]
    residual: float

    exact = False


@dataclass(frozen=True)
class FloatEmpiricalModel:
    """A realized model with at least one float-tagged row."""

    scenario: MeasurementScenario
    rows: Mapping[Context, ContextDistribution | FloatDistribution]

    exact = False


def _index_mask(op_mask: int, num_qubits: int) -> int:
    """Qubit-bit mask to basis-index mask (qubit 0 = leftmost = MSB)."""
    return sum(1 << (num_qubits - 1 - j) for j in range(num_qubits) if (op_mask >> j) & 1)


def _check_context(ops: Sequence[PauliOperator], num_qubits: int) -> None:
    for op in ops:
        if op.num_qubits != num_qubits:
            raise ValidationError(f"{op} does not act on {num_qubits} qubits")
        if not op.is_hermitian():
            raise ValidationError(f"{op} is not an observable")
    for i, a in enumerate(ops):
        for b in ops[i + 1:]:
            if not a.commutes(b):
                raise NonCommutingContextError(f"{a} and {b} do not commute")


def _subset_products(ops: Sequence[PauliOperator], num_qubits: int) -> list[PauliOperator]:
    """P_T for every subset T of ``ops``; bit j of T selects ``ops[j]``."""
    prods = [PauliOperator(num_qubits, 0, 0, 0)]
    for op in ops:
        prods += [p * op for p in prods]
    return prods


def _expectation(op: PauliOperator, re: Sequence[int], im: Sequence[int]) -> int:
    """<psi|op|psi> over parallel real and imaginary Gaussian-integer parts.

    op|i> = i^phase (-1)^|i & z| |i ^ x> in index masks; the value is real
    for Hermitian op, so only the real part of the phased sum is formed.
    """
    n = op.num_qubits
    xm, zm = _index_mask(op.x, n), _index_mask(op.z, n)
    odd = op.phase & 1
    total = 0
    for i in range(len(re)):
        j = i ^ xm
        term = re[j] * im[i] - im[j] * re[i] if odd else re[j] * re[i] + im[j] * im[i]
        total += -term if (i & zm).bit_count() & 1 else term
    return -total if op.phase in (1, 2) else total


def _gaussian_integers(amplitudes: Sequence) -> tuple[list[int], list[int]]:
    """Real and imaginary parts, read as Fractions, scaled by one common denominator."""
    vec = [(Fraction(re), Fraction(im)) for re, im in amplitudes]
    lcd = math.lcm(*(q.denominator for pair in vec for q in pair))
    return [int(a * lcd) for a, _ in vec], [int(b * lcd) for _, b in vec]


def _walsh(context: Context, w: list) -> zip:
    """(s, sum_T (-1)^(s.T) w[T]) per joint outcome s, the first member its top bit."""
    h = 1
    while h < len(w):
        w = [w[i] + w[i ^ h] if not i & h else w[i ^ h] - w[i] for i in range(len(w))]
        h <<= 1
    return zip((Assignment(context.members, outs)
                for outs in product((0, 1), repeat=len(context.members))), w)


def _born_row(re: Sequence[int], im: Sequence[int], context: Context,
              ordered: Sequence[PauliOperator]) -> dict[Assignment, Fraction]:
    """p(s) = 2^-k sum_T (-1)^(s.T) <P_T> / <psi|psi> for every outcome s."""
    # reversed, so that bit j of T selects the member k-1-j, as _walsh reads T
    w = [_expectation(p, re, im)
         for p in _subset_products(ordered[::-1], ordered[0].num_qubits)]
    scale = len(w) * w[0]  # P_T for the empty T is the identity
    return {s: Fraction(v, scale) for s, v in _walsh(context, w)}


def _sorted_context(ops: Sequence, labels: Sequence[Label] | None) -> tuple[Context, list]:
    """The context of ``labels``, by default the strings of ``ops``, and ``ops`` in its order."""
    labs = [str(op) for op in ops] if labels is None else list(labels)
    if len(labs) != len(ops) or len(set(labs)) != len(labs):
        raise ValidationError("labels must be distinct and match the observables")
    pairs = sorted(zip(labs, ops))
    return Context(labs), [p[1] for p in pairs]


def _exactify(context: Context, outcomes, float_weights: dict[Assignment, float]):
    total = sum(float_weights.values())
    if abs(total - 1.0) > 1e-9:
        raise ValidationError(f"probabilities sum to {total}")
    snapped = {s: Fraction(p).limit_denominator(MAX_DENOMINATOR)
               for s, p in float_weights.items()}
    residual = max(abs(p - float(snapped[s])) for s, p in float_weights.items())
    if residual > RESIDUAL_TOLERANCE or sum(snapped.values()) != 1:
        return FloatDistribution(context, float_weights, residual)
    return ContextDistribution(context, outcomes, snapped)


def _pauli_row(re: Sequence[int], im: Sequence[int], ops: Sequence[PauliOperator],
               labels: Sequence[Label] | None) -> ContextDistribution:
    """The Born row of one context on a state already scaled to Gaussian integers."""
    if not ops:
        raise ValidationError("empty context")
    n = ops[0].num_qubits
    if len(re) != 1 << n:
        raise ValidationError(f"{len(re)} amplitudes for {n} qubits")
    if not any(re) and not any(im):
        raise ValidationError("zero state")
    _check_context(ops, n)
    context, ordered = _sorted_context(ops, labels)
    return ContextDistribution(context, (0, 1), _born_row(re, im, context, ordered))


def born_distribution_exact(amplitudes: Sequence[RationalAmplitude],
                            ops: Sequence[PauliOperator],
                            labels: Sequence[Label] | None = None) -> ContextDistribution:
    """All-rational Born rule; amplitudes need not be normalized."""
    return _pauli_row(*_gaussian_integers(amplitudes), ops, labels)


def realize_model_exact(amplitudes: Sequence[RationalAmplitude],
                        scenario: MeasurementScenario) -> EmpiricalModel:
    """Exact realization of a Pauli-labeled scenario from rational amplitudes."""
    re, im = _gaussian_integers(amplitudes)
    return EmpiricalModel(scenario, {
        ctx: _pauli_row(re, im, [PauliOperator.from_string(m) for m in ctx.members],
                        ctx.members)
        for ctx in scenario.contexts})


def born_distribution_equatorial(psi: StateVector,
                                 measurements: Sequence[EquatorialMeasurement],
                                 labels: Sequence[Label] | None = None):
    """Joint distribution of one equatorial observable per listed party.

    The product of the members in T is the sum, over each way of reading
    every member as X or Y, of a cos/sin weight times an X/Y Pauli word.
    """
    parties = [m.party for m in measurements]
    if len(set(parties)) != len(parties):
        raise ValidationError("one equatorial measurement per party")
    if any(p < 0 or p >= psi.num_qubits for p in parties):
        raise ValidationError("party index outside the state")
    context, ordered = _sorted_context(
        measurements, [f"m{p}" for p in parties] if labels is None else labels)
    re, im = _gaussian_integers(psi.amplitudes)
    norm = sum(a * a + b * b for a, b in zip(re, im))
    # the weighted words of each P_T, bit j of T selecting the member k-1-j
    terms = [[(1.0, "I" * psi.num_qubits)]]
    for m in ordered[::-1]:
        pick = ((math.cos(m.angle), "X"), (math.sin(m.angle), "Y"))
        terms += [[(c * f, word[:m.party] + letter + word[m.party + 1:])
                   for c, word in words for f, letter in pick] for words in terms]
    w = [sum(c * (_expectation(PauliOperator.from_string(word), re, im) / norm)
             for c, word in words) for words in terms]
    # rounding can leave an impossible outcome slightly below zero
    weights = {s: max(v / len(w), 0.0) for s, v in _walsh(context, w)}
    return _exactify(context, (0, 1), weights)


def realize_model(psi: StateVector, scenario: MeasurementScenario,
                  measurements: Mapping[Label, PauliOperator | EquatorialMeasurement]
                  | None = None):
    """Measure every context of a scenario on one state.

    Labels are interpreted as Pauli strings unless a measurement mapping
    is given. Pauli rows are exact; returns an EmpiricalModel when every
    equatorial row exactifies too, otherwise a FloatEmpiricalModel.
    """
    if scenario.outcomes != (0, 1):
        raise ValidationError("realization targets two-outcome scenarios")
    if measurements is None:
        measurements = {m: PauliOperator.from_string(m) for m in scenario.measurements}
    re, im = _gaussian_integers(psi.amplitudes)
    rows: dict[Context, ContextDistribution | FloatDistribution] = {}
    for ctx in scenario.contexts:
        try:
            ms = [measurements[m] for m in ctx.members]
        except KeyError as exc:
            raise ValidationError(f"no measurement assigned to label {exc.args[0]!r}") from None
        if all(isinstance(m, PauliOperator) for m in ms):
            _check_context(ms, psi.num_qubits)  # names the word that misses the state's qubits
            rows[ctx] = _pauli_row(re, im, ms, ctx.members)
        elif all(isinstance(m, EquatorialMeasurement) for m in ms):
            rows[ctx] = born_distribution_equatorial(psi, ms, labels=ctx.members)
        else:
            raise ValidationError(f"context {ctx} mixes Pauli and equatorial measurements")
    if any(isinstance(row, FloatDistribution) for row in rows.values()):
        return FloatEmpiricalModel(scenario, rows)
    return EmpiricalModel(scenario, rows)


def context_eigenstate(ops: Sequence[PauliOperator],
                       signs: Sequence[int] | None = None
                       ) -> list[RationalAmplitude] | None:
    """A joint eigenstate of commuting observables, with rational amplitudes.

    ``signs[i] = 0`` asks for the +1 eigenspace of ``ops[i]`` and 1 for the
    -1 eigenspace. Returns the projection 2^-k sum_T (-1)^(s.T) P_T |b> of
    the first basis vector |b> it does not annihilate, unnormalized, or
    None when the requested joint eigenspace is empty.
    """
    if not ops:
        raise ValidationError("empty context")
    n = ops[0].num_qubits
    signs = [0] * len(ops) if signs is None else signs
    if len(signs) != len(ops):
        raise ValidationError("one sign per observable")
    _check_context(ops, n)
    # (1 - P)/2 projects on the -1 eigenspace of P: negate, then project on +1
    signed = [op.negate() if s & 1 else op for op, s in zip(ops, signs)]
    terms = [(p.phase, _index_mask(p.x, n), _index_mask(p.z, n))
             for p in _subset_products(signed, n)]
    dim = 1 << n
    for b in range(dim):
        # P_T|b> = i^phase (-1)^|b & z| |b ^ x>, one basis vector per term
        re, im = [0] * dim, [0] * dim
        for phase, xm, zm in terms:
            c = -1 if ((b & zm).bit_count() + phase // 2) & 1 else 1
            (im if phase & 1 else re)[b ^ xm] += c
        if any(re) or any(im):
            return [(Fraction(r, len(terms)), Fraction(m, len(terms)))
                    for r, m in zip(re, im)]
    return None


# ----------------------------------------------------------------- JSON form

def _parse_component(value: object) -> Fraction | int | float:
    """An amplitude part: a number, or a decimal or "a/b" string, read exactly."""
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ParseError(f"malformed amplitude component {value!r}")
    if not isinstance(value, str):
        return value
    if "/" not in value:
        try:
            dec = Decimal(value)
        except ArithmeticError:
            raise ParseError(f"malformed amplitude component {value!r}") from None
        if not dec.is_finite():
            raise ValidationError("state amplitudes must be finite")
        if not dec:
            return Fraction(0)
        # Fraction builds 10**exponent: keep the exponent within the float range
        if not 0 < abs(float(dec)) < math.inf:
            raise ValidationError(f"amplitude component {value!r} is outside the float range")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"malformed amplitude component {value!r}") from None


def state_from_dict(data: object) -> StateVector:
    if not isinstance(data, dict) or "n" not in data or "amplitudes" not in data:
        raise ParseError("state object needs 'n' and 'amplitudes'")
    n = data["n"]
    raw = data["amplitudes"]
    if not isinstance(n, int) or isinstance(n, bool) or not isinstance(raw, list):
        raise ParseError("state 'n' must be an int and 'amplitudes' a list")
    amps = []
    for item in raw:
        if not isinstance(item, list) or len(item) != 2:
            raise ParseError("each amplitude must be a [re, im] pair")
        amps.append((_parse_component(item[0]), _parse_component(item[1])))
    return StateVector(n, amps)


def load_state(path: str) -> StateVector:
    with open(path) as fh:
        try:
            # JSON numbers with a fraction or exponent stay text, read exactly
            data = json.load(fh, parse_float=str)
        except ValueError as exc:  # JSONDecodeError, or an int past the digit limit
            raise ParseError(f"{path}: {exc}") from None
    return state_from_dict(data)


_ANGLE_PATTERN = re.compile(r"^([+-]?\d*\.?\d*)\*?pi(?:/(\d*\.?\d+))?$")


def parse_angle(text: object) -> float:
    """Finite angles as decimals or multiples of pi: ``"0"``, ``"pi/3"``, ``"2*pi/3"``."""
    if isinstance(text, bool) or not isinstance(text, (int, float, str)):
        raise ParseError(f"malformed angle {text!r}")
    try:
        body = str(text).strip().replace(" ", "")
        m = _ANGLE_PATTERN.match(body)
        if m:
            coef_text = m.group(1)
            coef = 1.0 if coef_text in ("", "+") else -1.0 if coef_text == "-" else float(coef_text)
            angle = coef * math.pi / float(m.group(2) or 1)
        else:
            angle = float(body)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"malformed angle {text!r}") from None
    if not math.isfinite(angle):
        raise ParseError(f"angle {text!r} is not finite")
    return angle


def equatorial_from_dict(data: object) -> dict[Label, EquatorialMeasurement]:
    """Measurement map {label: {"party": int, "angle": str|num}}."""
    if not isinstance(data, dict):
        raise ParseError("equatorial map must be a JSON object")
    out = {}
    for label, item in data.items():
        if not isinstance(item, dict) or "party" not in item or "angle" not in item:
            raise ParseError(f"equatorial entry {label!r} needs 'party' and 'angle'")
        party = item["party"]
        if not isinstance(party, int) or isinstance(party, bool):
            raise ParseError(f"equatorial entry {label!r} has a malformed party")
        out[label] = EquatorialMeasurement(party, parse_angle(item["angle"]))
    return out


def load_equatorial(path: str) -> dict[Label, EquatorialMeasurement]:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # JSONDecodeError, or an int past the digit limit
            raise ParseError(f"{path}: {exc}") from None
    return equatorial_from_dict(data)
