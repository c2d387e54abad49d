"""Realizing empirical models from quantum states by the Born rule.

Dense statevectors on up to 10 qubits. A context of k commuting Hermitian
Paulis is measured through its 2^k subset products P_T, the products of
the members in each subset T; eigenvalue +1 records outcome 0 and -1
records outcome 1, so that

    p(s) = 2^-k sum_T (-1)^(s.T) <psi|P_T|psi> / <psi|psi>.

One engine evaluates this sum for every Pauli path. The exact path takes
rational real and imaginary parts, not necessarily normalized, scales them
to Gaussian integers and builds Fractions only for the final weights;
random rational states keep the contextual-fraction bridge exactly
decidable. Context eigenstates come from the same projector
2^-k sum_T (-1)^(s.T) P_T applied to basis vectors.

Floats enter only with the unit ``StateVector``, whose Pauli rows run
through the same engine in floating point, and with equatorial observables
cos(a) X + sin(a) Y, measured by sequential eigenprojections. Their rows
are snapped to the nearest rational with denominator at most 2^16. If any
weight sits further than 1e-12 from such a rational, or the snapped
weights do not sum to exactly 1, exactification is refused and a
float-tagged distribution is returned instead; float-tagged rows never
enter the exact analysis stack. Best approximations with such
denominators are usually within 2^-32 of a float, so a looser residual
would snap almost any row.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Mapping, Sequence

import numpy as np

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
NORM_TOLERANCE = 1e-9


def _check_qubits(num_qubits: int) -> None:
    # before any 2^n allocation: numpy refuses 2^64 with a bare ValueError
    if num_qubits < 1 or num_qubits > QUBIT_LIMIT:
        raise SizeLimitError(f"statevectors support 1..{QUBIT_LIMIT} qubits")


class StateVector:
    """A unit vector on n qubits, qubit 0 as the most significant index bit."""

    def __init__(self, num_qubits: int, amplitudes: Sequence[complex]):
        _check_qubits(num_qubits)
        amps = np.asarray(amplitudes, dtype=complex).reshape(-1)
        if amps.size != 1 << num_qubits:
            raise ValidationError(
                f"{amps.size} amplitudes for {num_qubits} qubits")
        if not np.isfinite(amps).all():
            raise ValidationError("state amplitudes must be finite")
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > NORM_TOLERANCE:
            raise ValidationError(f"state norm {norm} is not 1")
        self.num_qubits = num_qubits
        self.amplitudes = amps / norm
        self.amplitudes.setflags(write=False)

    def __repr__(self) -> str:
        return f"StateVector(num_qubits={self.num_qubits})"


def ghz(num_qubits: int) -> StateVector:
    _check_qubits(num_qubits)
    amps = np.zeros(1 << num_qubits, dtype=complex)
    amps[0] = amps[-1] = 1 / math.sqrt(2)
    return StateVector(num_qubits, amps)


def plus(num_qubits: int) -> StateVector:
    _check_qubits(num_qubits)
    dim = 1 << num_qubits
    return StateVector(num_qubits, np.full(dim, 1 / math.sqrt(dim), dtype=complex))


def basis_state(num_qubits: int, index: int = 0) -> StateVector:
    _check_qubits(num_qubits)
    if index < 0 or index >= 1 << num_qubits:
        raise ValidationError(f"basis index {index} outside {num_qubits} qubits")
    amps = np.zeros(1 << num_qubits, dtype=complex)
    amps[index] = 1.0
    return StateVector(num_qubits, amps)


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


def _expectation(op: PauliOperator, re: Sequence, im: Sequence):
    """<psi|op|psi> over parallel real and imaginary parts, ints or floats.

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


def _born_row(re: Sequence, im: Sequence, context: Context,
              ordered: Sequence[PauliOperator], ratio) -> dict[Assignment, object]:
    """p(s) = 2^-k sum_T (-1)^(s.T) <P_T> / <psi|psi> for every outcome s.

    The sum over T is a Walsh-Hadamard transform of the subset-product
    expectations; ``ratio`` makes the final division, exact or float.
    """
    # reversed, so that the first member is the most significant outcome bit
    w = [_expectation(p, re, im)
         for p in _subset_products(ordered[::-1], ordered[0].num_qubits)]
    scale = len(w) * w[0]  # P_T for the empty T is the identity
    h = 1
    while h < len(w):
        w = [w[i] + w[i ^ h] if not i & h else w[i ^ h] - w[i] for i in range(len(w))]
        h <<= 1
    return {Assignment(context.members, outs): ratio(v, scale)
            for outs, v in zip(product((0, 1), repeat=len(ordered)), w)}


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


def born_distribution(psi: StateVector, ops: Sequence[PauliOperator],
                      labels: Sequence[Label] | None = None):
    """Joint eigenprojection probabilities for a commuting Pauli context.

    Returns an exact ContextDistribution, or a FloatDistribution when the
    probabilities are not close to small rationals.
    """
    _check_context(ops, psi.num_qubits)
    context, ordered = _sorted_context(ops, labels)
    amps = psi.amplitudes
    # rounding can leave an impossible outcome slightly below zero
    weights = _born_row(amps.real.tolist(), amps.imag.tolist(), context, ordered,
                        lambda v, scale: max(v / scale, 0.0))
    return _exactify(context, (0, 1), weights)


def born_distribution_equatorial(psi: StateVector,
                                 measurements: Sequence[EquatorialMeasurement],
                                 labels: Sequence[Label] | None = None):
    """Joint distribution of one equatorial observable per listed party."""
    parties = [m.party for m in measurements]
    if len(set(parties)) != len(parties):
        raise ValidationError("one equatorial measurement per party")
    if any(p < 0 or p >= psi.num_qubits for p in parties):
        raise ValidationError("party index outside the state")
    context, ordered = _sorted_context(
        measurements, [f"m{p}" for p in parties] if labels is None else labels)

    def project(vec: np.ndarray, m: EquatorialMeasurement, o: int) -> np.ndarray:
        s = 1 - 2 * o
        proj = 0.5 * np.array([
            [1, s * np.exp(-1j * m.angle)],
            [s * np.exp(1j * m.angle), 1],
        ])
        shaped = vec.reshape([2] * psi.num_qubits)
        moved = np.tensordot(proj, shaped, axes=([1], [m.party]))
        return np.moveaxis(moved, 0, m.party).reshape(-1)

    branches: list[tuple[tuple[int, ...], np.ndarray]] = [((), psi.amplitudes)]
    for m in ordered:
        branches = [(outs + (o,), project(vec, m, o))
                    for outs, vec in branches for o in (0, 1)]
    weights = {Assignment(context.members, outs): float(np.vdot(vec, vec).real)
               for outs, vec in branches}
    return _exactify(context, (0, 1), weights)


def realize_model(psi: StateVector, scenario: MeasurementScenario,
                  measurements: Mapping[Label, PauliOperator | EquatorialMeasurement]
                  | None = None):
    """Measure every context of a scenario on one state.

    Labels are interpreted as Pauli strings unless a measurement mapping
    is given. Returns an EmpiricalModel when all rows exactify, otherwise
    a FloatEmpiricalModel.
    """
    if scenario.outcomes != (0, 1):
        raise ValidationError("realization targets two-outcome scenarios")

    def interpret(label: Label):
        if measurements is not None:
            try:
                return measurements[label]
            except KeyError:
                raise ValidationError(f"no measurement assigned to label {label!r}") from None
        return PauliOperator.from_string(label)

    rows: dict[Context, ContextDistribution | FloatDistribution] = {}
    all_exact = True
    for ctx in scenario.contexts:
        ms = [interpret(m) for m in ctx.members]
        if all(isinstance(m, PauliOperator) for m in ms):
            row = born_distribution(psi, ms, labels=ctx.members)
        elif all(isinstance(m, EquatorialMeasurement) for m in ms):
            row = born_distribution_equatorial(psi, ms, labels=ctx.members)
        else:
            raise ValidationError(f"context {ctx} mixes Pauli and equatorial measurements")
        rows[ctx] = row
        all_exact = all_exact and not isinstance(row, FloatDistribution)
    if all_exact:
        return EmpiricalModel(scenario, rows)
    return FloatEmpiricalModel(scenario, rows)


# ------------------------------------------------------ exact rational path

RationalAmplitude = tuple[Fraction, Fraction]


def born_distribution_exact(amplitudes: Sequence[RationalAmplitude],
                            ops: Sequence[PauliOperator],
                            labels: Sequence[Label] | None = None) -> ContextDistribution:
    """All-rational Born rule; amplitudes need not be normalized."""
    if not ops:
        raise ValidationError("empty context")
    n = ops[0].num_qubits
    vec = [(Fraction(re), Fraction(im)) for re, im in amplitudes]
    if len(vec) != 1 << n:
        raise ValidationError(f"{len(vec)} amplitudes for {n} qubits")
    if not any(re or im for re, im in vec):
        raise ValidationError("zero state")
    _check_context(ops, n)
    context, ordered = _sorted_context(ops, labels)
    # one common denominator turns the amplitudes into Gaussian integers
    lcd = math.lcm(*(q.denominator for pair in vec for q in pair))
    re = [int(a * lcd) for a, _ in vec]
    im = [int(b * lcd) for _, b in vec]
    weights = _born_row(re, im, context, ordered, Fraction)
    return ContextDistribution(context, (0, 1), weights)


def realize_model_exact(amplitudes: Sequence[RationalAmplitude],
                        scenario: MeasurementScenario) -> EmpiricalModel:
    """Exact realization of a Pauli-labeled scenario from rational amplitudes."""
    rows = {}
    for ctx in scenario.contexts:
        ops = [PauliOperator.from_string(m) for m in ctx.members]
        rows[ctx] = born_distribution_exact(amplitudes, ops, labels=ctx.members)
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

def _parse_component(value: object) -> float:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    if isinstance(value, str):
        try:
            return float(Fraction(value)) if "/" in value else float(value)
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"malformed amplitude component {value!r}") from None
    raise ParseError(f"malformed amplitude component {value!r}")


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
        amps.append(complex(_parse_component(item[0]), _parse_component(item[1])))
    return StateVector(n, amps)


def state_to_dict(psi: StateVector) -> dict:
    return {
        "n": psi.num_qubits,
        "amplitudes": [[repr(float(a.real)), repr(float(a.imag))]
                       for a in psi.amplitudes],
    }


def load_state(path: str) -> StateVector:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: {exc}") from None
    return state_from_dict(data)


_ANGLE_PATTERN = re.compile(r"^([+-]?\d*\.?\d*)\*?pi(?:/(\d*\.?\d+))?$")


def parse_angle(text: object) -> float:
    """Angles as decimals or multiples of pi: ``"0"``, ``"pi/3"``, ``"2*pi/3"``."""
    if isinstance(text, bool):
        raise ParseError(f"malformed angle {text!r}")
    if isinstance(text, (int, float)):
        return float(text)
    if not isinstance(text, str):
        raise ParseError(f"malformed angle {text!r}")
    body = text.strip().replace(" ", "")
    m = _ANGLE_PATTERN.match(body)
    if m:
        coef_text = m.group(1)
        coef = 1.0 if coef_text in ("", "+") else -1.0 if coef_text == "-" else float(coef_text)
        denom = float(m.group(2)) if m.group(2) else 1.0
        if denom == 0:
            raise ParseError(f"malformed angle {text!r}")
        return coef * math.pi / denom
    try:
        return float(body)
    except ValueError:
        raise ParseError(f"malformed angle {text!r}") from None


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
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: {exc}") from None
    return equatorial_from_dict(data)
