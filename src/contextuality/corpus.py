"""Built-in reference scenarios and models, with pinned expected verdicts.

Each entry materializes exact data; none of it is produced by the
realization stack, so realization and analysis can be cross-checked
against these tables. Expected analysis verdicts ship as package data in
``data/corpus_expectations.json`` and are asserted wholesale by the test
suite.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from typing import Callable, Mapping

from .empirical import (
    ContextDistribution,
    EmpiricalModel,
    PossibilisticModel,
    model_to_dict,
    possibilistic_to_dict,
)
from .errors import ValidationError
from .pauli import PauliSet, scenario_of
from .scenario import Assignment, Context, MeasurementScenario

F = Fraction


def _model(scenario: MeasurementScenario,
           rows: Mapping[tuple[str, ...], Mapping[tuple[int, ...], Fraction]]) -> EmpiricalModel:
    """Rows keyed by sorted label tuples, weights keyed by outcome tuples."""
    table = {}
    for labels, weights in rows.items():
        ctx = Context(labels)
        if ctx.members != tuple(labels):
            raise ValidationError(f"row {labels} not in label order")
        dist = {Assignment(ctx.members, outs): w for outs, w in weights.items()}
        table[ctx] = ContextDistribution(ctx, scenario.outcomes, dist)
    return EmpiricalModel(scenario, table)


# ------------------------------------------------------------------- CHSH

def chsh_scenario() -> MeasurementScenario:
    return MeasurementScenario(
        ["a1", "a2", "b1", "b2"],
        [["a1", "b1"], ["a1", "b2"], ["a2", "b1"], ["a2", "b2"]],
    )


def chsh_model() -> EmpiricalModel:
    """The equatorial Bell table at angles 0 and pi/3."""
    half, eighth, three8 = F(1, 2), F(1, 8), F(3, 8)
    return _model(chsh_scenario(), {
        ("a1", "b1"): {(0, 0): half, (1, 1): half},
        ("a1", "b2"): {(0, 0): three8, (0, 1): eighth, (1, 0): eighth, (1, 1): three8},
        ("a2", "b1"): {(0, 0): three8, (0, 1): eighth, (1, 0): eighth, (1, 1): three8},
        ("a2", "b2"): {(0, 0): eighth, (0, 1): three8, (1, 0): three8, (1, 1): eighth},
    })


def pr_box() -> EmpiricalModel:
    half = F(1, 2)
    return _model(chsh_scenario(), {
        ("a1", "b1"): {(0, 0): half, (1, 1): half},
        ("a1", "b2"): {(0, 0): half, (1, 1): half},
        ("a2", "b1"): {(0, 0): half, (1, 1): half},
        ("a2", "b2"): {(0, 1): half, (1, 0): half},
    })


# ----------------------------------------------------------- Mermin square

MERMIN_SQUARE_LABELS = ("IX", "IZ", "XI", "XX", "XZ", "YY", "ZI", "ZX", "ZZ")


def mermin_square_set() -> PauliSet:
    return PauliSet.from_strings(MERMIN_SQUARE_LABELS)


def mermin_square_scenario() -> MeasurementScenario:
    return scenario_of(mermin_square_set())


def mermin_square_bell_model() -> EmpiricalModel:
    """Joint Pauli outcomes of the square on the two-qubit Bell state."""
    half, quarter = F(1, 2), F(1, 4)
    even_parity = {outs: quarter for outs in
                   ((0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0))}
    return _model(mermin_square_scenario(), {
        ("IX", "XI", "XX"): {(0, 0, 0): half, (1, 1, 0): half},
        ("IZ", "ZI", "ZZ"): {(0, 0, 0): half, (1, 1, 0): half},
        ("XZ", "YY", "ZX"): {(0, 1, 1): half, (1, 1, 0): half},
        ("IZ", "XI", "XZ"): dict(even_parity),
        ("IX", "ZI", "ZX"): dict(even_parity),
        ("XX", "YY", "ZZ"): {(0, 1, 0): F(1)},
    })


def mermin_square_possibilistic() -> PossibilisticModel:
    """The supports of the Bell-state square table."""
    model = mermin_square_bell_model()
    return PossibilisticModel(
        model.scenario,
        {c: model.rows[c].support() for c in model.scenario.contexts})


# --------------------------------------------------------------- XY-(3,2,2)

XY322_LABELS = ("IIX", "IIY", "IXI", "IYI", "XII", "YII")


def xy322_scenario() -> MeasurementScenario:
    contexts = [[a, b, c]
                for a in ("XII", "YII") for b in ("IXI", "IYI") for c in ("IIX", "IIY")]
    return MeasurementScenario(XY322_LABELS, contexts)


def _parity_row(labels: tuple[str, ...], parity: int) -> dict[tuple[int, ...], Fraction]:
    quarter = F(1, 4)
    return {outs: quarter
            for outs in ((0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1),
                         (1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1))
            if sum(outs) % 2 == parity}


def _uniform_row() -> dict[tuple[int, ...], Fraction]:
    eighth = F(1, 8)
    return {(a, b, c): eighth for a in (0, 1) for b in (0, 1) for c in (0, 1)}


def xy322_ghz_model() -> EmpiricalModel:
    """GHZ outcomes: X X X even, one-X contexts odd, the rest uniform."""
    rows = {}
    for a in ("XII", "YII"):
        for b in ("IXI", "IYI"):
            for c in ("IIX", "IIY"):
                labels = tuple(sorted((a, b, c)))
                ys = sum(m.count("Y") for m in (a, b, c))
                if ys == 0:
                    rows[labels] = _parity_row(labels, 0)
                elif ys == 2:
                    rows[labels] = _parity_row(labels, 1)
                else:
                    rows[labels] = _uniform_row()
    return _model(xy322_scenario(), rows)


def xy322_plus_model() -> EmpiricalModel:
    """The flat table: every context uniform."""
    rows = {}
    for a in ("XII", "YII"):
        for b in ("IXI", "IYI"):
            for c in ("IIX", "IIY"):
                rows[tuple(sorted((a, b, c)))] = _uniform_row()
    return _model(xy322_scenario(), rows)


# ----------------------------------------------------------------- XZ-(2,2,2)

XZ222_LABELS = ("IX", "IZ", "XI", "ZI")


def xz222_set() -> PauliSet:
    return PauliSet.from_strings(XZ222_LABELS)


def xz222_scenario() -> MeasurementScenario:
    return scenario_of(xz222_set())


def xz222_model() -> EmpiricalModel:
    """Bell-state outcomes on the local cover: XX and ZZ correlate."""
    half, quarter = F(1, 2), F(1, 4)
    uniform = {(0, 0): quarter, (0, 1): quarter, (1, 0): quarter, (1, 1): quarter}
    return _model(xz222_scenario(), {
        ("IX", "XI"): {(0, 0): half, (1, 1): half},
        ("IZ", "ZI"): {(0, 0): half, (1, 1): half},
        ("IZ", "XI"): dict(uniform),
        ("IX", "ZI"): dict(uniform),
    })


def hardy_model() -> EmpiricalModel:
    """Hardy's state |00> + |01> + |10>: only IX = XI = 1 extends to no global section."""
    sixth, twelfth = F(1, 6), F(1, 12)
    return _model(xz222_scenario(), {
        ("IX", "XI"): {(0, 0): F(3, 4), (0, 1): twelfth, (1, 0): twelfth, (1, 1): twelfth},
        ("IX", "ZI"): {(0, 0): F(2, 3), (0, 1): sixth, (1, 1): sixth},
        ("IZ", "XI"): {(0, 0): F(2, 3), (1, 0): sixth, (1, 1): sixth},
        ("IZ", "ZI"): {(0, 0): F(1, 3), (0, 1): F(1, 3), (1, 0): F(1, 3)},
    })


# ---------------------------------------------------------------- Mermin star

MERMIN_STAR_LABELS = ("XII", "IXI", "IIX", "YII", "IYI", "IIY")


def mermin_star_set() -> PauliSet:
    return PauliSet.from_strings(MERMIN_STAR_LABELS)


# ------------------------------------------------------------------ registry

@dataclass(frozen=True)
class CorpusEntry:
    name: str
    kind: str  # "model" | "possibilistic" | "pauli-set"
    description: str
    build: Callable[[], object]

    def payload(self) -> dict:
        obj = self.build()
        if self.kind == "model":
            return model_to_dict(obj)
        if self.kind == "possibilistic":
            return possibilistic_to_dict(obj)
        return {"paulis": list(obj.labels())}


REGISTRY: dict[str, CorpusEntry] = {
    entry.name: entry
    for entry in (
        CorpusEntry("chsh", "model",
                    "equatorial Bell table at angles 0 and pi/3", chsh_model),
        CorpusEntry("pr-box", "model",
                    "the Popescu-Rohrlich box", pr_box),
        CorpusEntry("mermin-square-bell", "model",
                    "Mermin square outcomes on the Bell state", mermin_square_bell_model),
        CorpusEntry("mermin-square-possibilistic", "possibilistic",
                    "supports of the Bell-state square table", mermin_square_possibilistic),
        CorpusEntry("xy322-ghz", "model",
                    "GHZ outcomes on the X/Y three-party cover", xy322_ghz_model),
        CorpusEntry("xy322-plus", "model",
                    "flat model on the X/Y three-party cover", xy322_plus_model),
        CorpusEntry("xz222", "model",
                    "Bell-state outcomes on the local X/Z cover", xz222_model),
        CorpusEntry("hardy", "model",
                    "Hardy's state on the local X/Z cover", hardy_model),
        CorpusEntry("mermin-star", "pauli-set",
                    "single-qubit X and Y observables on three qubits", mermin_star_set),
    )
}


def expectations() -> dict:
    """Pinned verdicts for every corpus entry, keyed by name."""
    text = resources.files("contextuality").joinpath(
        "data/corpus_expectations.json").read_text()
    return json.loads(text)
