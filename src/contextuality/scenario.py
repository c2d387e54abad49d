"""Measurement scenarios: label sets, covers of contexts, and assignments.

A scenario is a triple of measurement labels, a cover of contexts (the
maximal jointly-measurable subsets), and a shared outcome set 0..k-1.
Labels are plain strings without commas (a context's JSON key joins its
members with commas), ordered lexicographically; that order fixes the
canonical form of contexts, assignments, and every enumeration in the
package. Outcome strings carry one digit per member, so JSON holds at most
``MAX_OUTCOMES`` outcomes. Scenarios whose outcomes carry Z2 (sum mod 2)
structure set ``ring="Z2"``, which the parity-equation machinery requires.

Construction canonicalizes (sorts, deduplicates) but does not repair:
covering and anti-chain violations are reported by ``validate_scenario``
as data, not silently fixed. The ``unchecked_*`` constructors skip that
work for callers whose data is canonical by construction: the assignment
enumeration, and the Pauli cover, whose contexts are sorted cliques over
label-ordered vertices. They give objects equal to what the validating
constructors give on the same data, and no user input reaches them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import ParseError, ValidationError

Label = str
Outcome = int

RINGS = ("Z2", "none")
MAX_OUTCOMES = 10  # one decimal digit per member in an outcome string


def _check_labels(labels: tuple[object, ...]) -> None:
    if any(not isinstance(m, str) or not m for m in labels):
        raise ValidationError("measurement labels must be nonempty strings")
    if any("," in m for m in labels):
        raise ValidationError("measurement labels must not contain ','")


@dataclass(frozen=True, order=True)
class Context:
    """A jointly measurable set of labels, kept sorted and deduplicated."""

    members: tuple[Label, ...]

    def __init__(self, members: Iterable[Label]):
        canon = tuple(sorted(set(members)))
        if not canon:
            raise ValidationError("context must contain at least one measurement")
        _check_labels(canon)
        object.__setattr__(self, "members", canon)

    def __iter__(self) -> Iterator[Label]:
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, label: object) -> bool:
        return label in self.members

    def issubset(self, other: "Context") -> bool:
        return set(self.members) <= set(other.members)

    def intersection(self, other: "Context") -> tuple[Label, ...]:
        return tuple(m for m in self.members if m in other.members)

    def key(self) -> str:
        """Serialization key, e.g. ``"a1,b1"``."""
        return ",".join(self.members)

    def __str__(self) -> str:
        return "{" + ", ".join(self.members) + "}"


@dataclass(frozen=True, order=True)
class Assignment:
    """An outcome for each label of some subset, in label order.

    Hashable, so assignments serve as distribution keys and section
    elements. ``values[i]`` is the outcome of ``labels[i]``.
    """

    labels: tuple[Label, ...]
    values: tuple[Outcome, ...]

    def __init__(self, labels: Iterable[Label], values: Iterable[Outcome]):
        pairs = sorted(zip(labels, values))
        labs = tuple(p[0] for p in pairs)
        vals = tuple(p[1] for p in pairs)
        if len(set(labs)) != len(labs):
            raise ValidationError(f"duplicate labels in assignment: {labs}")
        if any(not isinstance(v, int) or v < 0 for v in vals):
            raise ValidationError(f"outcomes must be nonnegative integers: {vals}")
        object.__setattr__(self, "labels", labs)
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_mapping(cls, mapping: Mapping[Label, Outcome]) -> "Assignment":
        return cls(tuple(mapping.keys()), tuple(mapping.values()))

    def __getitem__(self, label: Label) -> Outcome:
        try:
            return self.values[self.labels.index(label)]
        except ValueError:
            raise KeyError(label) from None

    def as_dict(self) -> dict[Label, Outcome]:
        return dict(zip(self.labels, self.values))

    def restrict(self, labels: Iterable[Label]) -> "Assignment":
        """Project onto a subset of this assignment's labels."""
        keep = set(labels)
        missing = keep - set(self.labels)
        if missing:
            raise ValidationError(f"cannot restrict to absent labels: {sorted(missing)}")
        pairs = [(l, v) for l, v in zip(self.labels, self.values) if l in keep]
        return Assignment(tuple(p[0] for p in pairs), tuple(p[1] for p in pairs))

    def extends(self, other: "Assignment") -> bool:
        """True when this assignment agrees with ``other`` on all its labels."""
        mine = self.as_dict()
        return all(l in mine and mine[l] == v for l, v in zip(other.labels, other.values))

    def to_string(self) -> str:
        """Outcome digits in label order, e.g. ``"011"``."""
        return "".join(str(v) for v in self.values)

    def __str__(self) -> str:
        return self.to_string()


@dataclass(frozen=True)
class MeasurementScenario:
    """Labels, cover, outcomes, and optional Z2 ring flag."""

    measurements: tuple[Label, ...]
    contexts: tuple[Context, ...]
    outcomes: tuple[Outcome, ...]
    ring: str = "Z2"

    def __init__(
        self,
        measurements: Iterable[Label],
        contexts: Iterable[Context | Iterable[Label]],
        outcomes: Iterable[Outcome] = (0, 1),
        ring: str = "Z2",
    ):
        meas = tuple(sorted(set(measurements)))
        _check_labels(meas)
        ctxs = tuple(sorted(set(
            c if isinstance(c, Context) else Context(c) for c in contexts)))
        outs = tuple(outcomes)
        if outs != tuple(range(len(outs))) or len(outs) < 2:
            raise ValidationError(f"outcomes must be 0..k-1 with k >= 2, got {outs}")
        if ring not in RINGS:
            raise ValidationError(f"ring must be one of {RINGS}, got {ring!r}")
        if ring == "Z2" and outs != (0, 1):
            raise ValidationError("ring Z2 requires outcomes (0, 1)")
        declared = set(meas)
        for c in ctxs:
            stray = set(c.members) - declared
            if stray:
                raise ValidationError(
                    f"context {c} uses undeclared measurements {sorted(stray)}")
        object.__setattr__(self, "measurements", meas)
        object.__setattr__(self, "contexts", ctxs)
        object.__setattr__(self, "outcomes", outs)
        object.__setattr__(self, "ring", ring)

    def assignments(self, labels: Iterable[Label] | Context | None = None) -> tuple[Assignment, ...]:
        """All assignments on the given labels (default: every measurement)."""
        labs = self.measurements if labels is None else tuple(labels)
        return enumerate_assignments(labs, self.outcomes)


@dataclass(frozen=True)
class ScenarioViolation:
    """One covering or anti-chain failure, reported as data."""

    kind: str  # "covering" or "antichain"
    items: tuple

    def __str__(self) -> str:
        if self.kind == "covering":
            return f"measurement {self.items[0]!r} belongs to no context"
        a, b = self.items
        return f"context {a} is contained in context {b}"


def enumerate_assignments(labels: Iterable[Label], outcomes: Iterable[Outcome]) -> tuple[Assignment, ...]:
    """All assignments on ``labels`` in lexicographic outcome order under label order.

    Labels and outcomes are checked once per call, not per assignment; a bad
    outcome raises the constructor's error at the first row holding it.
    """
    labs = tuple(sorted(set(labels)))
    outs = tuple(outcomes)
    rows = list(product(outs, repeat=len(labs)))
    if labs and not all(isinstance(v, int) and v >= 0 for v in outs):
        for vals in rows:
            Assignment(labs, vals)
    return tuple(unchecked_assignments(labs, rows))


def unchecked_assignments(labels: tuple[Label, ...],
                          rows: Iterable[tuple[Outcome, ...]]) -> list[Assignment]:
    """One assignment per row of outcomes on sorted, distinct ``labels``,
    built without the constructor's checks.

    ``enumerate_assignments`` vouches for its input, since it deduplicates
    and sorts the labels and checks the outcomes once, and
    ``analysis.Columns`` decodes its values from a column index over a
    scenario's sorted labels. Nothing read from a user reaches it;
    ``Assignment`` checks those."""
    out = []
    for vals in rows:
        s = object.__new__(Assignment)
        object.__setattr__(s, "labels", labels)
        object.__setattr__(s, "values", vals)
        out.append(s)
    return out


def unchecked_contexts(labels: Sequence[Label],
                       indices: Iterable[Sequence[int]]) -> list[Context]:
    """One context per nonempty ascending index list into sorted, distinct,
    valid ``labels``, built without the constructor's sort and checks.

    ``pauli``'s cover vouches for its input: the labels are Pauli strings
    of distinct members in label order, and each index list is a clique's
    set bits, so its labels come out sorted. Nothing read from a user
    reaches it; ``Context`` checks those."""
    out = []
    for index in indices:
        c = object.__new__(Context)
        object.__setattr__(c, "members", tuple([labels[i] for i in index]))
        out.append(c)
    return out


def unchecked_scenario(measurements: tuple[Label, ...],
                       contexts: tuple[Context, ...]) -> MeasurementScenario:
    """The Z2 scenario on sorted, distinct, valid ``measurements`` with
    sorted, distinct ``contexts`` over them, built without the
    constructor's sort and checks.

    ``pauli``'s cover vouches for its input: it makes the contexts with
    ``unchecked_contexts`` from cliques in sorted order, over the labels it
    gives here. Nothing read from a user reaches it; ``MeasurementScenario``
    checks those."""
    s = object.__new__(MeasurementScenario)
    object.__setattr__(s, "measurements", measurements)
    object.__setattr__(s, "contexts", contexts)
    object.__setattr__(s, "outcomes", (0, 1))
    object.__setattr__(s, "ring", "Z2")
    return s


def validate_scenario(scenario: MeasurementScenario) -> list[ScenarioViolation]:
    """Report every covering failure and every anti-chain failure.

    An empty list means the cover is a covering anti-chain. Nothing is
    repaired; duplicate contexts are already impossible after
    canonicalization.
    """
    violations: list[ScenarioViolation] = []
    covered = set()
    for c in scenario.contexts:
        covered.update(c.members)
    for m in scenario.measurements:
        if m not in covered:
            violations.append(ScenarioViolation("covering", (m,)))
    for a in scenario.contexts:
        for b in scenario.contexts:
            if a is not b and a.issubset(b):
                violations.append(ScenarioViolation("antichain", (a, b)))
    return violations


def gyo_core(contexts: Iterable[Context | Iterable[Label]]) -> tuple[Context, ...]:
    """What GYO reduction leaves of a cover's hypergraph, in context order.

    Repeatedly drop a context contained in another (equal copies count
    once) and a measurement that lies in only one context, until neither
    rule applies. The result is empty exactly when the cover is acyclic:
    a last context loses every measurement to the second rule. On an
    acyclic cover every no-signalling model, and so every quantum model,
    has a global distribution (Vorob'ev, Theory Probab. Appl. 7, 147,
    1962), so no state can make it contextual. A cyclic cover keeps at
    least three contexts, e.g. the four edges of the CHSH square.
    """
    edges = {frozenset(c) for c in contexts}
    while True:
        edges = {e for e in edges if not any(e < f for f in edges)}
        seen: set[Label] = set()
        shared: set[Label] = set()
        for e in edges:
            shared |= seen & e
            seen |= e
        reduced = {e & shared for e in edges}
        if reduced == edges:
            return tuple(sorted(Context(e) for e in edges if e))
        edges = reduced


# ----------------------------------------------------------------- JSON form

def scenario_to_dict(scenario: MeasurementScenario) -> dict:
    if len(scenario.outcomes) > MAX_OUTCOMES:
        raise ValidationError(
            f"{len(scenario.outcomes)} outcomes exceed the {MAX_OUTCOMES} that "
            "one-digit outcome strings can write")
    return {
        "measurements": list(scenario.measurements),
        "outcomes": list(scenario.outcomes),
        "ring": scenario.ring,
        "contexts": [list(c.members) for c in scenario.contexts],
    }


def scenario_from_dict(data: object) -> MeasurementScenario:
    if not isinstance(data, dict):
        raise ParseError("scenario must be a JSON object")
    try:
        measurements = data["measurements"]
        contexts = data["contexts"]
    except KeyError as exc:
        raise ParseError(f"scenario object missing key {exc}") from None
    outcomes = data.get("outcomes", [0, 1])
    ring = data.get("ring", "Z2")
    if not isinstance(measurements, list) or not isinstance(contexts, list):
        raise ParseError("scenario measurements and contexts must be lists")
    if not all(isinstance(c, list) for c in contexts):
        raise ParseError("each context must be a list of labels")
    labels = [*measurements, *(m for c in contexts for m in c)]
    if not all(isinstance(m, str) for m in labels):
        raise ParseError("measurement labels must be strings")
    if any("," in m for m in labels):
        raise ParseError("measurement labels must not contain ','")
    if isinstance(outcomes, list) and any(isinstance(o, bool) for o in outcomes):
        raise ParseError("scenario outcomes must be integers, not booleans")
    if isinstance(outcomes, list) and len(outcomes) > MAX_OUTCOMES:
        raise ParseError(
            f"{len(outcomes)} outcomes exceed the {MAX_OUTCOMES} that "
            "one-digit outcome strings can write")
    return MeasurementScenario(measurements, contexts, outcomes, ring)


def parse_assignment(outcome_string: str, context: Context, outcomes: tuple[Outcome, ...]) -> Assignment:
    """Decode an outcome digit string keyed to a context's label order."""
    if len(outcome_string) != len(context):
        raise ParseError(
            f"outcome string {outcome_string!r} has {len(outcome_string)} digits "
            f"for context {context} of size {len(context)}")
    try:
        vals = tuple(int(ch) for ch in outcome_string)
    except ValueError:
        raise ParseError(f"outcome string {outcome_string!r} has non-digit characters") from None
    if any(v not in outcomes for v in vals):
        raise ParseError(f"outcome string {outcome_string!r} uses outcomes outside {outcomes}")
    return Assignment(context.members, vals)
