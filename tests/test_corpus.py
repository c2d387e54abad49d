"""Every corpus entry reproduces its pinned verdicts."""

from fractions import Fraction

import pytest

from contextuality import (
    EmpiricalModel,
    PauliSet,
    PossibilisticModel,
    ValidationError,
    check_no_signaling,
    global_sections,
    is_avn,
    is_logically_contextual,
    is_state_independent_avn,
    is_strongly_contextual,
    kl_witness,
    noncontextual_fraction,
    partial_closure,
    validate_scenario,
)
from contextuality.corpus import REGISTRY, _model, chsh_scenario, expectations


def pauli_set_for(entry_value):
    if isinstance(entry_value, PauliSet):
        return entry_value
    return PauliSet.from_strings(entry_value.scenario.measurements)


def computed_verdicts(value, keys):
    out = {}
    if isinstance(value, EmpiricalModel):
        if "no_signaling" in keys:
            out["no_signaling"] = check_no_signaling(value) == []
        if "ncf" in keys:
            result = noncontextual_fraction(value)
            out["ncf"] = str(result.ncf)
            out["cf"] = str(1 - result.ncf)
    if isinstance(value, (EmpiricalModel, PossibilisticModel)):
        if "strongly_contextual" in keys:
            out["strongly_contextual"] = is_strongly_contextual(value)
        if "logically_contextual" in keys:
            out["logically_contextual"] = is_logically_contextual(value)
        if "global_section_count" in keys:
            out["global_section_count"] = len(global_sections(value))
        if "avn" in keys:
            out["avn"] = is_avn(value)
    if {"si_avn", "si_avn_closure", "closure_size", "kl_witness_found"} & keys:
        pset = pauli_set_for(value)
        if "si_avn" in keys:
            out["si_avn"] = is_state_independent_avn(pset)
        if "si_avn_closure" in keys:
            out["si_avn_closure"] = is_state_independent_avn(pset, in_closure=True)
        if "closure_size" in keys:
            out["closure_size"] = len(partial_closure(pset))
        if "kl_witness_found" in keys:
            out["kl_witness_found"] = kl_witness(pset) is not None
    return out


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_entry_matches_pinned_verdicts(name):
    pinned = expectations()[name]
    value = REGISTRY[name].build()
    got = computed_verdicts(value, set(pinned))
    assert set(got) == set(pinned)
    for key, want in pinned.items():
        assert got[key] == want, f"{name}: {key} is {got[key]}, pinned {want}"


def test_every_entry_is_pinned_and_valid():
    exp = expectations()
    assert set(exp) == set(REGISTRY)
    for name, entry in REGISTRY.items():
        value = entry.build()
        assert entry.kind in ("model", "possibilistic", "pauli-set")
        if isinstance(value, (EmpiricalModel, PossibilisticModel)):
            assert validate_scenario(value.scenario) == []
        assert entry.description


def test_builds_are_deterministic():
    for entry in REGISTRY.values():
        assert entry.build() == entry.build()


def test_chsh_fraction_is_exact():
    result = noncontextual_fraction(REGISTRY["chsh"].build())
    assert result.ncf == Fraction(3, 4)
    assert isinstance(result.ncf, Fraction)


def test_rows_out_of_label_order_are_refused():
    """The label-order check is a ValidationError, so it holds under python -O."""
    half = Fraction(1, 2)
    with pytest.raises(ValidationError, match="not in label order"):
        _model(chsh_scenario(), {("b1", "a1"): {(0, 0): half, (1, 1): half}})
