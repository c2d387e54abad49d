"""Exact analysis of measurement scenarios for quantum contextuality.

The package grades models along the contextuality hierarchy with exact
rational arithmetic: probabilistic (noncontextual fraction), possibilistic
(logical), strong, all-versus-nothing (parity theories), and
state-independent all-versus-nothing over Pauli closures, with
Kirby-Love determining-tree witnesses and Born-rule realization of models
from quantum states.
"""

from .analysis import (
    GlobalDistribution,
    HiddenVariableModel,
    IncidenceMatrix,
    NoncontextualFraction,
    build_incidence,
    find_global_distribution,
    from_hidden_variable,
    global_section_count,
    global_sections,
    is_logically_contextual,
    is_strongly_contextual,
    model_vector,
    noncontextual_fraction,
    to_hidden_variable,
)
from .empirical import (
    ContextDistribution,
    EmpiricalModel,
    NoSignalingViolation,
    PossibilisticModel,
    check_no_signaling,
    convex_mix,
    is_no_signaling,
    model_from_dict,
    model_to_dict,
    possibilistic_collapse,
    possibilistic_from_dict,
    possibilistic_to_dict,
)
from .errors import (
    ClosureLimitError,
    NonCommutingContextError,
    ParseError,
    SizeLimitError,
    ValidationError,
)
from .linear_theory import (
    ConsistencyResult,
    LinearEquation,
    LinearTheory,
    is_avn,
    is_consistent,
    satisfies,
    theory_of_supports,
)
from .pauli import (
    DeterminingTree,
    PATTERN_TABLE,
    PatternTestResult,
    PauliOperator,
    PauliSet,
    identity,
    is_state_independent_avn,
    kl_pattern_test,
    kl_witness,
    measurement_cover,
    partial_closure,
    pattern_key,
    scenario_of,
    state_independent_theory,
)
from .realize import (
    EquatorialMeasurement,
    FloatDistribution,
    FloatEmpiricalModel,
    StateVector,
    basis_state,
    bell_phi_plus,
    born_distribution_equatorial,
    born_distribution_exact,
    canonical_state,
    context_eigenstate,
    equatorial_from_dict,
    ghz,
    load_equatorial,
    load_state,
    parse_angle,
    plus,
    realize_model,
    realize_model_exact,
    state_from_dict,
)
from .scenario import (
    Assignment,
    Context,
    MeasurementScenario,
    ScenarioViolation,
    enumerate_assignments,
    gyo_core,
    scenario_from_dict,
    scenario_to_dict,
    validate_scenario,
)

__version__ = "0.1.0"
