"""Feedback-controlled epidemic intervention toolkit.

Simulates a five-compartment outbreak model with a population-response
state under a two-threshold relay intervention policy, verifies the
admissibility and feasibility conditions behind the ICU-capacity
guarantee, and probes their robustness to scenario perturbations.
"""

from .analysis import (
    QMonotonicityReport,
    RobustnessResult,
    SweepResult,
    SweepRow,
    q_monotonicity_check,
    robustness_probe,
    sweep_eps_minus,
)
from .constants import (
    AssumptionReport,
    Condition,
    DerivationError,
    DerivedConstants,
    check_sigma,
    check_sigma_rob,
    derive_constants,
)
from .controller import (
    ControllerParams,
    CZReport,
    DwellBounds,
    InfeasibleError,
    QEvalDomainError,
    QEvalRangeWarning,
    control_update,
    dwell_lower_bounds,
    find_feasible_eps,
    find_max_slack_eps,
    in_CZ,
    q_eval,
)
from .model import (
    CapacityPolicy,
    EpidemicParams,
    InitialState,
    Scenario,
    State,
    derivatives,
)
from .simulator import (
    ChatteringError,
    IntegrationError,
    PreconditionError,
    RunReport,
    SimConfig,
    SwitchEvent,
    Trajectory,
    ValidationCheck,
    ValidationReport,
    input_cost,
    simulate,
    validate_trajectory,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # model
    "EpidemicParams", "InitialState", "CapacityPolicy", "Scenario", "State",
    "derivatives",
    # constants
    "DerivedConstants", "Condition", "AssumptionReport", "DerivationError",
    "derive_constants", "check_sigma", "check_sigma_rob",
    # controller
    "ControllerParams", "DwellBounds", "CZReport",
    "QEvalDomainError", "QEvalRangeWarning", "InfeasibleError",
    "control_update", "q_eval", "in_CZ", "find_feasible_eps",
    "find_max_slack_eps", "dwell_lower_bounds",
    # simulator
    "SimConfig", "SwitchEvent", "Trajectory", "RunReport",
    "ValidationCheck", "ValidationReport",
    "IntegrationError", "ChatteringError", "PreconditionError",
    "simulate", "validate_trajectory", "input_cost",
    # analysis
    "RobustnessResult", "QMonotonicityReport", "SweepRow", "SweepResult",
    "robustness_probe", "q_monotonicity_check", "sweep_eps_minus",
]
