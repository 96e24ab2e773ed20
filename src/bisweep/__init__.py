"""Time-optimal control of a planar sweeping (Moreau) process.

A disk-shaped crowd region is steered to a target arc on the boundary of a
confinement disk in minimum time, while the swept point inside follows a
truncated normal-cone law plus a controlled drift.  The package provides the
smoothed transcription, a nested solver for the bilevel
formulation, brute-force enumeration oracles, and a numerical
optimality certificate in Gamkrelidze form.
"""

from .geometry import (
    DriftSpec,
    ExitArc,
    Scenario,
    ValidationReport,
    h_lower,
    h_upper,
    straight_corridor,
    target_direction,
    target_distance,
    truncation_bounds,
    validate,
)
from .dynamics import (
    ControlProfile,
    FeasibilityLossWarning,
    SmoothingSchedule,
    StateTrajectory,
    TimeGrid,
    ViolationReport,
    convergence_study,
    drift,
    feasibility_monitor,
    integrate_catchup,
    integrate_smooth,
)
from .transcription import (
    DecisionVector,
    NLPInstance,
)
from .oracle import (
    EnumSpec,
    OracleInfeasibleError,
    brute_bilevel,
    brute_lower,
    fd_check,
    sigma_sup_oracle,
)
from .solver import (
    BilevelSolution,
    LowerSolution,
    SolverOptions,
    penalty_gap,
    solve_bilevel,
    solve_lower,
    value_subgradient,
)
from .certificate import (
    CertificateReport,
    GamkrelidzeMultipliers,
    certify,
    extract_multipliers,
    hamiltonian_upper,
    sigma_smooth_value,
    sigma_value,
)

__version__ = "0.1.0"
