"""Periodic motion planning and orbital stabilization for underactuated systems.

The pipeline: pick a virtual holonomic constraint q = phi(theta), reduce the
dynamics to a scalar second-order equation that may cross a singularity, solve
the two-point boundary problem through that crossing, lift the scalar motion
back to a full state/input trajectory, then stabilize the resulting orbit with
a periodic LQR designed on the transverse linearization. A separate checker
certifies trajectories that no regular constraint can reproduce.
"""

from .errors import (
    BoundaryUnreachableError,
    ConditionCheckError,
    ConvergenceError,
    DomainError,
    ModelInvariantError,
    OutsideTubeError,
    UsageError,
    VhcplanError,
)
from .feasibility import (
    NoVhcCertificate,
    SingularPass,
    accessibility_det_closed_form,
    accessibility_det_numeric,
    certify_no_regular_vhc,
    theorem2_scan,
)
from .mech import (
    MechanicalSystem,
    eval_accel,
    inverse_input,
    left_annihilator,
    pvtol_model,
    tic_toc_acceleration,
    tic_toc_orbit,
    tic_toc_reference,
)
from .sim import SimulationResult, run_closed_loop
from .singular_solver import (
    PeriodicTrajectory,
    ScalarSolution,
    lift,
    make_periodic,
    singular_acceleration,
    solve_boundary,
)
from .transverse import (
    FamilyChart,
    GainSchedule,
    LtvModel,
    PeriodicMatrixSpline,
    TicTocChart,
    chart_invert,
    gramian,
    linearize,
    monodromy,
    periodic_lqr,
    wrap_angle,
)
from .vhc import (
    FamilyParameters,
    ParametricVhc,
    ReducedModel,
    SingularityReport,
    check_theorem1,
    family_reduced,
    family_vhc,
    find_family_parameters,
    reduce,
    tic_toc_reduced,
    tic_toc_vhc,
)

__version__ = "0.1.0"

# The names the README, the CLI and the benchmark use. Everything imported
# above stays importable from the package.
__all__ = [
    "BoundaryUnreachableError",
    "ConditionCheckError",
    "ConvergenceError",
    "DomainError",
    "FamilyChart",
    "FamilyParameters",
    "GainSchedule",
    "LtvModel",
    "MechanicalSystem",
    "ModelInvariantError",
    "OutsideTubeError",
    "PeriodicTrajectory",
    "ReducedModel",
    "ScalarSolution",
    "TicTocChart",
    "UsageError",
    "VhcplanError",
    "accessibility_det_closed_form",
    "accessibility_det_numeric",
    "certify_no_regular_vhc",
    "chart_invert",
    "check_theorem1",
    "eval_accel",
    "family_reduced",
    "find_family_parameters",
    "gramian",
    "inverse_input",
    "left_annihilator",
    "lift",
    "linearize",
    "make_periodic",
    "monodromy",
    "periodic_lqr",
    "pvtol_model",
    "reduce",
    "run_closed_loop",
    "singular_acceleration",
    "solve_boundary",
    "tic_toc_orbit",
    "tic_toc_reduced",
    "tic_toc_reference",
]
