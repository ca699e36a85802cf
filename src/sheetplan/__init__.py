"""Multi-robot deformable-sheet transport: kinematics and motion planning."""

from .errors import (
    CableTooShort,
    ContactOutsideHull,
    DegenerateFormation,
    InconsistentRedundancy,
    InelasticityViolated,
    InfeasibleFormation,
    InvalidHeight,
    InvalidSchedule,
    IoError,
    NoConvergence,
    NoEquilibrium,
    NoFeasibleFormation,
    NonConvexResult,
    ObjectOutsideFormation,
    ParseError,
    PipelineInfeasible,
    PlanInfeasible,
    SheetPlanError,
    SingularSystem,
    TooFewTaut,
    ValidationError,
)
from .geometry import (
    Formation,
    FormationIndicators,
    LocalFrame,
    SafetyParams,
    SheetLayout,
    circumscribed_diameter,
    indicators,
    min_enclosing_circle,
    to_local_frame,
)
from .equilibrium import (
    CableState,
    ObjectEquilibrium,
    direct_kinematics,
    inverse_kinematics,
    oracle_equilibrium,
    solve_equilibrium,
)
from .optimizer import (
    CostWeights,
    FormationSolution,
    ObstacleSpec,
    cost_cross,
    cost_pass,
    cost_transport,
    optimize_formation,
)
from .planner import (
    CentroidPose,
    CrossingSchedule,
    PlanTimeline,
    crossing_path,
    crossing_pose,
    formation_to_robots,
    select_sides,
)
from .scenario import Scenario, load_formation_file, load_scenario
from .pipeline import RunReport, export_report, plan_local, run_pipeline

__version__ = "0.1.0"
