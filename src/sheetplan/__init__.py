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
    MAX_ROBOTS,
    Formation,
    FormationIndicators,
    SafetyParams,
    SheetLayout,
    circumscribed_diameter,
    indicators,
    min_enclosing_circle,
)
from .equilibrium import (
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
    CrossingSchedule,
    PlanTimeline,
    crossing_pose,
    select_sides,
)
from .scenario import Scenario, load_formation_file, load_scenario
from .pipeline import RunReport, export_report, plan_local, run_pipeline

__version__ = "0.1.0"
