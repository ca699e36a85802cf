"""Exception hierarchy for the sheet transport toolkit."""


class SheetPlanError(Exception):
    """Base class for all toolkit errors."""


# ---- geometry ----------------------------------------------------------
class DegenerateFormation(SheetPlanError):
    """Point set with no enclosing circle (an empty or non-finite set)."""


class InvalidHeight(SheetPlanError):
    """Object height is not below the holding plane."""


# ---- equilibrium solving ----------------------------------------------
class InfeasibleFormation(SheetPlanError):
    """Robot spacing exceeds the sheet's geodesic spacing (inelasticity violated)."""


class SingularSystem(SheetPlanError):
    """Taut-cable system has no interior hang minimum (inconsistent or indefinite)."""


class ContactOutsideHull(SheetPlanError):
    """Contact point fell outside the taut subset's hull."""


class NoConvergence(SheetPlanError):
    """Solved taut-cable state misses its residual tolerance."""


class InconsistentRedundancy(SheetPlanError):
    """A redundant taut cable violates its constraint at the solved position."""


class TooFewTaut(SheetPlanError):
    """Fewer than three cables flagged taut."""


class NoEquilibrium(SheetPlanError):
    """No candidate equilibrium validated (solver bug signal for feasible input)."""


# ---- inverse kinematics ------------------------------------------------
class CableTooShort(SheetPlanError):
    """Requested hang depth exceeds a cable's geodesic length."""


class InelasticityViolated(SheetPlanError):
    """Constructed robot pair spacing reaches or exceeds the sheet spacing."""


class NonConvexResult(SheetPlanError):
    """Constructed formation is not a counterclockwise convex polygon."""


class ObjectOutsideFormation(SheetPlanError):
    """Object anchor falls outside the constructed formation polygon."""


# ---- planning ----------------------------------------------------------
class NoFeasibleFormation(SheetPlanError):
    """No formation satisfies the crossing or bypassing constraints."""


class InvalidSchedule(SheetPlanError):
    """Crossing schedule violates its time ordering."""


class PlanInfeasible(SheetPlanError):
    """No crossing or bypassing plan exists for the obstacle."""


class PipelineInfeasible(SheetPlanError):
    """An obstacle in the scenario admits neither crossing nor bypassing."""

    def __init__(self, obstacle_index, message):
        super().__init__(message)
        self.obstacle_index = obstacle_index


# ---- scenario I/O ------------------------------------------------------
class ParseError(SheetPlanError):
    """Scenario file could not be parsed."""

    def __init__(self, line, message):
        super().__init__(f"line {line}: {message}")
        self.line = line


class ValidationError(SheetPlanError, ValueError):
    """An input value violates an invariant (a scenario field or an argument).

    Also a ValueError, so callers that catch ValueError keep catching it.
    """

    def __init__(self, field, message):
        super().__init__(f"{field}: {message}")
        self.field = field


class IoError(SheetPlanError):
    """Report files could not be written."""
