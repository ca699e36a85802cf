"""Constrained formation-shape optimization for obstacle crossing.

Searches the all-taut chart (contact, hang height, cable bearing angles)
with a deterministic coordinate pattern search. Crossing mode must satisfy
the corridor-width and obstacle traversability constraints exactly; when no
crossing formation exists the same machinery sizes a bypass formation that
fits beside the obstacle.

The reported cost terms (j_trans, j_pass, j_cross) keep the clearance-reward
sign convention of the cost definitions. Internally the search minimizes a
penalty-form variant of the crossing terms: reward signs provably diverge to
the fully stretched sheet, while the penalty form keeps the hang at the
lowest safe height, matching the measured formations the tests pin down.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .equilibrium import ObjectEquilibrium, inverse_kinematics, solve_equilibrium
from .errors import NoFeasibleFormation, SheetPlanError, ValidationError
from .geometry import (
    Formation,
    FormationIndicators,
    SafetyParams,
    indicators,
    pair_distances,
    pair_index,
    require_finite,
    require_positive,
)

EVAL_BUDGET = 500
STEP_MIN = 1e-5
CONSTRAINT_TOL = 1e-9


@dataclass(frozen=True)
class CostWeights:
    """Weights of the transport, passable-area and crossing cost terms."""

    l1: float = 1.0
    l2: float = 1.0
    l3: float = 1.0
    l4: float = 10.0
    l5: float = 10.0

    def __post_init__(self):
        for name in ("l1", "l2", "l3", "l4", "l5"):
            require_positive(name, getattr(self, name))


@dataclass(frozen=True)
class ObstacleSpec:
    """Cylindrical obstacle: planar center, radius and height.

    Zero radius/height degenerate obstacles are allowed for trivial-crossing
    tests; scenario files require a positive radius.
    """

    center: np.ndarray
    radius: float
    height: float

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        require_finite("center", self.center)
        require_finite("radius", self.radius)
        require_finite("height", self.height)
        for name in ("radius", "height"):
            if getattr(self, name) < 0:
                raise ValidationError(name, "must be nonnegative")

    @property
    def d_obs(self) -> float:
        return 2.0 * self.radius

    @property
    def z_obs(self) -> float:
        return self.height


@dataclass(frozen=True)
class FormationSolution:
    """Optimized formation with its equilibrium, indicators and cost report."""

    formation: Formation
    equilibrium: ObjectEquilibrium
    indicators: FormationIndicators
    j_trans: float
    j_pass: float
    j_cross: float
    mode: str            # "crossing" | "bypassing" | "infeasible"
    evaluations: int


def cost_transport(candidate: Formation, initial: Formation,
                   candidate_contact, initial_contact, weights: CostWeights) -> float:
    """Transport cost: contact drift plus ordered-pair spacing changes."""
    dv = np.asarray(candidate_contact, dtype=float) - np.asarray(initial_contact, dtype=float)
    d = pair_distances(candidate.robot_positions) - pair_distances(initial.robot_positions)
    n = candidate.n
    i, j = pair_index(n)
    terms = np.zeros((n, n))
    terms[i, j] = terms[j, i] = weights.l2 * d * d
    # added one ordered pair at a time, in row-major order, so that the sum
    # rounds the same whatever numpy's summation order
    ordered = np.append(weights.l1 * float(dv @ dv), terms[~np.eye(n, dtype=bool)])
    return float(np.add.accumulate(ordered)[-1])


def cost_pass(W: float, w_convex: float, weights: CostWeights) -> float:
    """Passable-area cost (reward form: favors a small outline)."""
    return -weights.l3 * (w_convex - W) ** 2


def cost_cross(ind: FormationIndicators, obstacle: ObstacleSpec, weights: CostWeights) -> float:
    """Crossing cost (clearance-reward form, reported as defined)."""
    return (
        -weights.l4 * (ind.z_obsmax - obstacle.z_obs) ** 2
        - weights.l5 * (ind.d_obsmax - obstacle.d_obs) ** 2
    )


class _Chart:
    """All-taut parametrization (contact, height, bearings) of formations."""

    def __init__(self, initial: Formation, safety: SafetyParams):
        self.layout = initial.layout
        self.initial = initial
        self.safety = safety
        eq0 = solve_equilibrium(initial)
        self.initial_eq = eq0
        self.v_o0 = eq0.sheet_contact
        # start point: the initial formation's own chart coordinates
        q0 = eq0.horizontal
        r0 = initial.robot_positions
        phis = np.arctan2(r0[:, 1] - q0[1], r0[:, 0] - q0[0])
        self.x0 = np.concatenate([eq0.sheet_contact, [eq0.z], phis])

    def decode(self, x):
        """Chart point -> (formation, equilibrium, indicators), or None."""
        v_o, z_o, phis = x[:2], float(x[2]), x[3:]
        if not 0.0 < z_o < self.layout.holding_height:
            return None
        try:
            formation = inverse_kinematics(self.layout, v_o, z_o, phis)
        except SheetPlanError:
            return None
        try:
            eq = solve_equilibrium(formation)
        except SheetPlanError:
            return None
        if eq.taut_count < formation.n:
            return None          # a cable went slack: taut constraint violated
        ind = indicators(formation, eq.z, self.safety)
        return formation, eq, ind


def crossing_constraints(ind: FormationIndicators, obstacle: ObstacleSpec, w_convex: float):
    """Crossing constraint values; a formation may cross when none exceeds CONSTRAINT_TOL."""
    return (
        ind.W - w_convex,
        obstacle.z_obs - ind.z_obsmax,
        obstacle.d_obs - ind.d_obsmax,
    )


def _pattern_search(x, fun, budget, steps0):
    """Deterministic coordinate descent with shrinking steps.

    Sweeps coordinates in order, probing +/- the current step; accepts the
    first improvement. A sweep without improvement halves every step.
    Returns (x, f, evaluations_used).
    """
    steps = np.array(steps0, dtype=float)
    f0 = fun(x)
    used = 1
    while used < budget and float(np.max(steps)) > STEP_MIN:
        improved = False
        for d in range(len(x)):
            for sign in (1.0, -1.0):
                if used >= budget:
                    break
                x_try = x.copy()
                x_try[d] += sign * steps[d]
                f_try = fun(x_try)
                used += 1
                if f_try < f0 - 1e-15:
                    x, f0 = x_try, f_try
                    improved = True
                    break
        if not improved:
            steps *= 0.5
    return x, f0, used


def _shrunk_start(initial: Formation, safety: SafetyParams):
    """Fallback start: shrink the initial formation toward its centroid."""
    centroid = initial.centroid()
    factor = 1.0
    for _ in range(50):
        factor *= 0.95
        pts = centroid + factor * (initial.robot_positions - centroid)
        try:
            candidate = Formation(pts, initial.layout)
            chart = _Chart(candidate, safety)
        except SheetPlanError:
            continue
        if chart.decode(chart.x0) is not None:
            return chart
    raise NoFeasibleFormation("no valid all-taut start found by uniform shrinking")


def optimize_formation(
    initial: Formation,
    obstacle: ObstacleSpec,
    w_convex: float,
    weights: CostWeights = CostWeights(),
    safety: SafetyParams = SafetyParams(),
) -> FormationSolution:
    """Optimal crossing (or bypassing) formation for one obstacle.

    Two deterministic phases over the all-taut chart: a feasibility phase
    that descends the squared constraint violation when the start is
    infeasible, then an objective phase with hard constraint rejection.
    Raises NoFeasibleFormation when neither crossing nor bypassing
    constraints can be met, and ValidationError unless w_convex is positive
    and finite.
    """
    require_positive("w_convex", w_convex)
    try:
        chart = _Chart(initial, safety)
        if chart.decode(chart.x0) is None:
            chart = _shrunk_start(initial, safety)
    except SheetPlanError:
        chart = _shrunk_start(initial, safety)

    crossing = _run_program(chart, obstacle, w_convex, weights, mode="crossing")
    if crossing is not None:
        return crossing
    bypassing = _run_program(chart, obstacle, w_convex, weights, mode="bypassing")
    if bypassing is not None:
        return bypassing
    raise NoFeasibleFormation(
        f"obstacle (d={obstacle.d_obs:.3f}, z={obstacle.z_obs:.3f}) admits no "
        f"crossing or bypassing formation within corridor width {w_convex:.3f}"
    )


def _run_program(chart, obstacle, w_convex, weights, mode):
    safety = chart.safety

    def constraint_values(ind):
        if mode == "crossing":
            return crossing_constraints(ind, obstacle, w_convex)
        # bypass: formation and obstacle must fit side by side
        return (ind.W - (w_convex - obstacle.d_obs - 2.0 * safety.delta_r),)

    def objective(decoded):
        formation, eq, ind = decoded
        j = cost_transport(formation, chart.initial, eq.sheet_contact,
                           chart.v_o0, weights)
        j += cost_pass(ind.W, w_convex, weights)
        if mode == "crossing":
            # penalty-form crossing terms (see module docstring)
            j += weights.l4 * (ind.z_obsmax - obstacle.z_obs) ** 2
            j += weights.l5 * max(obstacle.d_obs - ind.d_obsmax, 0.0) ** 2
        return j

    def violation(x):
        decoded = chart.decode(x)
        if decoded is None:
            return np.inf
        return sum(max(c, 0.0) ** 2 for c in constraint_values(decoded[2]))

    def hard_cost(x):
        decoded = chart.decode(x)
        if decoded is None:
            return np.inf
        if any(c > CONSTRAINT_TOL for c in constraint_values(decoded[2])):
            return np.inf
        return objective(decoded)

    n = chart.layout.n
    steps0 = np.concatenate([[0.05, 0.05, 0.05], 0.1 * np.ones(n)])
    x = chart.x0.copy()
    used = 0
    if violation(x) > 0:
        x, fv, used = _pattern_search(x, violation, EVAL_BUDGET // 2, steps0)
        if fv > 0:
            return None
    x, _, more = _pattern_search(x, hard_cost, EVAL_BUDGET - used, steps0)
    used += more

    decoded = chart.decode(x)
    if decoded is None or any(c > CONSTRAINT_TOL for c in constraint_values(decoded[2])):
        return None
    formation, eq, ind = decoded
    # recenter on the formation centroid and re-solve with full discovery
    formation = formation.translated(-formation.centroid())
    eq = solve_equilibrium(formation)
    if eq.taut_count < formation.n:
        return None
    ind = indicators(formation, eq.z, safety)
    return FormationSolution(
        formation=formation,
        equilibrium=eq,
        indicators=ind,
        j_trans=cost_transport(formation, chart.initial, eq.sheet_contact,
                               chart.v_o0, weights),
        j_pass=cost_pass(ind.W, w_convex, weights),
        j_cross=cost_cross(ind, obstacle, weights),
        mode=mode,
        evaluations=used,
    )
