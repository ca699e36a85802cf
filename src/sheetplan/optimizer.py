"""Constrained formation-shape optimization for obstacle crossing.

Searches the all-taut chart (contact, hang height, cable bearing angles)
with a deterministic coordinate pattern search. Each poll of a sweep is one
pass over arrays from its probes' chart points to their values: stacked
inverse kinematics, one `solve_equilibria` stack, then indicators,
constraints and costs, each row rounded as alone. The first-improvement
rule is then replayed over the values, so the search accepts the points,
and counts the evaluations, of probing one point at a time. Crossing mode
must satisfy the corridor-width and obstacle traversability constraints
exactly; when no crossing formation exists the same machinery sizes a
bypass formation that fits beside the obstacle.

The reported cost terms (j_trans, j_pass, j_cross) keep the clearance-reward
sign convention of the cost definitions. Internally the search minimizes a
penalty-form variant of the crossing terms: reward signs provably diverge to
the fully stretched sheet, while the penalty form keeps the hang at the
lowest safe height, matching the measured formations the tests pin down.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .equilibrium import inverse_kinematics  # noqa: F401  the benchmark's span table wraps this name
from .equilibrium import (
    ObjectEquilibrium,
    inverse_kinematics_stack,
    solve_equilibria,
    solve_equilibrium,
)
from .errors import NoFeasibleFormation, SheetPlanError, ValidationError
from .geometry import (
    Formation,
    FormationIndicators,
    SafetyParams,
    dot,
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


def _square(x):
    """x ** 2 of a float, or of each entry of a 1-D array as of a float: libm's
    pow, which rounds unlike numpy's array square on about 1 input in 1,000."""
    return x ** 2 if np.ndim(x) == 0 else np.array([e ** 2 for e in x.tolist()])


def cost_transport(candidate, initial: Formation,
                   candidate_contact, initial_contact, weights: CostWeights):
    """Transport cost: contact drift plus ordered-pair spacing changes; for a
    stack (..., n, 2) of candidate robots with a contact (..., 2) each, one
    cost per candidate."""
    if isinstance(candidate, Formation):
        candidate = candidate.robot_positions
    dv = np.asarray(candidate_contact, dtype=float) - np.asarray(initial_contact, dtype=float)
    d = pair_distances(candidate) - pair_distances(initial.robot_positions)
    n = initial.n
    i, j = pair_index(n)
    terms = np.zeros(d.shape[:-1] + (n, n))
    terms[..., i, j] = terms[..., j, i] = weights.l2 * d * d
    # added one ordered pair at a time, in row-major order, so that the sum
    # rounds the same whatever numpy's summation order
    ordered = np.concatenate([weights.l1 * dot(dv, dv)[..., None],
                              terms[..., ~np.eye(n, dtype=bool)]], axis=-1)
    total = np.add.accumulate(ordered, axis=-1)[..., -1]
    return total if total.ndim else float(total)


def cost_pass(W, w_convex: float, weights: CostWeights):
    """Passable-area cost (reward form: favors a small outline)."""
    return -weights.l3 * _square(w_convex - W)


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
        self.v_o0 = eq0.sheet_contact
        # start point: the initial formation's own chart coordinates
        q0 = eq0.horizontal
        r0 = initial.robot_positions
        phis = np.arctan2(r0[:, 1] - q0[1], r0[:, 0] - q0[0])
        self.x0 = np.concatenate([eq0.sheet_contact, [eq0.z], phis])

    def decode(self, points):
        """Chart points (M, 3 + n) -> (ok, robots, contacts, indicators).

        A point decodes when one stacked inverse kinematics builds it at a
        positive height and the stacked solve keeps every cable taut. `ok`
        (M,) marks them; their robots (K, n, 2), solved sheet contacts (K, 2)
        and indicators ((K,) arrays) follow, in order.
        """
        robots, code = inverse_kinematics_stack(self.layout, points[:, :2], points[:, 2],
                                                points[:, 3:])
        built = np.flatnonzero((code == 0) & (points[:, 2] > 0.0))
        eqs = solve_equilibria([Formation(robots[k], self.layout) for k in built])
        # an error, or a cable gone slack (taut constraint violated), rejects the point
        taut = [not isinstance(eq, SheetPlanError) and eq.taut_count == self.layout.n
                for eq in eqs]
        ok = np.zeros(len(points), dtype=bool)
        ok[built[taut]] = True
        eqs = [eq for eq, keep in zip(eqs, taut) if keep]
        contacts = np.array([eq.sheet_contact for eq in eqs]).reshape(-1, 2)
        heights = np.array([eq.z for eq in eqs])
        return ok, robots[ok], contacts, indicators(robots[ok], heights, self.safety)


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
    `fun` maps a stack of points (M, d) to their M values. Each poll stacks
    the sweep's remaining probes from the current point, cut at the
    remaining budget, and evaluates them in one call; the first probe that
    improves is accepted, its sign twin and the later probes are dropped, and
    the next poll starts at the next coordinate. The points, values and
    count are those of probing one point at a time. Returns (x, f,
    evaluations_used), counting only the probes that search would make.
    """
    steps = np.array(steps0, dtype=float)
    f0 = fun(x[None])[0]
    used = 1
    dims = len(x)
    while used < budget and float(np.max(steps)) > STEP_MIN:
        improved = False
        d = 0
        while d < dims and used < budget:
            coord = np.repeat(np.arange(d, dims), 2)[:budget - used]
            sign = np.resize([1.0, -1.0], len(coord))
            probes = np.repeat(x[None], len(coord), axis=0)
            probes[np.arange(len(coord)), coord] += sign * steps[coord]
            values = fun(probes)
            better = np.flatnonzero(values < f0 - 1e-15)
            if not len(better):
                used += len(coord)
                break
            k = int(better[0])
            used += k + 1
            x, f0 = probes[k].copy(), values[k]
            improved = True
            d = int(coord[k]) + 1
        if not improved:
            steps *= 0.5
    return x, f0, used


def _start_chart(initial: Formation, safety: SafetyParams) -> _Chart:
    """Chart of the first start whose own chart point decodes: the initial
    formation, else the first of 50 copies shrunk toward its centroid by
    0.95 each."""
    centroid = initial.centroid()
    points, factor = initial.robot_positions, 1.0
    for _ in range(51):
        try:
            chart = _Chart(Formation(points, initial.layout), safety)
            if chart.decode(chart.x0[None])[0][0]:
                return chart
        except SheetPlanError:
            pass
        factor *= 0.95
        points = centroid + factor * (initial.robot_positions - centroid)
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
    chart = _start_chart(initial, safety)
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

    def objective(robots, contacts, ind):
        j = cost_transport(robots, chart.initial, contacts, chart.v_o0, weights)
        j += cost_pass(ind.W, w_convex, weights)
        if mode == "crossing":
            # penalty-form crossing terms (see module docstring)
            j += weights.l4 * _square(ind.z_obsmax - obstacle.z_obs)
            j += weights.l5 * _square(np.maximum(obstacle.d_obs - ind.d_obsmax, 0.0))
        return j

    def violation(points):
        ok, _, _, ind = chart.decode(points)
        values = np.full(len(points), np.inf)
        values[ok] = sum(_square(np.maximum(c, 0.0)) for c in constraint_values(ind))
        return values

    def hard_cost(points):
        ok, robots, contacts, ind = chart.decode(points)
        values = np.full(len(points), np.inf)
        infeasible = np.any([c > CONSTRAINT_TOL for c in constraint_values(ind)], axis=0)
        values[ok] = np.where(infeasible, np.inf, objective(robots, contacts, ind))
        return values

    n = chart.layout.n
    steps0 = np.concatenate([[0.05, 0.05, 0.05], 0.1 * np.ones(n)])
    x = chart.x0.copy()
    used = 0
    if violation(x[None])[0] > 0:
        x, fv, used = _pattern_search(x, violation, EVAL_BUDGET // 2, steps0)
        if fv > 0:
            return None
    x, _, more = _pattern_search(x, hard_cost, EVAL_BUDGET - used, steps0)
    used += more

    ok, robots, _, ind = chart.decode(x[None])
    if not ok[0] or any(c[0] > CONSTRAINT_TOL for c in constraint_values(ind)):
        return None
    # recenter on the formation centroid and re-solve with full discovery
    formation = Formation(robots[0] - robots[0].mean(axis=0), chart.layout)
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
