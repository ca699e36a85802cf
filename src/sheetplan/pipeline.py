"""End-to-end scenario runs: optimize, plan and simulate along a corridor.

For each obstacle in centerline order: optimize the formation shape, transit
along the corridor to the maneuver start, morph into the new shape in place,
then execute the crossing (or bypass) maneuver. The object's position is
re-solved from the cable model at every sample, and the whole run is
deterministic for a fixed scenario. `plan_local` samples the same maneuver
step for a single obstacle.

A crossing runs along a track parallel to the approach direction, offset
laterally into a robot-free channel through the formation, following the
four-step schedule of `planner.crossing_pose`. A bypass shifts the centroid
laterally around the obstacle along a trapezoid, with no rotation.

Robot offsets are carried in world orientation throughout; maneuvers apply
their rotation on top and fold it into the offsets when they finish, so the
sampled robot paths stay continuous across segment boundaries.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .equilibrium import solve_equilibrium
from .errors import IoError, PipelineInfeasible, PlanInfeasible, SheetPlanError, ValidationError
from .geometry import Formation, SafetyParams, pair_distances, pair_index, require_positive, rotation
from .optimizer import (
    CONSTRAINT_TOL,
    FormationSolution,
    ObstacleSpec,
    bypass_constraints,
    crossing_constraints,
    optimize_formation,
)
from .planner import (
    CrossingSchedule,
    PlanTimeline,
    crossing_pose,
    outward_normals,
    select_sides,
    wrap_angle,
)
from .scenario import DEFAULT_OMEGA, Scenario

FMT = "%.9g"
START_MARGIN = 0.05        # extra approach clearance before rotating in place


@dataclass(frozen=True)
class RunReport:
    """Concatenated timeline plus derived safety and tracking metrics."""

    scenario_name: str
    timeline: PlanTimeline
    obstacle_modes: tuple
    crossing_angles: tuple             # per obstacle: (theta1, theta2, exit_angle) or None
    min_vertical_clearance: float      # min (z_o - z_obs) while over an obstacle
    min_horizontal_clearance: float    # min robot distance to any obstacle disc
    robot_path_lengths: np.ndarray
    centerline_rmse: float
    final_object: np.ndarray
    goal: np.ndarray


def _track_offset(pts_in, pts_out, lateral, margin):
    """Lateral channel for the obstacle track through the formation.

    Every robot, at its offset pts_in (entry orientation) and pts_out
    (exit), must stay `margin` away from the line the obstacle sweeps
    through the polygon (a triangle always has a robot on the centroid line,
    so a centered track would hit it). Returns the feasible offset closest
    to the centroid line, or None when no channel is wide enough.
    """
    ys = np.sort(np.concatenate([pts_in @ lateral, pts_out @ lateral]))
    lo, hi = ys[:-1] + margin, ys[1:] - margin
    y = np.clip(0.0, lo, hi)[lo <= hi]
    # smallest lateral excursion; ties resolved toward positive y
    return float(y[np.lexsort((-y, np.abs(y)))[0]]) if len(y) else None


def _crossing_schedule(formation, offsets, r_max, obstacle, safety, approach, depart,
                       v, omega, dt):
    """Build the schedule plus the track geometry.

    offsets are the robots relative to the centroid and r_max their largest
    norm; approach/depart are world-frame unit directions. The returned
    abscissas are measured along the approach and track_y is the centroid
    track's lateral position relative to the obstacle center.
    """
    lateral = np.array([-approach[1], approach[0]])
    entering, exiting, theta1, theta2 = select_sides(formation, approach, depart)
    margin = obstacle.radius + safety.delta_r
    pts_in = offsets @ rotation(theta1).T
    pts_out = offsets @ rotation(theta1 + theta2).T
    y_off = _track_offset(pts_in, pts_out, lateral, margin + 1e-6)
    if y_off is None:
        raise PlanInfeasible(
            f"no robot-free channel of width {2 * margin:.3f} m through the formation"
        )
    # entering side line distance ahead of the centroid once aligned
    side = [entering, (entering + 1) % formation.n]
    d_in = float(0.5 * (pts_in[side] @ approach).sum())
    rear_extent = float(-np.min(pts_out @ approach))
    x_start = -(r_max + margin + START_MARGIN)
    x_enter_done = margin - d_in
    x_clear = rear_extent + margin
    T1 = max(abs(theta1) / omega, dt)
    T2 = T1 + (x_enter_done - x_start) / v
    T3 = T2 + abs(theta2) / omega
    T4 = T3 + (x_clear - x_enter_done) / v
    normals = outward_normals(formation.robot_positions)
    schedule = CrossingSchedule(
        theta1=theta1, theta2=theta2, T1=T1, T2=T2, T3=T3, T4=T4, v=v,
        entering_side=entering, exiting_side=exiting,
        n_in=normals[entering], n_out=normals[exiting],
    )
    return schedule, x_start, x_clear, -y_off


def _bypass_profile(solution, r_max, obstacle, w_convex, safety):
    """Lateral trapezoid offsets for a bypass: (leg length, shift); raises
    PlanInfeasible unless the outline meets `bypass_constraints`."""
    ind = solution.indicators
    shift = obstacle.radius + ind.W / 2.0 + safety.delta_r
    if bypass_constraints(ind, obstacle, w_convex, safety)[0] > CONSTRAINT_TOL:
        raise PlanInfeasible(
            f"bypass shift {shift:.3f} m does not fit a corridor of width {w_convex:.3f} m"
        )
    along = obstacle.radius + safety.delta_r + r_max
    return along, shift


def _translate_runner(xy_from, xy_to, theta, offsets, v):
    """Rigid straight-line translation between float (2,) points; offsets
    already world-oriented."""
    delta = xy_to - xy_from
    dist = float(np.linalg.norm(delta))
    duration = dist / v
    direction = delta / dist if dist > 0 else np.zeros(2)

    def fn(t):
        xy = xy_from + direction * (v * t)
        return xy, theta, xy + offsets

    return duration, fn


def _morph_runner(xy, theta, offsets_from, offsets_to, v):
    """In-place shape change at bounded robot speed (no rotation)."""
    disp = float(np.max(np.linalg.norm(offsets_to - offsets_from, axis=1)))
    duration = disp / v

    def fn(t):
        frac = min(t / duration, 1.0) if duration > 0 else 1.0
        offs = offsets_from + frac * (offsets_to - offsets_from)
        return xy, theta, xy + offs

    return duration, fn


def _crossing_runner(schedule, x_start, track_y, center, rot_w, theta_acc, offsets):
    """Four-step crossing maneuver; rotation applied on top of world offsets."""

    def fn(t):
        x, dtheta = crossing_pose(schedule, t)
        xy = center + rot_w @ np.array([x_start + x, track_y])
        return xy, theta_acc + dtheta, xy + offsets @ rotation(dtheta).T

    return schedule.T4, fn


def _transit_runners(xy_from, xy_to, corridor, theta, offsets, v):
    """Straight transit legs routed through intermediate corridor corners; a
    zero-length leg is a zero-duration segment, so there is at least one."""
    s_from = corridor.project(xy_from)
    s_to = corridor.project(xy_to)
    corners = [
        corridor.points[k]
        for k in range(1, len(corridor.points) - 1)
        if s_from + 1e-9 < corridor.arclengths[k] < s_to - 1e-9
    ]
    route = [xy_from, *corners, xy_to]
    return [_translate_runner(a, b, theta, offsets, v) for a, b in zip(route, route[1:])]


def _maneuver(solution, obstacle, w_convex, safety, approach, depart, v, omega, dt,
              theta_acc):
    """The crossing or bypass of one obstacle by the optimized formation.

    Returns (segments, start_xy, end_xy, schedule): the maneuver as a list
    of (duration, fn) segments starting at heading theta_acc (one crossing,
    or the three straight legs of the bypass trapezoid: shift out
    diagonally, pass, shift back), the world centroid where it starts and
    ends, and its CrossingSchedule (None for a bypass). Raises
    PlanInfeasible when the formation cannot make the maneuver.
    """
    rot_w = rotation(float(np.arctan2(approach[1], approach[0])))
    formation = solution.formation
    offsets = formation.robot_positions - formation.centroid()
    r_max = float(np.max(np.linalg.norm(offsets, axis=1)))
    if solution.mode == "crossing":
        schedule, x_start, x_end, track_y = _crossing_schedule(
            formation, offsets, r_max, obstacle, safety, approach, depart, v, omega, dt
        )
        segments = [_crossing_runner(
            schedule, x_start, track_y, obstacle.center, rot_w, theta_acc, offsets
        )]
        corners = [(x_start, track_y), (x_end, track_y)]
    elif solution.mode == "bypassing":
        along, shift = _bypass_profile(solution, r_max, obstacle, w_convex, safety)
        x0 = -(along + shift + r_max)
        corners = [(x0, 0.0), (x0 + shift, shift), (x0 + shift + 2 * along, shift),
                   (x0 + 2 * shift + 2 * along, 0.0)]
        schedule = None
    else:
        raise PlanInfeasible(f"no local plan for mode {solution.mode!r}")
    corners = [obstacle.center + rot_w @ np.array(c) for c in corners]
    if schedule is None:      # a bypass: one straight leg per side of the trapezoid
        segments = [_translate_runner(a, b, theta_acc, offsets, v)
                    for a, b in zip(corners, corners[1:])]
    return segments, corners[0], corners[-1], schedule


def run_pipeline(scenario: Scenario) -> RunReport:
    """Run the optimize/plan/simulate pipeline over a whole scenario.

    Raises PipelineInfeasible naming the first obstacle for which no
    formation is found or the chosen crossing or bypass cannot be planned,
    and (with the obstacle index None) a run whose object misses the goal.
    """
    corridor = scenario.corridor
    v = scenario.speed
    dt = scenario.dt
    segments = []      # (duration, fn(t) -> (xy, theta, robots))
    modes = []
    angles = []

    initial = scenario.initial_formation
    layout = initial.layout
    offsets = initial.robot_positions - initial.centroid()
    centroid = initial.centroid()
    theta_acc = 0.0

    for index, obstacle in enumerate(scenario.obstacles):
        s_obs = corridor.project(obstacle.center)
        approach = corridor.direction_at(max(s_obs - 1e-9, 0.0))
        depart = corridor.direction_at(min(s_obs + 1e-6, corridor.length))
        w_convex = corridor.width_at(s_obs)
        current = Formation(centroid + offsets, layout)
        try:
            solution = optimize_formation(
                current, obstacle, w_convex, scenario.weights, scenario.safety
            )
            maneuver, start_xy, end_xy, schedule = _maneuver(
                solution, obstacle, w_convex, scenario.safety, approach, depart,
                v, scenario.omega, dt, theta_acc,
            )
        except SheetPlanError as exc:
            raise PipelineInfeasible(index, f"obstacle {index}: {exc}") from exc
        new_offsets = solution.formation.robot_positions - solution.formation.centroid()
        segments.extend(_transit_runners(centroid, start_xy, corridor, theta_acc, offsets, v))
        segments.append(_morph_runner(start_xy, theta_acc, offsets, new_offsets, v))
        segments.extend(maneuver)
        centroid = end_xy
        if schedule is None:
            modes.append("bypassed")
            angles.append(None)
            offsets = new_offsets
            continue
        modes.append("crossed")
        turn = schedule.theta1 + schedule.theta2
        n_out_world = rotation(turn) @ schedule.n_out
        exit_angle = wrap_angle(
            float(np.arctan2(n_out_world[1], n_out_world[0]))
            - float(np.arctan2(depart[1], depart[0]))
        )
        angles.append((schedule.theta1, schedule.theta2, exit_angle))
        theta_acc += turn
        offsets = new_offsets @ rotation(turn).T

    # final transit: land the object on the goal
    placed = Formation(centroid + offsets, layout)
    eq = solve_equilibrium(placed)
    object_offset = eq.horizontal - centroid
    target = np.asarray(scenario.goal, dtype=float) - object_offset
    segments.extend(_transit_runners(centroid, target, corridor, theta_acc, offsets, v))

    timeline = _sample_segments(segments, layout, dt, "pipeline", None)
    return _build_report(scenario, timeline, modes, angles)


def plan_local(
    solution: FormationSolution,
    obstacle: ObstacleSpec,
    w_convex: float,
    dt: float,
    v: float,
    omega: float = DEFAULT_OMEGA,
    safety: SafetyParams = SafetyParams(),
    approach=(1.0, 0.0),
    depart=None,
) -> PlanTimeline:
    """Generate the local timeline that takes the formation past one obstacle.

    Crossing mode follows the four-step schedule through the obstacle;
    bypass mode shifts laterally around it. This is the maneuver step of
    `run_pipeline`, sampled on its own. PlanInfeasible is raised when no
    safe motion exists: a crossing formation that misses the crossing
    constraints, a maneuver that cannot be planned, or a sample that breaks
    the object or robot clearance. ValidationError is raised when dt, v or
    omega is not positive and finite, or a direction has zero length.
    """
    for name, value in (("dt", dt), ("v", v), ("omega", omega)):
        require_positive(name, value)
    approach = _unit("approach", approach)
    depart = approach if depart is None else _unit("depart", depart)
    segments, _, _, schedule = _maneuver(
        solution, obstacle, w_convex, safety, approach, depart, v, omega, dt, 0.0
    )
    if schedule is not None and any(
        c > CONSTRAINT_TOL for c in crossing_constraints(solution.indicators, obstacle, w_convex)
    ):
        raise PlanInfeasible("formation does not satisfy the crossing constraints")
    timeline = _sample_segments(segments, solution.formation.layout, dt, solution.mode, schedule)
    (vert,), (robot,) = _clearances(timeline, [obstacle], safety)
    if not (vert >= safety.z_safe - 1e-9):
        raise PlanInfeasible(f"object clearance {vert:.4f} m below z_safe")
    if not (robot >= safety.delta_r - 1e-9):
        raise PlanInfeasible(f"robot clearance {robot:.4f} m below delta_r")
    return timeline


def _unit(field, direction):
    """`direction` scaled to unit length; ValidationError unless nonzero and finite."""
    d = np.asarray(direction, dtype=float)
    norm = float(np.linalg.norm(d))
    if not (np.isfinite(norm) and norm > 0):
        raise ValidationError(field, f"must be a nonzero finite direction, got {direction}")
    return d / norm


def _clearances(timeline: PlanTimeline, obstacles, safety: SafetyParams):
    """Least object and robot clearance at each obstacle along a timeline.

    Returns two lists: the object's least height above the obstacle top
    while over its margin disc (+inf when it never is), and the robots'
    least distance to its disc. A position not clearly outside the disc
    counts as over it, and a NaN makes the clearance NaN; callers check
    `not (x >= bound)` so that a NaN fails.
    """
    vertical, robot = [], []
    for obstacle in obstacles:
        horiz = np.linalg.norm(timeline.objects[:, :2] - obstacle.center, axis=1)
        over = ~(horiz > obstacle.radius + safety.delta_r)
        vertical.append(
            float(np.min(timeline.objects[over, 2]) - obstacle.z_obs)
            if np.any(over) else np.inf
        )
        robot_d = np.linalg.norm(timeline.robots - obstacle.center[None, None, :], axis=2)
        robot.append(float(np.min(robot_d) - obstacle.radius))
    return vertical, robot


def _sample_segments(segments, layout, dt, mode, schedule) -> PlanTimeline:
    """Sample piecewise maneuvers into a full timeline.

    segments: a nonempty list of (duration, fn) with fn(t_local) -> (xy,
    theta, robots) in world coordinates; the object equilibrium is re-solved
    at every sample from the placed formation.
    """
    total = sum(d for d, _ in segments)
    count = int(np.ceil(total / dt - 1e-9)) + 1
    times = np.arange(count) * dt
    n = layout.n
    poses = np.zeros((count, 3))
    robots = np.zeros((count, n, 2))
    objects = np.zeros((count, 3))
    contacts = np.zeros((count, 2))
    taut = np.zeros((count, n), dtype=bool)
    for k, t in enumerate(times):
        t_rel = min(float(t), total)
        for i, (duration, fn) in enumerate(segments):
            if t_rel <= duration + 1e-12 or i == len(segments) - 1:
                xy, theta, robot_pts = fn(min(t_rel, duration))
                break
            t_rel -= duration
        poses[k] = [xy[0], xy[1], theta]
        robots[k] = robot_pts
        placed = Formation(robot_pts, layout)
        eq = solve_equilibrium(placed)
        objects[k] = eq.world_position
        contacts[k] = eq.sheet_contact
        taut[k] = eq.taut
    return PlanTimeline(
        times=times, poses=poses, robots=robots, objects=objects,
        contacts=contacts, taut=taut, mode=mode, schedule=schedule,
    )


def _build_report(scenario, timeline, modes, angles) -> RunReport:
    """Derive the run metrics and re-check every clearance on the samples,
    the object's to the ground and the robots' to the corridor walls included.

    Checks are written as `not (x >= bound)` so that a NaN fails them.
    """
    safety = scenario.safety
    corridor = scenario.corridor
    vertical, robot_clearances = _clearances(timeline, scenario.obstacles, safety)
    for index, vert in enumerate(vertical):
        if modes[index] == "crossed" and not (vert >= safety.z_safe - 1e-9):
            raise PipelineInfeasible(
                index, f"object clearance {vert:.4f} below z_safe over obstacle {index}"
            )
    low = np.flatnonzero(~(timeline.objects[:, 2] >= safety.z_safe - 1e-9))
    if len(low):
        k = low[0]
        raise PipelineInfeasible(None, f"object {timeline.objects[k, 2]:.4f} m above the ground, "
                                       f"below z_safe, at t = {timeline.times[k]:.2f} s")
    min_vert = min(vertical, default=np.inf)
    min_horiz = np.inf
    if robot_clearances:
        worst = int(np.argmin(robot_clearances))
        min_horiz = robot_clearances[worst]
        if not (min_horiz >= safety.delta_r - 1e-9):
            raise PipelineInfeasible(
                worst, f"robot clearance {min_horiz:.4f} below delta_r at obstacle {worst}"
            )
    robots = timeline.robots      # each within half its segment's width of the centerline
    room = corridor.width_at(corridor.project(robots)) / 2 - corridor.distance_to(robots)
    k, i = np.unravel_index(np.argmin(room), room.shape)
    if not (room[k, i] >= -1e-9):
        near = min(range(len(scenario.obstacles)), default=None,
                   key=lambda j: np.linalg.norm(robots[k, i] - scenario.obstacles[j].center))
        raise PipelineInfeasible(near, f"robot {i} is {-room[k, i]:.4f} m past the corridor wall "
                                       f"at t = {timeline.times[k]:.2f} s (near obstacle {near})")
    path_lengths = np.sum(
        np.linalg.norm(np.diff(timeline.robots, axis=0), axis=2), axis=0
    )
    deviations = corridor.distance_to(timeline.objects[:, :2])
    rmse = float(np.sqrt(np.mean(deviations**2)))
    final_object = timeline.objects[-1]
    miss = np.linalg.norm(final_object[:2] - scenario.goal)
    if not (miss <= 2.0 * scenario.speed * scenario.dt):
        raise PipelineInfeasible(
            None, f"final object {final_object[:2]} missed the goal {scenario.goal}"
        )
    return RunReport(
        scenario_name=scenario.name,
        timeline=timeline,
        obstacle_modes=tuple(modes),
        crossing_angles=tuple(angles),
        min_vertical_clearance=min_vert,
        min_horizontal_clearance=min_horiz,
        robot_path_lengths=path_lengths,
        centerline_rmse=rmse,
        final_object=final_object,
        goal=np.asarray(scenario.goal, dtype=float),
    )


# ------------------------------------------------------------------ export
def _fmt_row(values):
    return ",".join(FMT % val for val in values)


def _write_table(path, columns, table):
    """One CSV file: the header line, then one FMT-formatted line per table row."""
    with open(path, "w", encoding="utf-8") as fh:
        np.savetxt(fh, table, fmt=FMT, delimiter=",", header=",".join(columns), comments="")


def export_report(report: RunReport, out_dir) -> list:
    """Write trajectory table, metrics summary and plot series files.

    trajectory.csv columns: t, per-robot x/y, object x/y/z, sheet contact
    x/y, formation rotation theta, then one taut flag per cable. All numbers
    carry 9 significant digits so runs diff cleanly.
    """
    tl = report.timeline
    n = tl.robots.shape[1]
    names = ("trajectory.csv", "metrics.txt", "height_profile.csv", "pairwise_distances.csv")
    paths = [os.path.join(out_dir, name) for name in names]
    traj, metrics, height, pairs = paths
    try:
        os.makedirs(out_dir, exist_ok=True)
        cols = ["t"] + [f"{a}_r{i + 1}" for i in range(n) for a in "xy"]
        cols += ["x_o", "y_o", "z_o", "x_vo", "y_vo", "theta"]
        cols += [f"taut_{i + 1}" for i in range(n)]
        table = np.column_stack([tl.times, tl.robots.reshape(len(tl), 2 * n), tl.objects,
                                 tl.contacts, tl.poses[:, 2], tl.taut])
        _write_table(traj, cols, table)

        lines = [
            f"scenario = {report.scenario_name}",
            f"samples = {len(tl)}",
            "duration = " + FMT % (tl.times[-1] if len(tl) else 0.0),
            "obstacle_modes = " + " ".join(report.obstacle_modes),
        ]
        lines += [f"obstacle_{i + 1}_angles_deg = " + _fmt_row(np.rad2deg(ang))
                  for i, ang in enumerate(report.crossing_angles) if ang is not None]
        lines += [
            "min_object_vertical_clearance = " + FMT % report.min_vertical_clearance,
            "min_robot_horizontal_clearance = " + FMT % report.min_horizontal_clearance,
        ]
        lines += [f"robot_{i + 1}_path_length = " + FMT % length
                  for i, length in enumerate(report.robot_path_lengths)]
        lines += [
            "object_centerline_rmse = " + FMT % report.centerline_rmse,
            "final_object = " + _fmt_row(report.final_object),
            "goal = " + _fmt_row(report.goal),
        ]
        with open(metrics, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        _write_table(height, ["t", "z_o"], np.column_stack([tl.times, tl.objects[:, 2]]))
        labels = [f"d_{i + 1}_{j + 1}" for i, j in pair_index(n).T]
        _write_table(pairs, ["t"] + labels, np.column_stack([tl.times, pair_distances(tl.robots)]))
        return paths
    except OSError as exc:
        raise IoError(f"failed writing report to {out_dir}: {exc}") from exc
