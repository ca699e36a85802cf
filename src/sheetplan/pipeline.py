"""End-to-end scenario runs: optimize, plan and simulate along a corridor.

For each obstacle in centerline order: optimize the formation shape, transit
along the corridor to the maneuver start, morph into the new shape in place,
then execute the crossing (or bypass) maneuver. The object's position is
re-solved from the cable model at every sample, and the whole run is
deterministic for a fixed scenario. `plan_local` is the same sampler run
over a single maneuver.

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
from .errors import IoError, PipelineInfeasible, PlanInfeasible, SheetPlanError
from .geometry import Formation, SafetyParams, rotation
from .optimizer import FormationSolution, ObstacleSpec, optimize_formation
from .planner import (
    CrossingSchedule,
    PlanTimeline,
    crossing_pose,
    outward_normals,
    select_sides,
    wrap_angle,
)
from .scenario import Scenario

FMT = "%.9g"
DEFAULT_OMEGA = 0.2        # rad/s, rotation rate of the formation
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
    dt: float


def _track_offset(offsets, lateral, theta1, theta2, margin):
    """Lateral channel for the obstacle track through the formation.

    The obstacle sweeps a line parallel to the motion through the polygon;
    every robot must stay `margin` away from it in both the entry and exit
    orientations (a triangle always has a robot on the centroid line, so a
    centered track would hit it). Returns the feasible offset closest to
    the centroid line, or None when no channel is wide enough.
    """
    ys = []
    for ang in (theta1, theta1 + theta2):
        ys.extend((offsets @ rotation(ang).T) @ lateral)
    ys = np.sort(np.asarray(ys))
    candidates = []
    for a, b in zip(ys, ys[1:]):
        lo, hi = a + margin, b - margin
        if hi < lo:
            continue
        candidates.append(float(np.clip(0.0, lo, hi)))
    if not candidates:
        return None
    # smallest lateral excursion; ties resolved toward positive y
    return min(candidates, key=lambda y: (abs(y), -np.sign(y)))


def _crossing_schedule(solution, obstacle, safety, approach, depart, v, omega, dt):
    """Build the schedule plus the track geometry.

    approach/depart are world-frame unit directions; the returned abscissas
    are measured along the approach and track_y is the centroid track's
    lateral position relative to the obstacle center.
    """
    formation = solution.formation
    approach = np.asarray(approach, dtype=float)
    lateral = np.array([-approach[1], approach[0]])
    entering, exiting, theta1, theta2 = select_sides(formation, approach, depart)
    offsets = formation.robot_positions - formation.centroid()
    r_max = float(np.max(np.linalg.norm(offsets, axis=1)))
    margin = obstacle.radius + safety.delta_r
    y_off = _track_offset(offsets, lateral, theta1, theta2, margin + 1e-6)
    if y_off is None:
        raise PlanInfeasible(
            f"no robot-free channel of width {2 * margin:.3f} m through the formation"
        )
    # entering side line distance ahead of the centroid once aligned
    pts_in = offsets @ rotation(theta1).T
    side = [entering, (entering + 1) % formation.n]
    d_in = float(0.5 * (pts_in[side] @ approach).sum())
    pts_out = offsets @ rotation(theta1 + theta2).T
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


def _bypass_profile(solution, obstacle, w_convex, safety):
    """Lateral trapezoid offsets for a bypass: (leg length, shift)."""
    W = solution.indicators.W
    shift = obstacle.radius + W / 2.0 + safety.delta_r
    if shift + W / 2.0 > w_convex / 2.0 + 1e-9:
        raise PlanInfeasible(
            f"bypass shift {shift:.3f} m does not fit a corridor of width {w_convex:.3f} m"
        )
    offsets = solution.formation.robot_positions - solution.formation.centroid()
    r_max = float(np.max(np.linalg.norm(offsets, axis=1)))
    along = obstacle.radius + safety.delta_r + r_max
    return along, shift


def _translate_runner(xy_from, xy_to, theta, offsets, v):
    """Rigid straight-line translation; offsets already world-oriented."""
    xy_from = np.asarray(xy_from, dtype=float)
    xy_to = np.asarray(xy_to, dtype=float)
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
    xy = np.asarray(xy, dtype=float)
    disp = float(np.max(np.linalg.norm(offsets_to - offsets_from, axis=1)))
    duration = disp / v

    def fn(t):
        frac = min(t / duration, 1.0) if duration > 0 else 1.0
        offs = offsets_from + frac * (offsets_to - offsets_from)
        return xy, theta, xy + offs

    return duration, fn


def _crossing_runner(schedule, x_start, track_y, center, psi, theta_acc, offsets):
    """Four-step crossing maneuver; rotation applied on top of world offsets."""
    rot_w = rotation(psi)

    def fn(t):
        x, dtheta = crossing_pose(schedule, t)
        xy = center + rot_w @ np.array([x_start + x, track_y])
        return xy, theta_acc + dtheta, xy + offsets @ rotation(dtheta).T

    return schedule.T4, fn


def _bypass_runner(obstacle, psi, theta_acc, offsets, along, shift, v):
    """Bypass trapezoid: shift out diagonally, pass straight, shift back."""
    rot_w = rotation(psi)
    r_max = float(np.max(np.linalg.norm(offsets, axis=1)))
    x0 = -(along + shift + r_max)
    t_diag = float(np.hypot(shift, shift)) / v
    t_pass = 2.0 * along / v
    total = 2 * t_diag + t_pass
    x_end = float(x0 + 2 * shift + t_pass * v)

    def fn(t):
        if t <= t_diag:
            frac = t / t_diag if t_diag > 0 else 1.0
            loc = np.array([x0 + frac * shift, frac * shift])
        elif t <= t_diag + t_pass:
            loc = np.array([x0 + shift + (t - t_diag) * v, shift])
        elif t <= total:
            frac = (t - t_diag - t_pass) / t_diag if t_diag > 0 else 1.0
            loc = np.array([x0 + shift + t_pass * v + frac * shift, (1 - frac) * shift])
        else:
            loc = np.array([x_end, 0.0])
        xy = obstacle.center + rot_w @ loc
        return xy, theta_acc, xy + offsets

    return total, fn, x0, x_end


def _transit_runners(xy_from, xy_to, corridor, theta, offsets, v):
    """Straight transit legs routed through intermediate corridor corners."""
    s_from = corridor.project(xy_from)
    s_to = corridor.project(xy_to)
    cum = np.concatenate([[0.0], np.cumsum(corridor.segment_lengths)])
    corners = [
        corridor.points[k]
        for k in range(1, len(corridor.points) - 1)
        if s_from + 1e-9 < cum[k] < s_to - 1e-9
    ]
    route = [np.asarray(xy_from, dtype=float)] + corners + [np.asarray(xy_to, dtype=float)]
    runners = []
    for a, b in zip(route, route[1:]):
        if np.linalg.norm(np.asarray(b) - np.asarray(a)) < 1e-12:
            continue
        runners.append(_translate_runner(a, b, theta, offsets, v))
    return runners


def run_pipeline(scenario: Scenario) -> RunReport:
    """Run the optimize/plan/simulate pipeline over a whole scenario.

    Raises PipelineInfeasible naming the first obstacle that admits neither
    a crossing nor a bypassing plan.
    """
    corridor = scenario.corridor
    v = scenario.speed
    dt = scenario.dt
    segments = []      # (duration, fn(t) -> (xy, theta, robots))
    modes = []
    angles = []

    layout = scenario.initial_formation.layout
    offsets = (
        scenario.initial_formation.robot_positions
        - scenario.initial_formation.centroid()
    )
    centroid = scenario.initial_formation.centroid()
    theta_acc = 0.0

    for index, obstacle in enumerate(scenario.obstacles):
        s_obs = corridor.project(obstacle.center)
        approach = corridor.direction_at(max(s_obs - 1e-9, 0.0))
        depart = corridor.direction_at(min(s_obs + 1e-6, corridor.length))
        w_convex = corridor.width_at(s_obs)
        psi = float(np.arctan2(approach[1], approach[0]))
        current = Formation(centroid + offsets, layout)
        try:
            solution = optimize_formation(
                current, obstacle, w_convex, scenario.weights, scenario.safety
            )
        except SheetPlanError as exc:
            raise PipelineInfeasible(index, f"obstacle {index}: {exc}") from exc
        modes.append("crossed" if solution.mode == "crossing" else "bypassed")
        new_offsets = (
            solution.formation.robot_positions - solution.formation.centroid()
        )

        if solution.mode == "crossing":
            schedule, x_start, x_clear, track_y = _crossing_schedule(
                solution, obstacle, scenario.safety, approach, depart,
                v, scenario.omega, dt,
            )
            start_xy = obstacle.center + rotation(psi) @ np.array([x_start, track_y])
            segments.extend(
                _transit_runners(centroid, start_xy, corridor, theta_acc, offsets, v)
            )
            segments.append(_morph_runner(start_xy, theta_acc, offsets, new_offsets, v))
            segments.append(
                _crossing_runner(schedule, x_start, track_y, obstacle.center, psi,
                                 theta_acc, new_offsets)
            )
            turn = schedule.theta1 + schedule.theta2
            n_out_world = rotation(turn) @ schedule.n_out
            exit_angle = wrap_angle(
                float(np.arctan2(n_out_world[1], n_out_world[0]))
                - float(np.arctan2(depart[1], depart[0]))
            )
            angles.append((schedule.theta1, schedule.theta2, exit_angle))
            theta_acc += turn
            offsets = new_offsets @ rotation(turn).T
            centroid = obstacle.center + rotation(psi) @ np.array([x_clear, track_y])
        else:
            try:
                along, shift = _bypass_profile(
                    solution, obstacle, w_convex, scenario.safety
                )
            except SheetPlanError as exc:
                raise PipelineInfeasible(index, f"obstacle {index}: {exc}") from exc
            total, fn, x0, x_end = _bypass_runner(
                obstacle, psi, theta_acc, new_offsets, along, shift, v
            )
            start_xy = obstacle.center + rotation(psi) @ np.array([x0, 0.0])
            segments.extend(
                _transit_runners(centroid, start_xy, corridor, theta_acc, offsets, v)
            )
            segments.append(_morph_runner(start_xy, theta_acc, offsets, new_offsets, v))
            segments.append((total, fn))
            angles.append(None)
            offsets = new_offsets
            centroid = obstacle.center + rotation(psi) @ np.array([x_end, 0.0])

    # final transit: land the object on the goal
    placed = Formation(centroid + offsets, layout)
    eq = solve_equilibrium(placed, fast=True)
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
    bypass mode shifts laterally around it. Both are the maneuvers of
    `run_pipeline`, sampled on their own. The sampled timeline is verified
    against the object and robot clearance requirements and PlanInfeasible
    is raised when no safe motion exists.
    """
    approach = np.asarray(approach, dtype=float)
    approach = approach / np.linalg.norm(approach)
    depart_v = approach if depart is None else np.asarray(depart, dtype=float)
    depart_v = depart_v / np.linalg.norm(depart_v)
    psi = float(np.arctan2(approach[1], approach[0]))
    formation = solution.formation
    offsets = formation.robot_positions - formation.centroid()
    ind = solution.indicators

    if solution.mode == "crossing":
        if (obstacle.z_obs > ind.z_obsmax + 1e-9
                or obstacle.d_obs > ind.d_obsmax + 1e-9
                or ind.W > w_convex + 1e-9):
            raise PlanInfeasible("formation does not satisfy the crossing constraints")
        schedule, x_start, _, track_y = _crossing_schedule(
            solution, obstacle, safety, approach, depart_v, v, omega, dt
        )
        segment = _crossing_runner(
            schedule, x_start, track_y, obstacle.center, psi, 0.0, offsets
        )
        mode = "crossing"
    elif solution.mode == "bypassing":
        along, shift = _bypass_profile(solution, obstacle, w_convex, safety)
        total, fn, _, _ = _bypass_runner(obstacle, psi, 0.0, offsets, along, shift, v)
        segment, schedule, mode = (total, fn), None, "bypassing"
    else:
        raise PlanInfeasible(f"no local plan for mode {solution.mode!r}")

    timeline = _sample_segments([segment], formation.layout, dt, mode, schedule)
    _verify_clearances(timeline, obstacle, safety)
    return timeline


def _verify_clearances(timeline: PlanTimeline, obstacle: ObstacleSpec, safety: SafetyParams):
    """Object must clear the obstacle top; robots must clear its disc.

    Written as `not (x >= bound)` so that a NaN fails the check.
    """
    for k in range(len(timeline)):
        obj = timeline.objects[k]
        horiz = float(np.linalg.norm(obj[:2] - obstacle.center))
        if not (horiz > obstacle.radius + safety.delta_r):
            if not (obj[2] - obstacle.z_obs >= safety.z_safe - 1e-9):
                raise PlanInfeasible(
                    f"object clearance {obj[2] - obstacle.z_obs:.4f} m below "
                    f"z_safe at t={timeline.times[k]:.2f}"
                )
        dists = np.linalg.norm(timeline.robots[k] - obstacle.center, axis=1)
        if not (float(np.min(dists)) >= obstacle.radius + safety.delta_r - 1e-9):
            raise PlanInfeasible(
                f"robot within the obstacle margin at t={timeline.times[k]:.2f}"
            )


def _sample_segments(segments, layout, dt, mode, schedule) -> PlanTimeline:
    """Sample piecewise maneuvers into a full timeline.

    segments: list of (duration, fn) with fn(t_local) -> (xy, theta, robots)
    in world coordinates; the object equilibrium is re-solved at every
    sample from the placed formation.
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
        xy, theta, robot_pts = None, 0.0, None
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
        taut[k] = [c.taut for c in eq.cables]
    return PlanTimeline(
        times=times, poses=poses, robots=robots, objects=objects,
        contacts=contacts, taut=taut, mode=mode, schedule=schedule,
    )


def _build_report(scenario, timeline, modes, angles) -> RunReport:
    """Derive the run metrics and re-check every clearance on the samples.

    Checks are written as `not (x >= bound)` so that a NaN fails them.
    """
    safety = scenario.safety
    min_vert = np.inf
    robot_clearances = []              # per obstacle: min robot distance to its disc
    for index, obstacle in enumerate(scenario.obstacles):
        horiz = np.linalg.norm(timeline.objects[:, :2] - obstacle.center, axis=1)
        over = ~(horiz > obstacle.radius + safety.delta_r)
        if np.any(over):
            vert = float(np.min(timeline.objects[over, 2]) - obstacle.z_obs)
            min_vert = min(min_vert, vert)
            if modes[index] == "crossed" and not (vert >= safety.z_safe - 1e-9):
                raise PipelineInfeasible(
                    index, f"object clearance {vert:.4f} below z_safe over obstacle {index}"
                )
        robot_d = np.linalg.norm(
            timeline.robots - obstacle.center[None, None, :], axis=2
        )
        robot_clearances.append(float(np.min(robot_d) - obstacle.radius))
    min_horiz = np.inf
    if robot_clearances:
        worst = int(np.argmin(robot_clearances))
        min_horiz = robot_clearances[worst]
        if not (min_horiz >= safety.delta_r - 1e-9):
            raise PipelineInfeasible(
                worst, f"robot clearance {min_horiz:.4f} below delta_r at obstacle {worst}"
            )
    path_lengths = np.sum(
        np.linalg.norm(np.diff(timeline.robots, axis=0), axis=2), axis=0
    )
    deviations = np.array([
        scenario.corridor.distance_to(p) for p in timeline.objects[:, :2]
    ])
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
        dt=scenario.dt,
    )


# ------------------------------------------------------------------ export
def _fmt_row(values):
    return ",".join(FMT % val for val in values)


def export_report(report: RunReport, out_dir) -> list:
    """Write trajectory table, metrics summary and plot series files.

    trajectory.csv columns: t, per-robot x/y, object x/y/z, sheet contact
    x/y, formation rotation theta, then one taut flag per cable. All numbers
    carry 9 significant digits so runs diff cleanly.
    """
    tl = report.timeline
    n = tl.robots.shape[1] if len(tl) else 0
    try:
        os.makedirs(out_dir, exist_ok=True)
        paths = []

        traj = os.path.join(out_dir, "trajectory.csv")
        with open(traj, "w", encoding="utf-8") as fh:
            cols = ["t"]
            for i in range(n):
                cols += [f"x_r{i + 1}", f"y_r{i + 1}"]
            cols += ["x_o", "y_o", "z_o", "x_vo", "y_vo", "theta"]
            cols += [f"taut_{i + 1}" for i in range(n)]
            fh.write(",".join(cols) + "\n")
            for k in range(len(tl)):
                row = [tl.times[k]]
                for i in range(n):
                    row += [tl.robots[k, i, 0], tl.robots[k, i, 1]]
                row += list(tl.objects[k]) + list(tl.contacts[k]) + [tl.poses[k, 2]]
                row += [int(b) for b in tl.taut[k]]
                fh.write(_fmt_row(row) + "\n")
        paths.append(traj)

        metrics = os.path.join(out_dir, "metrics.txt")
        with open(metrics, "w", encoding="utf-8") as fh:
            fh.write(f"scenario = {report.scenario_name}\n")
            fh.write(f"samples = {len(tl)}\n")
            duration = tl.times[-1] if len(tl) else 0.0
            fh.write("duration = " + FMT % duration + "\n")
            fh.write("obstacle_modes = " + " ".join(report.obstacle_modes) + "\n")
            for i, ang in enumerate(report.crossing_angles):
                if ang is None:
                    continue
                t1, t2, exit_angle = (np.rad2deg(a) for a in ang)
                fh.write(
                    f"obstacle_{i + 1}_angles_deg = "
                    + _fmt_row([t1, t2, exit_angle]) + "\n"
                )
            fh.write(
                "min_object_vertical_clearance = "
                + FMT % report.min_vertical_clearance + "\n"
            )
            fh.write(
                "min_robot_horizontal_clearance = "
                + FMT % report.min_horizontal_clearance + "\n"
            )
            for i, length in enumerate(report.robot_path_lengths):
                fh.write(f"robot_{i + 1}_path_length = " + FMT % length + "\n")
            fh.write("object_centerline_rmse = " + FMT % report.centerline_rmse + "\n")
            fh.write("final_object = " + _fmt_row(report.final_object) + "\n")
            fh.write("goal = " + _fmt_row(report.goal) + "\n")
        paths.append(metrics)

        height = os.path.join(out_dir, "height_profile.csv")
        with open(height, "w", encoding="utf-8") as fh:
            fh.write("t,z_o\n")
            for k in range(len(tl)):
                fh.write(_fmt_row([tl.times[k], tl.objects[k, 2]]) + "\n")
        paths.append(height)

        pairs = os.path.join(out_dir, "pairwise_distances.csv")
        with open(pairs, "w", encoding="utf-8") as fh:
            labels = [f"d_{i + 1}_{j + 1}" for i in range(n) for j in range(i + 1, n)]
            fh.write(",".join(["t"] + labels) + "\n")
            for k in range(len(tl)):
                row = [tl.times[k]]
                for i in range(n):
                    for j in range(i + 1, n):
                        row.append(float(np.linalg.norm(tl.robots[k, i] - tl.robots[k, j])))
                fh.write(_fmt_row(row) + "\n")
        paths.append(pairs)
        return paths
    except OSError as exc:
        raise IoError(f"failed writing report to {out_dir}: {exc}") from exc
