"""Local path generation: rigid-formation obstacle crossing and bypassing.

A crossing runs along a track parallel to the approach direction, offset
laterally into a robot-free channel through the formation, as four steps:
rotate to present the entering side, translate the obstacle through the
formation, rotate to present the exiting side, translate clear. The
centroid path is the exact piecewise schedule in `crossing_pose`.
Bypassing shifts the centroid laterally around the obstacle, no rotation.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .equilibrium import solve_equilibrium
from .errors import InvalidSchedule, PlanInfeasible
from .geometry import Formation, SafetyParams, as_points
from .optimizer import FormationSolution, ObstacleSpec

DEFAULT_OMEGA = 0.2        # rad/s, rotation rate of the formation
START_MARGIN = 0.05        # extra approach clearance before rotating in place


def wrap_angle(a: float) -> float:
    """Wrap to (-pi, pi]."""
    w = (a + np.pi) % (2.0 * np.pi) - np.pi
    return float(np.pi) if w == -np.pi else float(w)


@dataclass(frozen=True)
class CentroidPose:
    """Formation centroid sample: planar position, rotation, timestamp."""

    x: float
    y: float
    theta: float
    t: float


@dataclass(frozen=True)
class CrossingSchedule:
    """Timing and geometry of one obstacle crossing.

    theta1 aligns the entering side's outward normal with the approach
    direction; theta2 then aligns the exiting side's normal with the
    departure direction. Times bound the rotate/translate/rotate/translate
    steps; v is the constant translation speed.
    """

    theta1: float
    theta2: float
    T1: float
    T2: float
    T3: float
    T4: float
    v: float
    entering_side: int
    exiting_side: int
    n_in: np.ndarray
    n_out: np.ndarray

    def __post_init__(self):
        if not (0.0 < self.T1 <= self.T2 <= self.T3 <= self.T4):
            raise InvalidSchedule(
                f"times must satisfy 0 < T1 <= T2 <= T3 <= T4, got "
                f"({self.T1}, {self.T2}, {self.T3}, {self.T4})"
            )
        if self.v <= 0:
            raise InvalidSchedule("translation speed must be positive")

    @property
    def delta_T(self) -> float:
        return self.T2 - self.T1


def outward_normals(points) -> np.ndarray:
    """Unit outward normals of a ccw convex polygon's sides (side i spans vertices i, i+1)."""
    pts = as_points(points)
    n = len(pts)
    normals = np.zeros((n, 2))
    for i in range(n):
        e = pts[(i + 1) % n] - pts[i]
        nv = np.array([e[1], -e[0]])
        normals[i] = nv / np.linalg.norm(nv)
    return normals


def select_sides(formation: Formation, approach, depart):
    """Pick entering/exiting sides and the two rotation angles.

    The entering side minimizes |theta1| (the rotation aligning its outward
    normal with the approach direction); the exiting side minimizes
    |theta1 + theta2| relative to the departure direction. Ties go to the
    lowest side index.
    """
    approach = np.asarray(approach, dtype=float)
    depart = np.asarray(depart, dtype=float)
    if np.linalg.norm(approach) < 1e-12 or np.linalg.norm(depart) < 1e-12:
        raise ValueError("approach and depart directions must be nonzero")
    a_ang = np.arctan2(approach[1], approach[0])
    d_ang = np.arctan2(depart[1], depart[0])
    normals = outward_normals(formation.robot_positions)
    theta1_by_side = [wrap_angle(a_ang - np.arctan2(nv[1], nv[0])) for nv in normals]
    entering = int(np.argmin([abs(t) for t in theta1_by_side]))
    theta1 = theta1_by_side[entering]
    total_by_side = [wrap_angle(d_ang - np.arctan2(nv[1], nv[0])) for nv in normals]
    exiting = int(np.argmin([abs(t) for t in total_by_side]))
    theta2 = total_by_side[exiting] - theta1
    return entering, exiting, theta1, theta2


def crossing_pose(schedule: CrossingSchedule, t: float):
    """Closed-form centroid pose (x, theta) of the piecewise crossing path.

    Rotation, translation, rotation, translation; x and theta are continuous
    at every boundary; y is identically 0 in the obstacle-local frame.
    """
    s = schedule
    if t <= 0.0:
        return 0.0, 0.0
    if t <= s.T1:
        return 0.0, s.theta1 * t / s.T1
    if t <= s.T2:
        return s.v * (t - s.T1), s.theta1
    if t <= s.T3:
        frac = (t - s.T2) / (s.T3 - s.T2) if s.T3 > s.T2 else 1.0
        return s.v * s.delta_T, s.theta1 + s.theta2 * frac
    if t <= s.T4:
        return s.v * (t + s.delta_T - s.T3), s.theta1 + s.theta2
    return s.v * (s.T4 + s.delta_T - s.T3), s.theta1 + s.theta2


def crossing_path(schedule: CrossingSchedule, dt: float):
    """Sample the crossing pose sequence at uniform dt (pose held past T4)."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    count = int(np.ceil(schedule.T4 / dt)) + 1
    poses = []
    for k in range(count):
        t = k * dt
        x, theta = crossing_pose(schedule, t)
        poses.append(CentroidPose(x=x, y=0.0, theta=theta, t=t))
    return poses


def formation_to_robots(poses, formation: Formation) -> np.ndarray:
    """Rigidly carry the formation along a centroid pose sequence.

    Robot offsets from the centroid rotate with theta and translate with the
    pose, so pairwise distances are exactly preserved.
    """
    offsets = formation.robot_positions - formation.centroid()
    out = np.zeros((len(poses), formation.n, 2))
    for k, pose in enumerate(poses):
        c, s = np.cos(pose.theta), np.sin(pose.theta)
        rot = np.array([[c, -s], [s, c]])
        out[k] = np.array([pose.x, pose.y]) + offsets @ rot.T
    return out


@dataclass(frozen=True)
class PlanTimeline:
    """Time-sampled plan: centroid poses, robot paths, object trajectory."""

    times: np.ndarray            # (T,)
    poses: np.ndarray            # (T, 3) world x, y, theta
    robots: np.ndarray           # (T, N, 2)
    objects: np.ndarray          # (T, 3) world object position
    contacts: np.ndarray         # (T, 2) sheet-frame contact point
    taut: np.ndarray             # (T, N) bool
    mode: str
    schedule: CrossingSchedule | None = field(default=None)

    def __len__(self):
        return len(self.times)


def _rot(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]])


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
        ys.extend((offsets @ _rot(ang).T) @ lateral)
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
    pts_in = offsets @ _rot(theta1).T
    side = [entering, (entering + 1) % formation.n]
    d_in = float(0.5 * (pts_in[side] @ approach).sum())
    pts_out = offsets @ _rot(theta1 + theta2).T
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


def _verify_clearances(timeline: PlanTimeline, obstacle: ObstacleSpec, safety: SafetyParams):
    """Object must clear the obstacle top; robots must clear its disc."""
    for k in range(len(timeline)):
        obj = timeline.objects[k]
        horiz = float(np.linalg.norm(obj[:2] - obstacle.center))
        if horiz <= obstacle.radius + safety.delta_r:
            if obj[2] - obstacle.z_obs < safety.z_safe - 1e-9:
                raise PlanInfeasible(
                    f"object clearance {obj[2] - obstacle.z_obs:.4f} m below "
                    f"z_safe at t={timeline.times[k]:.2f}"
                )
        dists = np.linalg.norm(timeline.robots[k] - obstacle.center, axis=1)
        if float(np.min(dists)) < obstacle.radius + safety.delta_r - 1e-9:
            raise PlanInfeasible(
                f"robot within the obstacle margin at t={timeline.times[k]:.2f}"
            )


def sample_timeline(segments, formation: Formation, dt: float, mode: str,
                    schedule=None) -> PlanTimeline:
    """Sample piecewise pose programs into a full timeline.

    segments: list of (duration, pose_fn) with pose_fn(t_local) -> (xy, theta)
    in world coordinates; the object equilibrium is re-solved at every
    sample from the transformed formation.
    """
    total = sum(d for d, _ in segments)
    count = int(np.ceil(total / dt - 1e-9)) + 1
    times = np.arange(count) * dt
    poses = np.zeros((count, 3))
    robots = np.zeros((count, formation.n, 2))
    objects = np.zeros((count, 3))
    contacts = np.zeros((count, 2))
    taut = np.zeros((count, formation.n), dtype=bool)
    offsets = formation.robot_positions - formation.centroid()
    for k, t in enumerate(times):
        t_rel = min(float(t), total)
        for i, (duration, fn) in enumerate(segments):
            if t_rel <= duration + 1e-12 or i == len(segments) - 1:
                xy, theta = fn(min(t_rel, duration))
                break
            t_rel -= duration
        poses[k] = [xy[0], xy[1], theta]
        robots[k] = xy + offsets @ _rot(theta).T
        placed = Formation(robots[k], formation.layout)
        eq = solve_equilibrium(placed)
        objects[k] = eq.world_position
        contacts[k] = eq.sheet_contact
        taut[k] = [c.taut for c in eq.cables]
    return PlanTimeline(
        times=times, poses=poses, robots=robots, objects=objects,
        contacts=contacts, taut=taut, mode=mode, schedule=schedule,
    )


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
    bypass mode shifts laterally around it. The sampled timeline is verified
    against the object and robot clearance requirements and PlanInfeasible
    is raised when no safe motion exists.
    """
    approach = np.asarray(approach, dtype=float)
    approach = approach / np.linalg.norm(approach)
    depart_v = approach if depart is None else np.asarray(depart, dtype=float)
    depart_v = depart_v / np.linalg.norm(depart_v)
    psi = np.arctan2(approach[1], approach[0])
    rot_w = _rot(psi)
    ind = solution.indicators

    if solution.mode == "crossing":
        if (obstacle.z_obs > ind.z_obsmax + 1e-9
                or obstacle.d_obs > ind.d_obsmax + 1e-9
                or ind.W > w_convex + 1e-9):
            raise PlanInfeasible("formation does not satisfy the crossing constraints")
        schedule, x_start, _, track_y = _crossing_schedule(
            solution, obstacle, safety, approach, depart_v, v, omega, dt
        )

        # 2-D rotations commute, so the schedule's theta applies directly to
        # the world-frame offsets; only the centroid path needs re-embedding.
        # track_y shifts the path into a robot-free channel past the obstacle.
        def pose_fn(t):
            x, theta = crossing_pose(schedule, t)
            xy = obstacle.center + rot_w @ np.array([x_start + x, track_y])
            return xy, theta

        timeline = sample_timeline(
            [(schedule.T4, pose_fn)], solution.formation, dt,
            mode="crossing", schedule=schedule,
        )
    elif solution.mode == "bypassing":
        along, shift = _bypass_profile(solution, obstacle, w_convex, safety)
        offsets = solution.formation.robot_positions - solution.formation.centroid()
        r_max = float(np.max(np.linalg.norm(offsets, axis=1)))
        x0 = -(along + shift + r_max + START_MARGIN)
        # trapezoid: shift out diagonally, pass straight, shift back
        t_diag = np.hypot(shift, shift) / v
        t_pass = 2.0 * along / v

        def pose_fn(t):
            if t <= t_diag:
                frac = t / t_diag
                loc = np.array([x0 + frac * shift, frac * shift])
            elif t <= t_diag + t_pass:
                loc = np.array([x0 + shift + (t - t_diag) * v, shift])
            elif t <= 2 * t_diag + t_pass:
                frac = (t - t_diag - t_pass) / t_diag
                loc = np.array([x0 + shift + t_pass * v + frac * shift, (1 - frac) * shift])
            else:
                loc = np.array([x0 + 2 * shift + t_pass * v, 0.0])
            return obstacle.center + rot_w @ loc, 0.0

        total = 2 * t_diag + t_pass
        timeline = sample_timeline(
            [(total, pose_fn)], solution.formation, dt, mode="bypassing",
        )
    else:
        raise PlanInfeasible(f"no local plan for mode {solution.mode!r}")

    _verify_clearances(timeline, obstacle, safety)
    return timeline
