"""Crossing geometry: side selection and the piecewise crossing path.

A crossing presents one side of the formation to the obstacle as four
steps: rotate to present the entering side, translate the obstacle through
the formation, rotate to present the exiting side, translate clear. The
centroid path is the exact piecewise schedule in `crossing_pose`. Timelines
that carry a formation along such paths are sampled in `pipeline`.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Unused here: perfbench/spans.py wraps `planner.solve_equilibrium` by name,
# so the benchmark's traced runs need this module to bind it.
from .equilibrium import solve_equilibrium  # noqa: F401
from .errors import InvalidSchedule
from .geometry import Formation, as_points, rotation


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
        out[k] = np.array([pose.x, pose.y]) + offsets @ rotation(pose.theta).T
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
