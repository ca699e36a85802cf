"""Formation geometry: frames, polygons, and the planning indicators.

Positions are numpy float64 arrays in meters. Sheet-frame coordinates live on
the flat (undeformed) sheet, where geodesic distances are Euclidean; world
coordinates are planar robot positions at a fixed holding height.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateFormation, InvalidHeight, NonConvexResult, ValidationError

AREA_TOL = 1e-9          # signed-area tolerance for convexity tests (m^2)
FRAME_TOL = 1e-9         # coincident-point tolerance for frame construction (m)


def as_points(points) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"expected an (N, 2) point array, got shape {pts.shape}")
    return pts


def rotation(angle) -> np.ndarray:
    """2x2 counterclockwise rotation matrix by `angle` radians."""
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]])


def require_finite(field, value):
    """Raise ValidationError(field) unless every entry of `value` is finite."""
    if not np.isfinite(value).all():
        raise ValidationError(field, "must be finite")


def cross2(a, b) -> float:
    return a[0] * b[1] - a[1] * b[0]


def polygon_signed_area(points) -> float:
    pts = as_points(points)
    x, y = pts[:, 0], pts[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def check_convex_ccw(points, what="polygon"):
    """Raise NonConvexResult unless points form a strictly convex ccw polygon.

    Every cross product of consecutive edges must exceed AREA_TOL, which also
    rejects near-collinear vertex triples.
    """
    pts = as_points(points)
    n = len(pts)
    if n < 3:
        raise NonConvexResult(f"{what}: need at least 3 vertices, got {n}")
    for i in range(n):
        a, b, c = pts[i], pts[(i + 1) % n], pts[(i + 2) % n]
        if cross2(b - a, c - b) <= AREA_TOL:
            raise NonConvexResult(
                f"{what}: vertices {i},{(i + 1) % n},{(i + 2) % n} are not in "
                "strictly convex counterclockwise position"
            )


def point_in_polygon(p, polygon, tol=1e-12) -> bool:
    """True when p lies inside the convex ccw polygon (boundary within tol)."""
    pts = as_points(polygon)
    p = np.asarray(p, dtype=float)
    n = len(pts)
    for i in range(n):
        a, b = pts[i], pts[(i + 1) % n]
        if cross2(b - a, p - a) < -tol:
            return False
    return True


def pairwise_distances(points) -> dict:
    pts = as_points(points)
    n = len(pts)
    return {
        (i, j): float(np.linalg.norm(pts[i] - pts[j]))
        for i in range(n)
        for j in range(n)
        if i != j
    }


@dataclass(frozen=True)
class SafetyParams:
    """Clearance margins: robot safety radius and object-obstacle gap."""

    delta_r: float = 0.05
    z_safe: float = 0.04

    def __post_init__(self):
        require_finite("delta_r", self.delta_r)
        require_finite("z_safe", self.z_safe)
        if self.delta_r <= 0 or self.z_safe <= 0:
            raise ValueError("safety margins must be positive")


@dataclass(frozen=True)
class SheetLayout:
    """Holding-point coordinates on the flat sheet and the holding height.

    holding_points: (N, 2) array in the sheet frame, counterclockwise convex.
    holding_height: height of every holding point above the ground plane.
    """

    holding_points: np.ndarray
    holding_height: float

    def __post_init__(self):
        pts = as_points(self.holding_points)
        object.__setattr__(self, "holding_points", pts)
        object.__setattr__(self, "holding_height", float(self.holding_height))
        require_finite("holding_points", pts)
        require_finite("holding_height", self.holding_height)
        if len(pts) < 3:
            raise NonConvexResult("sheet layout needs at least 3 holding points")
        check_convex_ccw(pts, what="sheet layout")
        if self.holding_height <= 0:
            raise ValueError("holding height must be positive")

    @property
    def n(self) -> int:
        return len(self.holding_points)

    def cable_lengths(self, contact) -> np.ndarray:
        """Geodesic cable lengths for a contact point in the sheet frame."""
        return np.linalg.norm(self.holding_points - np.asarray(contact), axis=1)


@dataclass(frozen=True)
class Formation:
    """Planar robot positions matched one-to-one with sheet holding points.

    Construction enforces the convex/counterclockwise invariants as hard
    errors. Inelasticity (every robot pair no farther apart than its sheet
    pair) is a solver-level feasibility question, queried via stretch().
    """

    robot_positions: np.ndarray
    layout: SheetLayout

    def __post_init__(self):
        pts = as_points(self.robot_positions)
        object.__setattr__(self, "robot_positions", pts)
        require_finite("robot_positions", pts)
        if len(pts) != self.layout.n:
            raise ValueError(
                f"formation has {len(pts)} robots for {self.layout.n} holding points"
            )
        check_convex_ccw(pts, what="formation")

    @property
    def n(self) -> int:
        return len(self.robot_positions)

    @property
    def holding_height(self) -> float:
        return self.layout.holding_height

    def centroid(self) -> np.ndarray:
        return self.robot_positions.mean(axis=0)

    def stretch(self) -> float:
        """Worst pair stretch: max over pairs of ||r_i - r_j|| - ||v_i - v_j||.

        Negative means strictly feasible everywhere; 0 means some pair is
        fully stretched (flat sheet along that pair); positive is infeasible.
        """
        r, v = self.robot_positions, self.layout.holding_points
        worst = -np.inf
        for i, j in itertools.combinations(range(self.n), 2):
            worst = max(
                worst,
                float(np.linalg.norm(r[i] - r[j]) - np.linalg.norm(v[i] - v[j])),
            )
        return worst

    def is_feasible(self, tol=1e-12) -> bool:
        return self.stretch() <= tol

    def translated(self, delta) -> "Formation":
        return Formation(self.robot_positions + np.asarray(delta), self.layout)

    def transformed(self, angle, center, translation) -> "Formation":
        """Rigidly rotate about `center` by `angle`, then translate."""
        pts = (self.robot_positions - center) @ rotation(angle).T + center + translation
        return Formation(pts, self.layout)


@dataclass(frozen=True)
class LocalFrame:
    """Canonical formation frame: robot 1 at the origin, robot 2 on +x."""

    origin: np.ndarray
    rotation: float
    local_coords: np.ndarray = field(repr=False)

    def to_world(self, local_points) -> np.ndarray:
        return np.asarray(local_points) @ rotation(self.rotation).T + self.origin

    def to_local(self, world_points) -> np.ndarray:
        return (np.asarray(world_points) - self.origin) @ rotation(-self.rotation).T


def to_local_frame(points) -> LocalFrame:
    """Transform robot positions into the canonical local frame.

    Accepts a Formation or an (N, 2) array with N >= 2. Raises
    DegenerateFormation when the first two robots coincide.
    """
    if isinstance(points, Formation):
        points = points.robot_positions
    pts = as_points(points)
    if len(pts) < 2:
        raise DegenerateFormation("need at least 2 points to define a frame")
    d = pts[1] - pts[0]
    if np.linalg.norm(d) < FRAME_TOL:
        raise DegenerateFormation("first two robots coincide")
    angle = float(np.arctan2(d[1], d[0]))
    origin = pts[0].copy()
    local = (pts - origin) @ rotation(-angle).T
    return LocalFrame(origin=origin, rotation=angle, local_coords=local)


def _circle_two(a, b):
    center = 0.5 * (a + b)
    return center, 0.5 * float(np.linalg.norm(a - b))


def _circumcircle(a, b, c):
    d = 2.0 * (a[0] * (b[1] - c[1]) + b[0] * (c[1] - a[1]) + c[0] * (a[1] - b[1]))
    if abs(d) < 1e-14:
        return None
    a2, b2, c2 = a @ a, b @ b, c @ c
    ux = (a2 * (b[1] - c[1]) + b2 * (c[1] - a[1]) + c2 * (a[1] - b[1])) / d
    uy = (a2 * (c[0] - b[0]) + b2 * (a[0] - c[0]) + c2 * (b[0] - a[0])) / d
    center = np.array([ux, uy])
    return center, float(np.linalg.norm(a - center))


def min_enclosing_circle(points, tol=1e-9):
    """Exact minimum enclosing circle by combinatorial search.

    Checks every pair (diameter circle) and triple (circumcircle) and keeps
    the smallest circle containing all points. Deterministic; fine for the
    small team sizes this toolkit targets.
    """
    pts = as_points(points)
    n = len(pts)
    if n == 1:
        return pts[0].copy(), 0.0
    best = None
    for i, j in itertools.combinations(range(n), 2):
        center, radius = _circle_two(pts[i], pts[j])
        if np.all(np.linalg.norm(pts - center, axis=1) <= radius + tol):
            if best is None or radius < best[1]:
                best = (center, radius)
    if best is not None:
        return best
    for i, j, k in itertools.combinations(range(n), 3):
        got = _circumcircle(pts[i], pts[j], pts[k])
        if got is None:
            continue
        center, radius = got
        if np.all(np.linalg.norm(pts - center, axis=1) <= radius + tol):
            if best is None or radius < best[1]:
                best = (center, radius)
    if best is None:
        raise DegenerateFormation("no enclosing circle found (degenerate input)")
    return best


def circumscribed_diameter(points) -> float:
    """Diameter of the minimum circle enclosing the robot positions."""
    if isinstance(points, Formation):
        points = points.robot_positions
    _, radius = min_enclosing_circle(points)
    return 2.0 * radius


@dataclass(frozen=True)
class FormationIndicators:
    """Scalar formation descriptors used by the motion planner.

    W          outline width: enclosing-circle diameter padded by the margin
    D          minimum enclosing circle diameter
    L_min      shortest robot pair distance
    d_obsmax   widest obstacle the formation can pass over (L_min - 2*delta_r)
    z_obsmax   tallest obstacle the hanging object clears (z_o - z_safe)
    """

    W: float
    D: float
    L_min: float
    d_obsmax: float
    z_obsmax: float


def indicators(formation: Formation, object_height: float, safety: SafetyParams) -> FormationIndicators:
    """Compute the planning indicators for a formation and its object height."""
    if object_height >= formation.holding_height:
        raise InvalidHeight(
            f"object height {object_height} not below holding height "
            f"{formation.holding_height}"
        )
    D = circumscribed_diameter(formation.robot_positions)
    r = formation.robot_positions
    L_min = min(
        float(np.linalg.norm(r[i] - r[j]))
        for i, j in itertools.combinations(range(formation.n), 2)
    )
    return FormationIndicators(
        W=D + 2.0 * safety.delta_r,
        D=D,
        L_min=L_min,
        d_obsmax=L_min - 2.0 * safety.delta_r,
        z_obsmax=object_height - safety.z_safe,
    )
