"""Formation geometry: point sets, polygons, and the planning indicators.

Positions are numpy float64 arrays in meters. Sheet-frame coordinates live on
the flat (undeformed) sheet, where geodesic distances are Euclidean; world
coordinates are planar robot positions at a fixed holding height.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateFormation, InvalidHeight, NonConvexResult, ValidationError

AREA_TOL = 1e-9          # signed-area tolerance for convexity tests (m^2)
STRETCH_TOL = 1e-9       # Formation.stretch() above which the team stretches the sheet (m)
MAX_ROBOTS = 8           # largest team the solver is tested and benchmarked for


def as_points(points, field) -> np.ndarray:
    """`points` as a float (N, 2) array; ValidationError(field) for any other shape."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValidationError(field, f"expected an (N, 2) point array, got shape {pts.shape}")
    return pts


def rotation(angle) -> np.ndarray:
    """2x2 counterclockwise rotation matrix by `angle` radians.

    An array of angles gives a C-contiguous (..., 2, 2) stack of them.
    """
    c, s = np.cos(angle), np.sin(angle)
    out = np.empty(c.shape + (2, 2))
    out[..., 0, 0], out[..., 0, 1], out[..., 1, 0], out[..., 1, 1] = c, -s, s, c
    return out


def require_finite(field, value):
    """Raise ValidationError(field) unless every entry of `value` is finite."""
    if not np.isfinite(value).all():
        raise ValidationError(field, "must be finite")


def require_positive(field, value):
    """Raise ValidationError(field) unless every entry of `value` is positive and finite."""
    if not (np.isfinite(value) & (np.asarray(value) > 0)).all():
        raise ValidationError(field, f"must be positive and finite, got {value}")


def dot(a, b):
    """Row-wise dot product, rounded as the 1-D `a @ b` of each row is."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


@functools.lru_cache(maxsize=None)
def pair_index(n) -> np.ndarray:
    """Read-only (2, n(n-1)/2) array of every pair i < j, in itertools.combinations order."""
    pairs = np.array(list(itertools.combinations(range(n), 2)), dtype=np.intp).reshape(-1, 2).T
    pairs.setflags(write=False)
    return pairs


@functools.lru_cache(maxsize=None)
def triple_index(n) -> np.ndarray:
    """Read-only (3, C(n, 3)) array of every triple i < j < k, in itertools.combinations order."""
    triples = np.array(list(itertools.combinations(range(n), 3)), dtype=np.intp).reshape(-1, 3).T
    triples.setflags(write=False)
    return triples


def pair_distances(points) -> np.ndarray:
    """Distance of every pair of the (..., N, 2) points, in `pair_index` order.

    Each is rounded as the 1-D `np.linalg.norm` of its difference is; the
    `axis=` form of `np.linalg.norm` and `np.hypot` round differently.
    """
    i, j = pair_index(points.shape[-2])
    d = points.take(j, axis=-2) - points.take(i, axis=-2)
    return np.sqrt(dot(d, d))


def cable_lengths(v, contacts) -> np.ndarray:
    """Geodesic cable lengths (..., n) from (..., n, 2) holding points to
    (..., 2) contacts, rounded as `np.linalg.norm(..., axis=-1)` is."""
    c = np.asarray(contacts)
    # per coordinate: a reduction over the short last axis costs more per row
    e0, e1 = v[..., 0] - c[..., None, 0], v[..., 1] - c[..., None, 1]
    return np.sqrt(e0 * e0 + e1 * e1)


def polygon_sides(polygon) -> np.ndarray:
    """Side vectors of (..., m, 2) polygons: side i runs from vertex i to i + 1."""
    return polygon.take(np.arange(1, polygon.shape[-2] + 1), axis=-2, mode="wrap") - polygon


def convex_turns(points) -> np.ndarray:
    """Mask of the turns (side i to side i + 1) of (..., m, 2) polygons whose
    cross product exceeds AREA_TOL: strictly convex ccw, so near-collinear
    vertex triples fail. Overflow reads as inf, or NaN (which fails)."""
    a = polygon_sides(points)
    b = np.concatenate([a[..., 1:, :], a[..., :1, :]], axis=-2)
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0] > AREA_TOL


def check_convex_ccw(points, what="polygon"):
    """Raise NonConvexResult unless every turn passes `convex_turns`, with no
    numpy warning on overflow. Both callers pass at least three points:
    `SheetLayout` rejects fewer first, and a `Formation` matches its layout."""
    pts = as_points(points, what)
    with np.errstate(over="ignore", invalid="ignore"):
        turns = convex_turns(pts)
    if not turns.all():
        i, n = np.argmin(turns), len(pts)
        raise NonConvexResult(
            f"{what}: vertices {i},{(i + 1) % n},{(i + 2) % n} are not in "
            "strictly convex counterclockwise position"
        )


def points_in_polygon(points, polygon, tol=1e-9) -> np.ndarray:
    """Mask of the (..., 2) points inside a convex ccw polygon (boundary within tol).

    `polygon` is one polygon (m, 2) for every point, or one per point
    (..., m, 2). A NaN point is outside.
    """
    return points_in_sides(points, polygon, polygon_sides(polygon), tol)


def points_in_sides(points, polygon, side, tol=1e-9) -> np.ndarray:
    """`points_in_polygon` of a polygon whose `polygon_sides` the caller
    holds already, as a solve does for the polygons of its sheet."""
    # per coordinate, as in `cable_lengths`: products of the columns of a
    # (..., m, 2) difference run strided, and cost more
    x, y = points[..., None, 0], points[..., None, 1]
    return (side[..., 0] * (y - polygon[..., 1]) - side[..., 1] * (x - polygon[..., 0])
            >= -tol).all(axis=-1)


@dataclass(frozen=True)
class SafetyParams:
    """Clearance margins: robot safety radius and object-obstacle gap."""

    delta_r: float = 0.05
    z_safe: float = 0.04

    def __post_init__(self):
        for name in ("delta_r", "z_safe"):
            require_positive(name, getattr(self, name))


@dataclass(frozen=True, eq=False)
class SheetLayout:
    """Holding-point coordinates on the flat sheet and the holding height.

    holding_points: (N, 2) array in the sheet frame, counterclockwise convex;
        a read-only copy of the points given.
    holding_height: height of every holding point above the ground plane.
    spacing: read-only `pair_distances` of the holding points, derived.

    A layout never changes after construction, and equality is identity, so
    a layout can key what is derived from it (the solve's per-sheet terms).
    """

    holding_points: np.ndarray
    holding_height: float
    spacing: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pts = as_points(self.holding_points, "holding_points").copy()
        pts.setflags(write=False)
        object.__setattr__(self, "holding_points", pts)
        object.__setattr__(self, "holding_height", float(self.holding_height))
        require_finite("holding_points", pts)
        require_positive("holding_height", self.holding_height)
        if len(pts) < 3:
            raise NonConvexResult("sheet layout needs at least 3 holding points")
        if len(pts) > MAX_ROBOTS:
            raise ValidationError(
                "holding_points", f"at most {MAX_ROBOTS} holding points, got {len(pts)}"
            )
        with np.errstate(over="ignore"):
            spacing = pair_distances(pts)
        if not np.isfinite(spacing).all():
            raise ValidationError("holding_points", "pair distances must be finite")
        check_convex_ccw(pts, what="sheet layout")
        spacing.setflags(write=False)
        object.__setattr__(self, "spacing", spacing)

    @property
    def n(self) -> int:
        return len(self.holding_points)

    def cable_lengths(self, contact) -> np.ndarray:
        """Geodesic cable lengths for a contact point in the sheet frame."""
        return cable_lengths(self.holding_points, contact)


@dataclass(frozen=True)
class Formation:
    """Planar robot positions matched one-to-one with sheet holding points.

    Construction enforces the convex/counterclockwise invariants as hard
    errors, and keeps a read-only copy of the positions given. Inelasticity
    (every robot pair no farther apart than its sheet pair) is a
    solver-level feasibility question, queried via stretch().
    """

    robot_positions: np.ndarray
    layout: SheetLayout

    def __post_init__(self):
        pts = as_points(self.robot_positions, "robot_positions").copy()
        pts.setflags(write=False)
        object.__setattr__(self, "robot_positions", pts)
        require_finite("robot_positions", pts)
        if len(pts) != self.layout.n:
            raise ValidationError(
                "robot_positions",
                f"formation has {len(pts)} robots for {self.layout.n} holding points",
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
        fully stretched (flat sheet along that pair); above STRETCH_TOL is
        infeasible, and inf, with no warning, for robots too far apart to square.
        """
        with np.errstate(over="ignore"):
            return float(np.max(pair_distances(self.robot_positions) - self.layout.spacing))


def min_enclosing_circle(points):
    """Exact minimum enclosing circle by combinatorial search.

    Tests every pair's diameter circle and every non-collinear triple's
    circumcircle at once, relative to the set's first point (so an offset
    costs only input rounding), and keeps the first smallest circle holding
    all points within 1e-9, diameter circles first, each rounded as the 1-D
    arithmetic of its own pair or triple is. A stack (..., N, 2) of sets
    gives centers (..., 2) and radii (...), NaN where no circle fits; one
    set (N, 2) raises there.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim <= 2:
        center, radius = min_enclosing_circle(as_points(pts, "points")[None])
        if np.isnan(radius[0]):
            raise DegenerateFormation("no enclosing circle found (degenerate input)")
        return center[0], float(radius[0])
    n = pts.shape[-2]
    if n < 2:
        if not n:
            raise DegenerateFormation("no enclosing circle found (degenerate input)")
        return pts[..., 0, :].copy(), np.zeros(pts.shape[:-2])
    origin = pts[..., 0, :]
    pts = pts - origin[..., None, :]
    i, j = pair_index(n)
    a, b, c = np.moveaxis(pts[..., triple_index(n), :], -3, 0)
    d = 2.0 * (a[..., 0] * (b[..., 1] - c[..., 1]) + b[..., 0] * (c[..., 1] - a[..., 1])
               + c[..., 0] * (a[..., 1] - b[..., 1]))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # a collinear triple (|d| < 1e-14) has no circumcircle: its entries
        # are computed with the others and never fit
        a2, b2, c2 = dot(a, a), dot(b, b), dot(c, c)
        ux = (a2 * (b[..., 1] - c[..., 1]) + b2 * (c[..., 1] - a[..., 1])
              + c2 * (a[..., 1] - b[..., 1])) / d
        uy = (a2 * (c[..., 0] - b[..., 0]) + b2 * (a[..., 0] - c[..., 0])
              + c2 * (b[..., 0] - a[..., 0])) / d
        centers = np.concatenate([0.5 * (pts[..., i, :] + pts[..., j, :]),
                                  np.stack([ux, uy], axis=-1)], axis=-2)
        e = a - centers[..., len(i):, :]
        radii = np.concatenate([0.5 * pair_distances(pts), np.sqrt(dot(e, e))], axis=-1)
        fits = (np.linalg.norm(pts[..., None, :, :] - centers[..., None, :], axis=-1)
                <= radii[..., None] + 1e-9).all(axis=-1)
    fits[..., len(i):] &= np.abs(d) >= 1e-14
    diameter = np.arange(radii.shape[-1]) < len(i)
    fits &= diameter == fits[..., :len(i)].any(axis=-1, keepdims=True)   # diameter circles first
    least = np.where(fits, radii, np.inf).min(axis=-1, keepdims=True)
    k = np.argmax(fits & (radii == least), axis=-1)[..., None]
    center = np.take_along_axis(centers, k[..., None], axis=-2)[..., 0, :] + origin
    radius = np.take_along_axis(radii, k, axis=-1)[..., 0]
    none = ~fits.any(axis=-1)
    center[none], radius[none] = np.nan, np.nan
    return center, radius


def circumscribed_diameter(points):
    """Diameter of the minimum circle enclosing (N, 2) robot positions, or
    each of a stack of them."""
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


def indicators(formation, object_height: float, safety: SafetyParams) -> FormationIndicators:
    """Compute the planning indicators for a formation and its object height.
    A stack (..., n, 2) of robots with a height each, held below the holding
    height, gives each field as an array over the stack."""
    robots = formation
    if isinstance(formation, Formation):
        if object_height >= formation.holding_height:
            raise InvalidHeight(
                f"object height {object_height} not below holding height "
                f"{formation.holding_height}"
            )
        robots = formation.robot_positions
    D = circumscribed_diameter(robots)
    L_min = np.min(pair_distances(robots), axis=-1)
    if np.ndim(robots) == 2:
        L_min = float(L_min)
    return FormationIndicators(
        W=D + 2.0 * safety.delta_r,
        D=D,
        L_min=L_min,
        d_obsmax=L_min - 2.0 * safety.delta_r,
        z_obsmax=object_height - safety.z_safe,
    )
