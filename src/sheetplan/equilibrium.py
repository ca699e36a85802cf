"""Hanging-object equilibrium under the variable-cable sheet model.

Each sheet ridge from holding point v_i to the contact point v_o acts as a
virtual cable of geodesic length l_i = ||v_i - v_o||; the object's world
position p_o then satisfies ||p_o - p_i|| <= l_i for every cable, with
equality on the taut ones. The object settles at the lowest admissible
height, which reduces every solve to small exact linear algebra:

* anchored pairwise differencing makes the taut-equality system linear in
  (contact, horizontal object position); a rank-revealing SVD exposes the
  solution manifold, and the hang depth is a quadratic along it;
* the global equilibrium is the deepest validated candidate among interior
  taut subsets, two-cable ridge hangs, and contacts pinned to a sheet edge;
* a brute-force grid oracle (`oracle_equilibrium`) provides an independent
  check by nested search over contact candidates.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import (
    CableTooShort,
    ContactOutsideHull,
    InconsistentRedundancy,
    InelasticityViolated,
    InfeasibleFormation,
    NoConvergence,
    NoEquilibrium,
    ObjectOutsideFormation,
    SingularSystem,
    TooFewTaut,
)
from .geometry import Formation, SheetLayout, cross2, point_in_polygon, rotation

SLACK_BAND = 1e-6        # cable counts as slack only below geodesic - band
FEAS_TOL = 1e-7          # allowed violation of the cable inequality
TAUT_TOL = 1e-9          # taut-equality residual bound for solved subsets
ENERGY_TOL = 1e-7        # agreement required with the lowest-point kernel
FLAT_TOL = 1e-9          # hang depth below which the sheet counts as flat


@dataclass(frozen=True)
class CableState:
    """Status of one virtual cable at a solved equilibrium."""

    index: int
    geodesic_length: float
    status: str                   # "taut" | "slack"

    @property
    def taut(self) -> bool:
        return self.status == "taut"


@dataclass(frozen=True)
class ObjectEquilibrium:
    """Solved object state: world position, sheet contact, cable statuses.

    flat marks the fully stretched limit (object at holding height);
    boundary_contact marks contacts pinned to the sheet polygon boundary or
    hanging from a two-cable fold line, where fewer than three cables may be
    taut. Both are outside the model's nominal transport envelope.
    """

    world_position: np.ndarray    # (3,) [x_o, y_o, z_o]
    sheet_contact: np.ndarray     # (2,) [x_vo, y_vo] in the sheet frame
    cables: tuple
    taut_count: int
    flat: bool = False
    boundary_contact: bool = False

    @property
    def z(self) -> float:
        return float(self.world_position[2])

    @property
    def horizontal(self) -> np.ndarray:
        return self.world_position[:2]

    @property
    def taut_indices(self) -> tuple:
        return tuple(c.index for c in self.cables if c.taut)


def cable_distances(formation: Formation, eq: ObjectEquilibrium):
    """Per-cable (geodesic, euclidean) lengths at a solved equilibrium."""
    v = formation.layout.holding_points
    r = formation.robot_positions
    z_r = formation.holding_height
    l = np.linalg.norm(v - eq.sheet_contact, axis=1)
    d = np.sqrt(
        np.sum((r - eq.horizontal) ** 2, axis=1) + (z_r - eq.z) ** 2
    )
    return l, d


def _build_equilibrium(formation, u, q, z, boundary=False) -> ObjectEquilibrium:
    v = formation.layout.holding_points
    r = formation.robot_positions
    z_r = formation.holding_height
    l = np.linalg.norm(v - u, axis=1)
    d = np.sqrt(np.sum((r - q) ** 2, axis=1) + (z_r - z) ** 2)
    cables = tuple(
        CableState(i, float(l[i]), "taut" if d[i] >= l[i] - SLACK_BAND else "slack")
        for i in range(formation.n)
    )
    return ObjectEquilibrium(
        world_position=np.array([q[0], q[1], z]),
        sheet_contact=np.asarray(u, dtype=float),
        cables=cables,
        taut_count=sum(c.taut for c in cables),
        flat=bool(z_r - z < FLAT_TOL),
        boundary_contact=boundary,
    )


# ------------------------------------------------------------------ frames
def _canonical(points, i1, i2):
    """Rotate/translate points so points[i1] is the origin, points[i2] on +x."""
    o = points[i1]
    d = points[i2] - points[i1]
    ang = np.arctan2(d[1], d[0])
    return (points - o) @ rotation(-ang).T, o, float(ang)


def _from_canonical(p, origin, ang):
    return np.asarray(p) @ rotation(ang).T + origin


def _subset_isometric(v, r, idx, tol=1e-9):
    """True when the taut subset is fully stretched (sheet flat across it)."""
    for i, j in itertools.combinations(idx, 2):
        if abs(np.linalg.norm(v[i] - v[j]) - np.linalg.norm(r[i] - r[j])) > tol:
            return False
    return True


def _flat_candidate(v, z_r, r, idx):
    """Degenerate flat solution: contact at the taut centroid, zero drop."""
    idx = list(idx)
    vt, vo_org, vang = _canonical(v, idx[0], idx[1])
    rt, ro_org, rang = _canonical(r, idx[0], idx[1])
    u_c = vt[idx].mean(axis=0)
    return _from_canonical(u_c, vo_org, vang), _from_canonical(u_c, ro_org, rang), z_r


def _stationary_candidates(v, z_r, r, idx, edge=None):
    """Minimum-energy points of the taut-equality manifold for one subset.

    Builds the anchored difference system (linear in contact u and local
    object position w), optionally pins u to the line through `edge`, and
    minimizes the hang quadratic J = |w|^2 - |u|^2 over the null space.
    Returns a list of (u, w, z) in original coordinates; empty when the
    system is inconsistent or admits no interior minimum.
    """
    idx = list(idx)
    i1, i2 = idx[0], idx[1]
    vt, vo_org, vang = _canonical(v, i1, i2)
    rt, ro_org, rang = _canonical(r, i1, i2)
    rows, rhs = [], []
    for k in idx[1:]:
        rows.append([2 * vt[k][0], 2 * vt[k][1], -2 * rt[k][0], -2 * rt[k][1]])
        rhs.append(float(vt[k] @ vt[k] - rt[k] @ rt[k]))
    if edge is not None:
        a, b = edge
        rot = rotation(-vang)
        a2 = (np.asarray(a) - vo_org) @ rot.T
        b2 = (np.asarray(b) - vo_org) @ rot.T
        e = b2 - a2
        rows.append([-e[1], e[0], 0.0, 0.0])
        rhs.append(float(cross2(b2, a2)))
    A = np.array(rows)
    b_vec = np.array(rhs)
    # overdetermined systems (redundant cables) pass through: the residual
    # test below keeps only geometrically consistent ones
    U, S, Vt = np.linalg.svd(A, full_matrices=True)
    scale = max(float(S[0]), 1.0)
    rank = int(np.sum(S > 1e-10 * scale))
    S_inv = np.zeros((A.shape[1], A.shape[0]))
    for i in range(rank):
        S_inv[i, i] = 1.0 / S[i]
    x0 = Vt.T @ (S_inv @ (U.T @ b_vec))
    if np.linalg.norm(A @ x0 - b_vec) > 1e-8 * max(1.0, np.linalg.norm(b_vec)):
        return []
    Z = Vt[rank:].T
    d = Z.shape[1]
    u0, w0 = x0[:2], x0[2:]
    out = []

    def emit(t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        u = u0 + Z[:2] @ t
        w = w0 + Z[2:] @ t
        drop2 = float(u @ u - w @ w)
        if drop2 < -1e-9:
            return
        z = z_r - np.sqrt(max(drop2, 0.0))
        out.append((_from_canonical(u, vo_org, vang), _from_canonical(w, ro_org, rang), float(z)))

    if d == 0:
        emit(np.zeros(0))
        return out
    Zu, Zw = Z[:2], Z[2:]
    H = 2.0 * (Zw.T @ Zw - Zu.T @ Zu)
    g = 2.0 * (Zw.T @ w0 - Zu.T @ u0)
    evals = np.linalg.eigvalsh(H)
    if np.all(evals > 1e-12):
        emit(np.linalg.solve(H, -g))
    elif np.all(evals > -1e-12):
        # positive semidefinite with a flat direction: minimum-norm minimizer
        t = -np.linalg.pinv(H) @ g
        if np.linalg.norm(H @ t + g) <= 1e-8:
            emit(t)
    # indefinite H: no interior minimum on this manifold; boundary-pinned
    # candidate families cover those equilibria
    return out


def _subset_residual(v, z_r, r, idx, u, q, z):
    """Worst taut-equality residual |l_k - ||p_o - p_k||| over the subset."""
    worst = 0.0
    h2 = (z_r - z) ** 2
    for k in idx:
        lk = np.linalg.norm(v[k] - u)
        dk = np.sqrt(np.sum((r[k] - q) ** 2) + h2)
        worst = max(worst, abs(lk - dk))
    return worst


# --------------------------------------------------------- known taut set
def _require_feasible(formation):
    stretch = formation.stretch()
    if stretch > 1e-9:
        raise InfeasibleFormation(
            f"robot pair exceeds sheet spacing by {stretch:.3e} m"
        )


def direct_kinematics(formation: Formation, taut_flags) -> ObjectEquilibrium:
    """Object position for a known taut/slack assignment.

    Minimizes the hang quadratic exactly on the taut-equality manifold of
    the first five taut cables (five equalities pin every unknown); any
    further taut cable must agree within 1e-6 at that solution. The flags
    are trusted; slack-cable admissibility is the caller's concern (see
    solve_equilibrium for discovery + validation).
    """
    flags = [bool(f) for f in taut_flags]
    if len(flags) != formation.n:
        raise ValueError(f"expected {formation.n} flags, got {len(flags)}")
    _require_feasible(formation)
    taut = [i for i, f in enumerate(flags) if f]
    if len(taut) < 3:
        raise TooFewTaut(f"need at least 3 taut cables, got {len(taut)}")
    v = formation.layout.holding_points
    r = formation.robot_positions
    z_r = formation.holding_height
    if _subset_isometric(v, r, taut):
        u, q, z = _flat_candidate(v, z_r, r, taut)
        return _build_equilibrium(formation, u, q, z)
    base = taut[:5]
    cands = _stationary_candidates(v, z_r, r, base)
    if not cands:
        # inconsistent taut system or indefinite hang Hessian
        raise SingularSystem("no interior minimum on the taut manifold")
    u, q, z = min(cands, key=lambda c: c[2])
    if not point_in_polygon(u, v[taut], tol=1e-9):
        raise ContactOutsideHull(f"contact {u} outside taut hull")
    if _subset_residual(v, z_r, r, base, u, q, z) > TAUT_TOL:
        raise NoConvergence("taut residual above tolerance")
    for k in taut[5:]:
        off = _subset_residual(v, z_r, r, [k], u, q, z)
        if off > 1e-6:
            raise InconsistentRedundancy(
                f"cable {k} off by {off:.2e} at the five-cable solution"
            )
    return _build_equilibrium(formation, u, q, z)


# ------------------------------------------------- equilibrium discovery
def _ridge_candidates(v, z_r, r):
    """Two-cable fold-line hangs: deepest point below each sheet chord."""
    out = []
    n = len(v)
    for i, j in itertools.combinations(range(n), 2):
        Lv = float(np.linalg.norm(v[j] - v[i]))
        Lr = float(np.linalg.norm(r[j] - r[i]))
        if Lr >= Lv - 1e-12:
            continue
        u = 0.5 * (v[i] + v[j])
        q = 0.5 * (r[i] + r[j])
        z = z_r - 0.5 * np.sqrt(Lv * Lv - Lr * Lr)
        out.append((float(z), u, q, (i, j), True))
    return out


def _interior_candidates(v, z_r, r, n):
    out = []
    for m in range(n, 2, -1):
        for idx in itertools.combinations(range(n), m):
            if _subset_isometric(v, r, idx):
                u, q, z = _flat_candidate(v, z_r, r, idx)
                out.append((float(z), u, q, idx, False))
                continue
            for u, q, z in _stationary_candidates(v, z_r, r, list(idx)):
                if point_in_polygon(u, v[list(idx)], tol=1e-9):
                    out.append((float(z), u, q, idx, False))
    return out


def _edge_candidates(v, z_r, r, n):
    out = []
    for e in range(n):
        a, b = v[e], v[(e + 1) % n]
        ab = b - a
        ab2 = float(ab @ ab)
        for m in range(2, min(n, 4) + 1):
            for idx in itertools.combinations(range(n), m):
                for u, q, z in _stationary_candidates(v, z_r, r, list(idx), edge=(a, b)):
                    s = float((u - a) @ ab) / ab2
                    if -1e-9 <= s <= 1 + 1e-9:
                        out.append((float(z), u, q, idx, True))
    return out


def _validate_candidate(v, z_r, r, z, u, q):
    if not point_in_polygon(u, v, tol=1e-9):
        return False
    rho = np.linalg.norm(v - u, axis=1)
    d = np.sqrt(np.sum((r - q) ** 2, axis=1) + (z_r - z) ** 2)
    if np.any(d > rho + FEAS_TOL):
        return False
    _, z_low = kernels.lowest_point(r, z_r, rho)
    return abs(z_low - z) <= ENERGY_TOL


def _select_best(v, z_r, r, candidates):
    best = None
    best_key = None
    for z, u, q, idx, boundary in candidates:
        if not _validate_candidate(v, z_r, r, z, u, q):
            continue
        key = (z, -len(idx), idx)
        if best is None or key < best_key:
            best = (z, u, q, idx, boundary)
            best_key = key
    return best


def solve_equilibrium(formation: Formation, fast: bool = False) -> ObjectEquilibrium:
    """Find the physically valid equilibrium, discovering the taut set.

    Enumerates candidate stationary configurations (interior taut subsets by
    decreasing cardinality, fold-line ridge hangs, sheet-edge-pinned
    contacts), validates each against the cable inequalities and the exact
    lowest-point kernel, and returns the lowest-energy survivor. Ties favor
    larger taut sets, then lexicographic order.

    With fast=True the edge-pinned family is skipped as long as an interior
    candidate validates strictly inside the sheet polygon (the common case
    along transport timelines, where every cable stays taut).
    """
    _require_feasible(formation)
    v = formation.layout.holding_points
    r = formation.robot_positions
    z_r = formation.holding_height
    n = formation.n

    interior = _interior_candidates(v, z_r, r, n) + _ridge_candidates(v, z_r, r)
    if fast:
        best = _select_best(v, z_r, r, interior)
        if best is not None and point_in_polygon(best[1], v, tol=-1e-9):
            z, u, q, idx, boundary = best
            return _build_equilibrium(formation, u, q, z, boundary=boundary)

    best = _select_best(v, z_r, r, interior + _edge_candidates(v, z_r, r, n))
    if best is None:
        raise NoEquilibrium(
            "no candidate equilibrium validated; feasible input should always "
            "admit one (solver bug signal)"
        )
    z, u, q, idx, boundary = best
    on_edge = not point_in_polygon(u, v, tol=-1e-9)
    return _build_equilibrium(formation, u, q, z, boundary=boundary or on_edge)


# -------------------------------------------------------------- the oracle
def _points_in_polygon_mask(pts, poly, tol=1e-9):
    m = np.ones(len(pts), dtype=bool)
    n = len(poly)
    for i in range(n):
        a, b = poly[i], poly[(i + 1) % n]
        e = b - a
        m &= (e[0] * (pts[:, 1] - a[1]) - e[1] * (pts[:, 0] - a[0])) >= -tol
    return m


def oracle_equilibrium(formation: Formation, grid_resolution: float = 1e-3) -> ObjectEquilibrium:
    """Brute-force equilibrium: nested search independent of the solvers.

    Outer loop: a contact-point grid over the sheet polygon (interior cells
    plus boundary samples, since contacts may pin to an edge), refined twice
    around the incumbent so the final spacing is below grid_resolution.
    Inner loop: the exact lowest point of the cable balls at each contact.
    """
    _require_feasible(formation)
    v = formation.layout.holding_points
    r = formation.robot_positions
    z_r = formation.holding_height
    lo, hi = v.min(axis=0), v.max(axis=0)
    extent = float(max(hi - lo))
    n0 = max(int(np.ceil(extent / (25.0 * grid_resolution))) + 1, 41)

    def scan(center, half, npts):
        xs = np.linspace(center[0] - half, center[0] + half, npts)
        ys = np.linspace(center[1] - half, center[1] + half, npts)
        gx, gy = np.meshgrid(xs, ys)
        pts = np.column_stack([gx.ravel(), gy.ravel()])
        pts = pts[_points_in_polygon_mask(pts, v)]
        step = 2 * half / (npts - 1)
        edge_chunks = []
        nv = len(v)
        for i in range(nv):
            a, b = v[i], v[(i + 1) % nv]
            L = float(np.linalg.norm(b - a))
            ts = np.linspace(0.0, 1.0, max(int(np.ceil(L / step)) + 1, 2))
            epts = a[None, :] + ts[:, None] * (b - a)[None, :]
            keep = np.all(np.abs(epts - center) <= half + 1e-12, axis=1)
            edge_chunks.append(epts[keep])
        edge_pts = np.concatenate(edge_chunks)
        pts = np.concatenate([pts, edge_pts]) if len(pts) else edge_pts
        if len(pts) == 0:
            return None
        rho = np.sqrt(np.sum((pts[:, None, :] - v[None, :, :]) ** 2, axis=2))
        q, z = kernels.lowest_point_grid(r, z_r, rho)
        k = int(np.argmin(z))
        return pts[k], q[k], float(z[k])

    center = 0.5 * (lo + hi)
    half = 0.5 * extent
    spacing = 2 * half / (n0 - 1)
    best = scan(center, half, n0)
    for _ in range(2):
        win = 2 * spacing
        refined = scan(best[0], win, 21)
        if refined is not None and refined[2] < best[2]:
            best = refined
        spacing = 2 * win / 20
    u, q, z = best
    on_edge = not point_in_polygon(u, v, tol=-1e-9)
    eq = _build_equilibrium(formation, u, q, z, boundary=on_edge)
    return eq


# ------------------------------------------------------ inverse kinematics
def inverse_kinematics(
    layout: SheetLayout,
    contact,
    object_height: float,
    phis,
    anchor=(0.0, 0.0),
) -> Formation:
    """Robot positions that hold the object at (contact, height), all taut.

    Places robot i at horizontal distance sqrt(l_i^2 - h^2) from the object
    anchor along direction phi_i, with h the hang depth. The result must be
    a strictly convex ccw formation, strictly inelastic, with the anchor
    strictly inside (necessary for the all-taut state to balance).
    """
    contact = np.asarray(contact, dtype=float)
    anchor = np.asarray(anchor, dtype=float)
    phis = np.asarray(phis, dtype=float)
    v = layout.holding_points
    z_r = layout.holding_height
    if len(phis) != layout.n:
        raise ValueError(f"expected {layout.n} angles, got {len(phis)}")
    if not point_in_polygon(contact, v, tol=-1e-9):
        raise ValueError("contact must lie strictly inside the sheet polygon")
    if not object_height < z_r:
        raise ValueError("object height must be below the holding height")
    l = layout.cable_lengths(contact)
    h = z_r - object_height
    short = l * l - h * h
    if np.any(short < -1e-12):
        k = int(np.argmin(short))
        raise CableTooShort(
            f"cable {k}: geodesic {l[k]:.6f} m cannot reach depth {h:.6f} m"
        )
    radial = np.sqrt(np.clip(short, 0.0, None))
    robots = anchor + radial[:, None] * np.column_stack([np.cos(phis), np.sin(phis)])
    n = layout.n
    for i, j in itertools.combinations(range(n), 2):
        gap = np.linalg.norm(robots[i] - robots[j]) - np.linalg.norm(v[i] - v[j])
        if gap >= -1e-9:
            raise InelasticityViolated(
                f"pair ({i},{j}) spacing within {gap:.2e} m of the sheet spacing"
            )
    formation = Formation(robots, layout)   # raises NonConvexResult if disordered
    # anchor on the boundary is the deepest-hang limit (a robot directly
    # above the object); strictly outside can never balance
    if not point_in_polygon(anchor, robots, tol=1e-9):
        raise ObjectOutsideFormation(
            "object anchor outside the formation polygon; the all-taut state "
            "cannot balance there"
        )
    return formation
