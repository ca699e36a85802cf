"""Hanging-object equilibrium under the variable-cable sheet model.

Each sheet ridge from holding point v_i to the contact point v_o acts as a
virtual cable of geodesic length l_i = ||v_i - v_o||; the object's world
position p_o then satisfies ||p_o - p_i|| <= l_i for every cable, with
equality on the taut ones. The object settles at the lowest admissible
height, which reduces every solve to small exact linear algebra:

* anchored pairwise differencing makes the taut-equality system linear in
  (contact, horizontal object position); a rank-revealing SVD exposes the
  solution manifold, and the hang depth is a quadratic along it;
* one generator (`_stationary_points`) solves every such system of a solve
  as one stack per row count, with the same rounding as one system at a
  time; `direct_kinematics` calls it with its one taut subset;
* the global equilibrium is the deepest validated row of one candidate
  table per team size (`_solve_plan`): interior taut subsets, two-cable
  ridge hangs and contacts pinned to a sheet edge as fixed rows, all
  validated in one batched call and ranked by one lexsort on height and
  each row's precomputed taut-set rank;
* a brute-force grid oracle (`oracle_equilibrium`) provides an independent
  check by nested search over contact candidates.
"""
from __future__ import annotations

import functools
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
    ValidationError,
)
from .geometry import (
    Formation,
    SheetLayout,
    dot,
    pair_distances,
    pair_index,
    point_in_polygon,
    points_in_polygon,
    require_finite,
    require_positive,
    rotation,
)

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


def _cables(v, z_r, r, u, q, z):
    """Geodesic length l and robot-to-object distance d of every cable.

    Contacts u, object positions q and heights z may carry leading
    candidate axes; the cables are the last axis of l and d.
    """
    l = np.linalg.norm(v - np.asarray(u)[..., None, :], axis=-1)
    d = np.sqrt(np.sum((r - np.asarray(q)[..., None, :]) ** 2, axis=-1)
                + ((z_r - np.asarray(z)) ** 2)[..., None])
    return l, d


def cable_distances(formation: Formation, eq: ObjectEquilibrium):
    """Per-cable (geodesic, euclidean) lengths at a solved equilibrium."""
    return _cables(formation.layout.holding_points, formation.holding_height,
                   formation.robot_positions, eq.sheet_contact, eq.horizontal, eq.z)


def _build_equilibrium(formation, u, q, z, boundary=False) -> ObjectEquilibrium:
    z_r = formation.holding_height
    l, d = _cables(formation.layout.holding_points, z_r, formation.robot_positions, u, q, z)
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
def _T(a):
    """Transpose of each matrix of a stack, as a view."""
    return np.swapaxes(a, -1, -2)


def _frames(points, pairs):
    """Canonical frames: for every anchor pair (i1, i2) of the (P, 2) `pairs`,
    the points rotated and translated so points[i1] is the origin and
    points[i2] lies on +x.

    `points` is (..., N, 2), one point set per leading index. Returns the
    canonical points (..., P, N, 2); the same points rotated one at a time,
    as the edge rows need (a 1-D product rounds differently from the 2-D
    one); the origins (..., P, 2); and the rotations (..., P, 2, 2) back to
    the original frame.
    """
    o = points[..., pairs[:, 0], :]
    d = points[..., pairs[:, 1], :] - o
    ang = np.arctan2(d[..., 1], d[..., 0])
    fwd = _T(rotation(-ang))
    rel = points[..., None, :, :] - o[..., None, :]
    rows = (rel[..., None, :] @ fwd[..., None, :, :])[..., 0, :]
    return rel @ fwd, rows, o, rotation(ang)


def _flat_candidate(v, z_r, r, idx):
    """Degenerate flat solution: contact at the taut centroid, zero drop."""
    canon, _, origin, back = _frames(np.array([v, r]), np.array([idx[:2]]))
    u_c = canon[0, 0, list(idx)].mean(axis=0)
    u, q = u_c @ _T(back[:, 0]) + origin[:, 0]
    return u, q, z_r


# ------------------------------------------------------- stationary points
def _plan(systems, n):
    """Stack the anchored difference systems of `systems` by row count.

    A system (idx, e) is a taut subset idx (ascending cable indices) whose
    contact is pinned to the line of sheet edge e (from holding point e to
    e + 1), or free when e < 0. Its rows are one per cable of idx[1:], in
    order, then the edge row. Returns the anchor pairs (idx[0], idx[1]) as a
    (P, 2) array, the number of systems, and one stack per row count: the
    positions of its systems in `systems`, their anchor pair, the cable of
    each row (0 in an edge row), the stack positions of the pinned systems,
    and their (anchor pair, edge end) indices.
    """
    pairs = sorted({idx[:2] for idx, _ in systems})
    where = {p: k for k, p in enumerate(pairs)}
    groups = {}
    for s, (idx, e) in enumerate(systems):
        groups.setdefault(len(idx) - 1 + (e >= 0), []).append(s)
    stacks = []
    for k, sel in sorted(groups.items()):
        idxs = [systems[s][0] for s in sel]
        pair = np.array([where[idx[:2]] for idx in idxs])
        edge = np.array([systems[s][1] for s in sel])
        pinned = np.flatnonzero(edge >= 0)
        ends = (pair[pinned][None], np.stack([edge[pinned], (edge[pinned] + 1) % n]))
        cables = np.array([idx[1:] + (0,) * (k + 1 - len(idx)) for idx in idxs])
        stacks.append((np.array(sel), pair, cables, pinned, ends))
    return np.array(pairs), len(systems), stacks


def _stationary_points(v, z_r, r, plan):
    """Minimum-energy point of the taut-equality manifold of every system.

    Anchored differencing makes each system linear in the contact u and the
    local object position w; an edge row pins u to the line of a sheet edge.
    A rank-revealing SVD gives a particular solution and the null space, and
    the hang quadratic J = |w|^2 - |u|^2 is minimized over it. The canonical
    frames are computed once per anchor pair, and all systems with the same
    number of rows are solved as one stack. Each stacked product keeps the
    memory layout (transposed views, not copies) of the 2-D or 1-D product
    of one system, so that a system rounds the same whatever it is stacked
    with: the golden outputs print round-off.

    Returns the contacts u (S, 2), object positions q (S, 2) and heights
    z (S,) in original coordinates, and the mask of the systems that have a
    minimum: consistent, with the hang quadratic bounded below along the
    null space, at a real hang depth.
    """
    pairs, count, stacks = plan
    canon, (vrows, _), origin, back = _frames(np.array([v, r]), pairs)
    uq = np.zeros((2, count, 2))
    z = np.zeros(count)
    ok = np.zeros(count, dtype=bool)
    for sel, pair, cables, pinned, ends in stacks:
        vk, rk = canon[:, pair[:, None], cables]
        A = np.concatenate([2 * vk, -2 * rk], axis=2)
        b = dot(vk, vk) - dot(rk, rk)
        if len(pinned):
            a2, b2 = vrows[ends]
            A[pinned, -1, :2] = (b2 - a2)[:, ::-1] * (-1.0, 1.0)
            A[pinned, -1, 2:] = 0.0
            b[pinned, -1] = b2[:, 0] * a2[:, 1] - b2[:, 1] * a2[:, 0]
        # overdetermined systems (redundant cables) pass through: the residual
        # test below keeps only geometrically consistent ones
        U, S, Vt = np.linalg.svd(A)
        live = S > 1e-10 * np.maximum(S[:, :1], 1.0)
        rank = live.sum(axis=1)
        # x0 = Vt^T S^+ U^T b, with the pseudo-inverse applied entrywise
        scaled = np.zeros((len(sel), 4))
        scaled[:, :S.shape[1]] = (1.0 / np.where(live, S, np.inf)) * (
            _T(U) @ b[..., None])[:, :S.shape[1], 0]
        x0 = (_T(Vt) @ scaled[..., None])[..., 0]
        res = (A @ x0[..., None])[..., 0] - b
        consistent = ~(np.sqrt(dot(res, res)) > 1e-8 * np.maximum(1.0, np.sqrt(dot(b, b))))
        for rk_ in set(rank[consistent].tolist()):
            g = np.flatnonzero(consistent & (rank == rk_))
            Zt = Vt[g, rk_:]                     # null-space basis, one row each
            Zu, Zw = Zt[:, :, :2], Zt[:, :, 2:]
            u0, w0 = x0[g, :2], x0[g, 2:]
            t = np.zeros((len(g), 4 - rk_))
            has = np.ones(len(g), dtype=bool)
            if rk_ < 4:
                H = 2.0 * (Zw @ _T(Zw) - Zu @ _T(Zu))
                grad = 2.0 * (Zw @ w0[..., None] - Zu @ u0[..., None])[..., 0]
                evals = np.linalg.eigvalsh(H)
                has = np.all(evals > 1e-12, axis=1)
                t[has] = np.linalg.solve(H[has], -grad[has][..., None])[..., 0]
                for s in np.flatnonzero(~has & np.all(evals > -1e-12, axis=1)):
                    # positive semidefinite with a flat direction: minimum-norm minimizer
                    ts = -np.linalg.pinv(H[s]) @ grad[s]
                    if np.linalg.norm(H[s] @ ts + grad[s]) <= 1e-8:
                        t[s], has[s] = ts, True
                # indefinite H: no interior minimum on this manifold; the
                # edge-pinned systems cover those equilibria
            uu = u0 + (_T(Zu) @ t[..., None])[..., 0]
            ww = w0 + (_T(Zw) @ t[..., None])[..., 0]
            drop2 = dot(uu, uu) - dot(ww, ww)
            at, p = sel[g], pair[g]
            uq[:, at] = (np.array([uu, ww])[..., None, :] @ _T(back[:, p]))[..., 0, :] + origin[:, p]
            z[at] = z_r - np.sqrt(np.maximum(drop2, 0.0))
            ok[at] = has & ~(drop2 < -1e-9)
    return uq[0], uq[1], z, ok


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
        raise ValidationError("taut_flags", f"expected {formation.n} flags, got {len(flags)}")
    _require_feasible(formation)
    taut = [i for i, f in enumerate(flags) if f]
    if len(taut) < 3:
        raise TooFewTaut(f"need at least 3 taut cables, got {len(taut)}")
    v = formation.layout.holding_points
    r = formation.robot_positions
    z_r = formation.holding_height
    if np.all(np.abs(pair_distances(v[taut]) - pair_distances(r[taut])) <= 1e-9):
        # fully stretched: the sheet is flat across the taut subset
        u, q, z = _flat_candidate(v, z_r, r, taut)
        return _build_equilibrium(formation, u, q, z)
    base = taut[:5]
    u, q, z, ok = _stationary_points(v, z_r, r, _plan([(tuple(base), -1)], formation.n))
    if not ok[0]:
        # inconsistent taut system or indefinite hang Hessian
        raise SingularSystem("no interior minimum on the taut manifold")
    u, q, z = u[0], q[0], z[0]
    if not point_in_polygon(u, v[taut], tol=1e-9):
        raise ContactOutsideHull(f"contact {u} outside taut hull")
    l, d = _cables(v, z_r, r, u, q, z)
    off = np.abs(l - d)         # taut-equality residual |l_k - ||p_o - p_k||| per cable
    if np.max(off[base]) > TAUT_TOL:
        raise NoConvergence("taut residual above tolerance")
    for k in taut[5:]:
        if off[k] > 1e-6:
            raise InconsistentRedundancy(
                f"cable {k} off by {off[k]:.2e} at the five-cable solution"
            )
    return _build_equilibrium(formation, u, q, z)


# ------------------------------------------------- equilibrium discovery
@functools.lru_cache(maxsize=None)
def _solve_plan(n):
    """The candidate table of every solve with n cables, built once per n.

    Rows: the interior systems (every taut subset of three or more cables,
    by decreasing size), one ridge per cable pair in `pair_index(n)` order,
    then the edge systems (for each sheet edge, every subset of two to four
    cables). Returns (sets, plan, hulls, ends, spans, rank): each row's taut
    set; the stacked systems; each interior subset padded to n cables by
    repeating its last one (a zero-length polygon side excludes no point);
    the two holding points of each edge system's edge; for each interior
    subset, the cable pairs of `pair_index(n)` with both cables in it; and
    each row's rank in the order of (-len(set), set), equal sets sharing it.
    """
    interior = [
        idx for m in range(n, 2, -1) for idx in itertools.combinations(range(n), m)
    ]
    edge = [
        (idx, e)
        for e in range(n)
        for m in range(2, min(n, 4) + 1)
        for idx in itertools.combinations(range(n), m)
    ]
    sets = interior + list(itertools.combinations(range(n), 2)) + [idx for idx, _ in edge]
    order = {idx: k for k, idx in enumerate(sorted(set(sets), key=lambda idx: (-len(idx), idx)))}
    hulls = np.array([idx + idx[-1:] * (n - len(idx)) for idx in interior])
    ends = np.array([(e, (e + 1) % n) for _, e in edge]).T
    member = np.any(hulls[:, :, None] == np.arange(n), axis=1)
    spans = member[:, pair_index(n)].all(axis=1)
    plan = _plan([(idx, -1) for idx in interior] + edge, n)
    return sets, plan, hulls, ends, spans, np.array([order[idx] for idx in sets])


def _select_best(v, z_r, r, z, u, q, ok, rank):
    """Row of the best candidate that validates, or None.

    A candidate validates when it is `ok`, its contact lies on the sheet, no
    cable is longer than its geodesic, and its height is the lowest point of
    the cable balls for its contact. Every candidate of a solve shares the
    robot positions as ball centers, so the lowest points of all candidates
    that pass the first three checks come from one batched kernel call. The
    best is the lowest, then the one of lowest `rank`, then the first row.
    """
    kept = np.flatnonzero(ok)
    rho, d = _cables(v, z_r, r, u[kept], q[kept], z[kept])
    fits = points_in_polygon(u[kept], v) & ~np.any(d > rho + FEAS_TOL, axis=1)
    kept = kept[fits]
    _, z_low = kernels.lowest_point_grid(r, z_r, rho[fits])
    valid = kept[np.abs(z_low - z[kept]) <= ENERGY_TOL]
    if not len(valid):
        return None
    return valid[np.lexsort((valid, rank[valid], z[valid]))[0]]


def solve_equilibrium(formation: Formation) -> ObjectEquilibrium:
    """Find the physically valid equilibrium, discovering the taut set.

    The candidates are the rows of `_solve_plan`: the stationary
    configurations of interior taut subsets of three or more cables (contact
    inside the subset's hull; the flat contact when the subset is fully
    stretched), two-cable fold-line ridge hangs, and subsets of two to four
    cables with the contact pinned to a sheet edge (contact on that edge).
    One stacked generator, `_stationary_points`, solves the interior and
    edge systems together; every row is then validated against the cable
    inequalities and the exact lowest-point kernel in one `_select_best`
    call, and the lowest-energy survivor is returned. Ties favor larger
    taut sets, then lexicographic order.
    """
    _require_feasible(formation)
    v = formation.layout.holding_points
    r = formation.robot_positions
    z_r = formation.holding_height
    n = formation.n

    sets, plan, hulls, ends, spans, rank = _solve_plan(n)
    u, q, z, ok = _stationary_points(v, z_r, r, plan)
    ni = len(hulls)
    a, ab = v[ends[0]], v[ends[1]] - v[ends[0]]
    s = dot(u[ni:] - a, ab) / dot(ab, ab)
    ok &= np.concatenate([
        points_in_polygon(u[:ni], v[hulls]), (s >= -1e-9) & (s <= 1 + 1e-9)
    ])
    lv, lr = pair_distances(v), pair_distances(r)
    stretched = np.abs(lv - lr) <= 1e-9
    if stretched.any():
        # a fully stretched subset hangs flat, whatever its stationary point
        for k in np.flatnonzero(~np.any(spans[:, ~stretched], axis=1)):
            u[k], q[k], z[k] = _flat_candidate(v, z_r, r, sets[k])
            ok[k] = True

    # two-cable fold-line ridges: the deepest point below each folded sheet chord
    fold = ~(lr >= lv - 1e-12)
    i, j = pair_index(n)
    ridge = (0.5 * (v[i] + v[j]), 0.5 * (r[i] + r[j]),
             z_r - 0.5 * np.sqrt(np.where(fold, lv * lv - lr * lr, 0.0)), fold)
    u, q, z, ok = (np.concatenate([x[:ni], rows, x[ni:]]) for x, rows in zip((u, q, z, ok), ridge))
    best = _select_best(v, z_r, r, z, u, q, ok, rank)
    if best is None:
        raise NoEquilibrium(
            "no candidate equilibrium validated; feasible input should always "
            "admit one (solver bug signal)"
        )
    on_edge = not point_in_polygon(u[best], v, tol=-1e-9)
    return _build_equilibrium(
        formation, u[best], q[best], z[best], boundary=bool(best >= ni) or on_edge
    )


# -------------------------------------------------------------- the oracle
def oracle_equilibrium(formation: Formation, grid_resolution: float = 1e-3) -> ObjectEquilibrium:
    """Brute-force equilibrium: nested search independent of the solvers.

    Outer loop: a contact-point grid over the sheet polygon (interior cells
    plus boundary samples, since contacts may pin to an edge), refined twice
    around the incumbent so the final spacing is below grid_resolution.
    Inner loop: the exact lowest point of the cable balls at each contact.
    """
    require_positive("grid_resolution", grid_resolution)
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
        pts = pts[points_in_polygon(pts, v)]
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
    for name, value in (("contact", contact), ("object_height", object_height),
                        ("phis", phis), ("anchor", anchor)):
        require_finite(name, value)
    v = layout.holding_points
    z_r = layout.holding_height
    if len(phis) != layout.n:
        raise ValidationError("phis", f"expected {layout.n} angles, got {len(phis)}")
    if not point_in_polygon(contact, v, tol=-1e-9):
        raise ValidationError("contact", "must lie strictly inside the sheet polygon")
    if not object_height < z_r:
        raise ValidationError("object_height", "must be below the holding height")
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
    gap = pair_distances(robots) - pair_distances(v)
    tight = np.flatnonzero(gap >= -1e-9)
    if len(tight):
        k = tight[0]
        i, j = pair_index(layout.n)[:, k]
        raise InelasticityViolated(
            f"pair ({i},{j}) spacing within {gap[k]:.2e} m of the sheet spacing"
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
