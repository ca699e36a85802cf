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
  ridge hangs and contacts pinned to a sheet edge as fixed rows, validated
  in batched calls and ranked by one lexsort on height and each row's
  precomputed taut-set rank;
* rows pinned to a sheet edge are solved only where they can win. A
  contact on edge e (from v_e to v_e+1, length L_e) splits L_e between
  cables e and e+1, and a point at depth h inside both of their balls has
  l_e + l_e+1 >= sqrt(4 h^2 + D_e^2), D_e the distance of robots e and
  e+1 (triangle inequality). So no edge-e row hangs deeper than that
  pair's ridge, 1/2 sqrt(L_e^2 - D_e^2); with L_e widened by a delta that
  covers the validation's tolerances (kernel ball slack, end tolerance,
  line residual; derived in `solve_equilibria`) this gives a floor per
  edge (`_edge_floors`). The interior and ridge rows are ranked first, and
  only the edges whose floor does not lie above that winner are solved
  and ranked against it, which picks the same row as one ranking of all;
* every step carries a leading formation axis: `solve_equilibria` solves a
  stack of formations with one team size (the optimizer's probes of one
  poll) in one pass, each to the same bits as alone, and
  `solve_equilibrium` is its one-formation case;
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
    SheetPlanError,
    SingularSystem,
    TooFewTaut,
    ValidationError,
)
from .geometry import (
    Formation,
    SheetLayout,
    convex_turns,
    dot,
    pair_distances,
    pair_index,
    point_in_polygon,
    points_in_polygon,
    polygon_sides,
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
    e = v - np.asarray(u)[..., None, :]
    l = np.sqrt(np.add.reduce(e * e, axis=-1))     # np.linalg.norm(e, axis=-1)
    d = np.sqrt(np.sum((r - np.asarray(q)[..., None, :]) ** 2, axis=-1)
                + ((z_r - np.asarray(z)) ** 2)[..., None])
    return l, d


def cable_distances(formation: Formation, eq: ObjectEquilibrium):
    """Per-cable (geodesic, euclidean) lengths at a solved equilibrium."""
    return _cables(formation.layout.holding_points, formation.holding_height,
                   formation.robot_positions, eq.sheet_contact, eq.horizontal, eq.z)


def _equilibrium(u, q, z, z_r, l, d, boundary):
    """The ObjectEquilibrium of a solved state whose cables measure (l, d)."""
    cables = tuple(
        CableState(i, float(l[i]), "taut" if d[i] >= l[i] - SLACK_BAND else "slack")
        for i in range(len(l))
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
def _plan(systems):
    """Stack the anchored difference systems of `systems` by row count.

    A system (idx, e) is a taut subset idx (ascending cable indices) whose
    contact is pinned to the line of sheet edge e (from holding point e to
    e + 1), or free when e < 0. Its rows are one per cable of idx[1:], in
    order, then the edge row. Returns the anchor pairs (idx[0], idx[1]) as a
    (P, 2) array, and one stack per row count: the positions of its systems
    in `systems`, their anchor pairs, the cable of each row (0 in an edge
    row) and their edges.
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
        cables = np.array([idx[1:] + (0,) * (k + 1 - len(idx)) for idx in idxs])
        stacks.append((np.array(sel), pair, cables, edge))
    return np.array(pairs), stacks


def _stationary_points(v, z_r, r, plan, solve):
    """Minimum-energy point of the taut-equality manifold of chosen systems.

    Anchored differencing makes each system linear in the contact u and the
    local object position w; an edge row pins u to the line of a sheet edge.
    A rank-revealing SVD gives a particular solution and the null space, and
    the hang quadratic J = |w|^2 - |u|^2 is minimized over it. The canonical
    frames are computed once per anchor pair; all chosen systems with the
    same number of rows are solved as one stack, and all with the same rank
    are minimized as one. Each stacked product keeps the memory layout
    (transposed views, not copies) of the 2-D or 1-D product of one system,
    so that a system rounds the same whatever it is stacked with: the golden
    outputs print round-off.

    `v` and `r` are (K, n, 2) and `z_r` is (K,): one sheet, team and
    holding height per formation of the stack; `solve` (K, S) marks the
    systems of the plan to solve for each formation. Returns the contacts
    u (K, S, 2), object positions q (K, S, 2) and heights z (K, S) in
    original coordinates (zero where not solved), and the mask of the
    solved systems that have a minimum: consistent, with the hang quadratic
    bounded below along the null space, at a real hang depth.
    """
    pairs, stacks = plan
    canon, (vrows, _), origin, back = _frames(np.array([v, r]), pairs)
    # the chosen (formation, system, anchor pair) entries, stack by stack
    at, x0, Vt, rank, consistent = [], [], [], [], []
    for sel, pair, cables, edge in stacks:
        f, s = np.nonzero(solve[:, sel])
        if not len(f):
            continue
        p, e = pair[s], edge[s]
        vk, rk = canon[:, f[:, None], p[:, None], cables[s]]
        A = np.concatenate([2 * vk, -2 * rk], axis=2)
        b = dot(vk, vk) - dot(rk, rk)
        pinned = np.flatnonzero(e >= 0)
        if len(pinned):
            fp, pp, ep = f[pinned], p[pinned], e[pinned]
            a2, b2 = vrows[fp, pp, ep], vrows[fp, pp, (ep + 1) % v.shape[1]]
            A[pinned, -1, :2] = (b2 - a2)[..., ::-1] * (-1.0, 1.0)
            A[pinned, -1, 2:] = 0.0
            b[pinned, -1] = b2[..., 0] * a2[..., 1] - b2[..., 1] * a2[..., 0]
        # overdetermined systems (redundant cables) pass through: the residual
        # test below keeps only geometrically consistent ones
        U, S, W = np.linalg.svd(A)
        live = S > 1e-10 * np.maximum(S[:, :1], 1.0)
        # x = W^T S^+ U^T b, with the pseudo-inverse applied entrywise
        scaled = np.zeros((len(f), 4))
        scaled[:, :S.shape[1]] = (1.0 / np.where(live, S, np.inf)) * (
            _T(U) @ b[..., None])[:, :S.shape[1], 0]
        x = (_T(W) @ scaled[..., None])[..., 0]
        res = (A @ x[..., None])[..., 0] - b
        at.append((f, sel[s], p))
        x0.append(x)
        Vt.append(W)
        rank.append(live.sum(axis=1))
        consistent.append(~(np.sqrt(dot(res, res)) > 1e-8 * np.maximum(1.0, np.sqrt(dot(b, b)))))
    f, s, p = map(np.concatenate, zip(*at))
    x0, Vt, rank, consistent = map(np.concatenate, (x0, Vt, rank, consistent))
    uw = np.zeros((2, len(x0), 2))             # local contact and object position
    depth = np.zeros(len(x0))
    ok = np.zeros(len(x0), dtype=bool)
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
        uw[0, g], uw[1, g] = uu, ww
        depth[g] = np.sqrt(np.maximum(drop2, 0.0))
        ok[g] = has & ~(drop2 < -1e-9)
    u, q = np.zeros((2,) + solve.shape + (2,))
    z, good = np.zeros(solve.shape), np.zeros(solve.shape, dtype=bool)
    u[f, s], q[f, s] = (uw[..., None, :] @ _T(back[:, f, p]))[..., 0, :] + origin[:, f, p]
    z[f, s], good[f, s] = z_r[f] - depth, ok
    return u, q, z, good


# --------------------------------------------------------- known taut set
def _stretched(stretch):
    return InfeasibleFormation(f"robot pair exceeds sheet spacing by {stretch:.3e} m")


def _require_feasible(formation):
    stretch = formation.stretch()
    if stretch > 1e-9:
        raise _stretched(stretch)


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
        return _equilibrium(u, q, z, z_r, *_cables(v, z_r, r, u, q, z), False)
    base = taut[:5]
    u, q, z, ok = _stationary_points(v[None], np.array([z_r]), r[None],
                                     _plan([(tuple(base), -1)]), np.ones((1, 1), dtype=bool))
    if not ok[0, 0]:
        # inconsistent taut system or indefinite hang Hessian
        raise SingularSystem("no interior minimum on the taut manifold")
    u, q, z = u[0, 0], q[0, 0], z[0, 0]
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
    return _equilibrium(u, q, z, z_r, l, d, False)


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
    plan = _plan([(idx, -1) for idx in interior] + edge)
    return sets, plan, hulls, ends, spans, np.array([order[idx] for idx in sets])


def _edge_floors(v, z_r, r):
    """Per formation and sheet edge e, a height below which no row pinned to
    e validates: z_r - 1/2 sqrt((L_e + delta_e)^2 - D_e^2) - ENERGY_TOL, as
    derived in `solve_equilibria`."""
    side, gap = polygon_sides(v), polygon_sides(r)
    L = np.sqrt(dot(side, side))
    W = 0.5 * L.sum(axis=-1, keepdims=True)     # half the perimeter: at least the sheet's width
    delta = 2 * FEAS_TOL + 2e-9 * L + 1e-7 * np.maximum(1.0, W * W) / L
    return z_r[..., None] - 0.5 * np.sqrt((L + delta) ** 2 - dot(gap, gap)) - ENERGY_TOL


def _select_best(v, z_r, r, z, u, q, ok, rank):
    """Row of the best candidate of each formation that validates, or -1.

    The arrays carry a leading formation axis: sheets `v`, teams `r` and
    heights `z_r` per formation, candidates `z`, `u`, `q` and `ok` per
    formation and table row. A candidate validates when it is `ok`, its
    contact lies on the sheet, no cable is longer than its geodesic, and its
    height is the lowest point of the cable balls for its contact. The
    lowest points of all candidates of the stack that pass the first three
    checks come from one batched kernel call, each with its formation's
    robots as ball centers, robot 0 of each at the origin (far from it the
    squared drop of a flat row rounds off by more than ENERGY_TOL**2). The
    best is the lowest, then the one of lowest `rank`, then the first row;
    heights within ENERGY_TOL of the holding height tie as flat, since a
    row's depth near a flat sheet is the root of a rounding error.
    """
    f, row = np.nonzero(ok)
    v, z_r, r = v[f], z_r[f], r[f]
    u, z = u[f, row], z[f, row]
    rho, d = _cables(v, z_r, r, u, q[f, row], z)
    fits = np.flatnonzero(points_in_polygon(u, v) & ~np.any(d > rho + FEAS_TOL, axis=1))
    team = r[fits]
    _, z_low = kernels.lowest_point_grid(team - team[:, :1], z_r[fits], rho[fits])
    valid = fits[np.abs(z_low - z[fits]) <= ENERGY_TOL]
    level = np.minimum(z, z_r - ENERGY_TOL)     # rows this near flat tie
    valid = valid[np.lexsort((valid, rank[row[valid]], level[valid], f[valid]))]
    f = f[valid]
    head = np.ones(len(f), dtype=bool)         # the first row of each formation
    head[1:] = f[1:] != f[:-1]
    best = np.full(len(ok), -1)
    best[f[head]] = row[valid[head]]
    return best


def solve_equilibria(formations) -> list:
    """Equilibria of formations with one team size, solved as one stack.

    Returns one entry per formation, in order: its ObjectEquilibrium, or the
    SheetPlanError that `solve_equilibrium` raises for it. Infeasible
    formations leave the stack before the solve; the others are solved
    together along a leading formation axis, each to the same bits as on
    its own. Raises ValueError when the team sizes differ.

    The solve has two phases. Phase 1 solves the interior systems, adds
    the ridge rows and ranks them: each formation's best validated height
    z*. Phase 2 solves the edge systems of each (formation, edge e) whose
    floor lies at or below z*, or of every edge when nothing validated,
    and ranks them together with the phase-1 winner. A skipped row would
    validate only at a height above its floor, hence above z*: it could
    neither win nor tie, and the pick is the one of ranking every row.
    (When z* is within ENERGY_TOL of the holding height, so that rows tie
    as flat, every floor lies below it and no edge is skipped.)

    The floor. Let a validated row pin its contact u to edge e, from v_e
    to v_e+1 with length L_e, and let D_e be the distance of robots e and
    e+1 (ball centers P_e, P_e+1 at the holding height). Its height z lies
    at most ENERGY_TOL below the kernel's lowest point p for the radii
    l_i = |v_i - u|, and p lies within l_i + FEAS_TOL of every P_i (the
    kernel's ball slack). A point at depth h below the holding height has
    |p - P_e| + |p - P_e+1| >= sqrt(4 h^2 + D_e^2), equality below the
    midpoint of the two centers. So h <= 1/2 sqrt((l_e + l_e+1 +
    2 FEAS_TOL)^2 - D_e^2), and l_e + l_e+1 <= L_e + 2 |s'| L_e + 2 t,
    where s' is how far u's projection passes an end of the edge (a share
    of L_e) and t is u's distance from the edge's line. Hence
    z >= z_r - 1/2 sqrt((L_e + delta_e)^2 - D_e^2) - ENERGY_TOL with
    delta_e = 2 FEAS_TOL + 2e-9 L_e + 2 t_max:

    * 2 FEAS_TOL, the ball slack of both balls;
    * 2e-9 L_e, since the end test admits |s'| <= 1e-9;
    * 2 t_max for the line residual. The pinned row reads L_e t, and the
      consistency test of `_stationary_points` holds the residual below
      1e-8 max(1, |b|), with |b| <= 2 W^2 (at most four rows, each right
      side at most W^2 in size; W is the sheet's width, which half the
      perimeter bounds). The minimization then moves the solution by at
      most |x| <= 1.5 W (a contact on the sheet and an object within its
      cables, both from their anchors) along directions the rank cutoff
      keeps within 1e-10 max(1, 5 W) of the null space (|A| <= 5 W). So
      L_e t_max <= 2.5e-8 max(1, W^2); the code takes twice that bound,
      1e-7 max(1, W^2) / L_e for 2 t_max, as room for round-off.

    Feasible formations have D_e <= L_e + 1e-9 < L_e + delta_e, so every
    floor is real. Every system rounds the same whatever it is stacked
    with, so the rows of both phases carry the bits of a solve of all.
    """
    results = list(formations)
    if not results:
        return results
    v, r, z_r = map(np.array, zip(*[(f.layout.holding_points, f.robot_positions,
                                     f.holding_height) for f in results]))
    with np.errstate(over="ignore"):     # robots too far apart to square: inf apart
        lv, lr = pair_distances(v), pair_distances(r)
    stretch = np.max(lr - lv, axis=1)          # as Formation.stretch() of each
    stack = np.flatnonzero(~(stretch > 1e-9))
    if len(stack) < len(results):
        for k in np.flatnonzero(stretch > 1e-9):
            results[k] = _stretched(stretch[k])
        if not len(stack):
            return results
        v, r, z_r, lv, lr = v[stack], r[stack], z_r[stack], lv[stack], lr[stack]
    K, n = r.shape[:2]

    sets, plan, hulls, ends, spans, rank = _solve_plan(n)
    ni, ne = len(hulls), ends.shape[1]
    # phase 1: the interior systems and the ridges
    interior = np.arange(ni + ne) < ni
    u, q, z, ok = _stationary_points(v, z_r, r, plan, np.broadcast_to(interior, (K, ni + ne)))
    ok[:, :ni] &= points_in_polygon(u[:, :ni], v[:, hulls])
    stretched = np.abs(lv - lr) <= 1e-9
    for f in np.flatnonzero(stretched.any(axis=1)):
        # a fully stretched subset hangs flat, whatever its stationary point
        for k in np.flatnonzero(~np.any(spans[:, ~stretched[f]], axis=1)):
            u[f, k], q[f, k], z[f, k] = _flat_candidate(v[f], z_r[f], r[f], sets[k])
            ok[f, k] = True

    # two-cable fold-line ridges: the deepest point below each folded sheet chord
    fold = ~(lr >= lv - 1e-12)
    i, j = pair_index(n)
    ridge = (0.5 * (v[:, i] + v[:, j]), 0.5 * (r[:, i] + r[:, j]),
             z_r[:, None] - 0.5 * np.sqrt(np.where(fold, lv * lv - lr * lr, 0.0)), fold)
    u, q, z, ok = (np.concatenate([x[:, :ni], rows, x[:, ni:]], axis=1)
                   for x, rows in zip((u, q, z, ok), ridge))
    best = _select_best(v, z_r, r, z, u, q, ok, rank)

    # phase 2: the edges whose floor does not lie above the phase-1 winner
    need = _edge_floors(v, z_r, r) <= np.where(best >= 0, z[np.arange(K), best], np.inf)[:, None]
    g = np.flatnonzero(need.any(axis=1))
    if len(g):
        v2, z2, r2, edge = v[g], z_r[g], r[g], slice(len(rank) - ne, None)
        solve = np.zeros((len(g), ni + ne), dtype=bool)
        solve[:, ni:] = need[g][:, ends[0]]
        *solved, pinned = (x[:, ni:] for x in _stationary_points(v2, z2, r2, plan, solve))
        u[g, edge], q[g, edge], z[g, edge] = solved
        a, ab = v2[:, ends[0]], v2[:, ends[1]] - v2[:, ends[0]]
        s = dot(solved[0] - a, ab) / dot(ab, ab)
        keep = np.zeros((len(g), len(rank)), dtype=bool)
        keep[:, edge] = pinned & (s >= -1e-9) & (s <= 1 + 1e-9)
        won = np.flatnonzero(best[g] >= 0)
        keep[won, best[g[won]]] = True         # the phase-1 winner competes again
        best[g] = _select_best(v2, z2, r2, z[g], u[g], q[g], keep, rank)
    for k in stack[best < 0]:
        results[k] = NoEquilibrium(
            "no candidate equilibrium validated; feasible input should always "
            "admit one (solver bug signal)"
        )
    f = np.flatnonzero(best >= 0)
    best = best[f]
    u, q, z, v, z_r = u[f, best], q[f, best], z[f, best], v[f], z_r[f]
    l, d = _cables(v, z_r, r[f], u, q, z)
    on_edge = ~points_in_polygon(u, v, tol=-1e-9)
    for row, k in enumerate(stack[f]):
        results[k] = _equilibrium(u[row], q[row], z[row], z_r[row], l[row], d[row],
                                  bool(best[row] >= ni or on_edge[row]))
    return results


def solve_equilibrium(formation: Formation) -> ObjectEquilibrium:
    """Find the physically valid equilibrium, discovering the taut set.

    The candidates are the rows of `_solve_plan`: the stationary
    configurations of interior taut subsets of three or more cables (contact
    inside the subset's hull; the flat contact when the subset is fully
    stretched), two-cable fold-line ridge hangs, and subsets of two to four
    cables with the contact pinned to a sheet edge (contact on that edge).
    One stacked generator, `_stationary_points`, solves the systems; rows
    are validated against the cable inequalities and the exact lowest-point
    kernel by `_select_best`, and the lowest-energy survivor is returned.
    Edge systems are solved only where their floor does not lie above the
    best interior or ridge row (see `solve_equilibria`). Ties favor larger
    taut sets, then lexicographic order. This is the one-formation stack of
    `solve_equilibria`.
    """
    (eq,) = solve_equilibria([formation])
    if isinstance(eq, SheetPlanError):
        raise eq
    return eq


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
    return _equilibrium(u, q, z, z_r, *_cables(v, z_r, r, u, q, z), on_edge)


# ------------------------------------------------------ inverse kinematics
# rejection codes of `inverse_kinematics_stack`, in the order of its checks
(IK_NONFINITE, IK_OFF_SHEET, IK_TOO_HIGH, IK_TOO_SHORT, IK_INELASTIC,
 IK_NONCONVEX, IK_ANCHOR_OUTSIDE) = range(1, 8)


def inverse_kinematics_stack(layout: SheetLayout, contacts, heights, phis, anchors=(0.0, 0.0)):
    """Robots (M, n, 2) and a rejection code (M,) for M commands: contacts
    (M, 2), heights (M,), bearings (M, n) and one anchor (2,) or one per row.

    A row's code is 0 when it builds, else its first failed check: finite
    inputs, contact strictly in the sheet, height below the holding height,
    cables long enough, strict inelasticity, a strictly convex ccw formation,
    anchor inside it (IK_NONFINITE .. IK_ANCHOR_OUTSIDE). Each row rounds as
    alone; a rejected row's robots mean nothing. Rows that pass the first
    three checks have finite robots: no cable outreaches the sheet.
    """
    return _ik_rows(layout, contacts, heights, phis, anchors)[:2]


def _ik_rows(layout, contacts, heights, phis, anchors):
    """`inverse_kinematics_stack`, plus the cable lengths (M, n) and the pair
    gaps to the sheet spacing (M, P) that the one-point errors quote."""
    contacts = np.asarray(contacts, dtype=float)
    heights = np.asarray(heights, dtype=float)
    phis = np.asarray(phis, dtype=float)
    anchors = np.asarray(anchors, dtype=float)
    v, z_r = layout.holding_points, layout.holding_height
    bearing = np.empty(phis.shape + (2,))
    every = np.logical_and.reduce
    with np.errstate(over="ignore", invalid="ignore"):    # rows already rejected
        e = v - contacts[:, None]
        l = np.sqrt(np.add.reduce(e * e, axis=-1))    # layout.cable_lengths of each
        h = z_r - heights
        short = l * l - (h * h)[:, None]
        bearing[..., 0], bearing[..., 1] = np.cos(phis), np.sin(phis)
        robots = anchors[..., None, :] + np.sqrt(np.maximum(short, 0.0))[..., None] * bearing
        gap = pair_distances(robots) - layout.spacing
        passed = np.concatenate([
            every(np.isfinite(np.concatenate([contacts, heights[:, None], phis], axis=1)), axis=1)
            & every(np.isfinite(anchors), axis=-1),
            points_in_polygon(contacts, v, tol=-1e-9),
            heights < z_r,
            every(short >= -1e-12, axis=1),
            every(gap < -1e-9, axis=1),
        ]).reshape(5, -1)
        if every(passed).any():     # else every row is rejected already
            passed = np.concatenate([
                passed.ravel(),
                every(convex_turns(robots), axis=1),
                # anchor on the boundary is the deepest-hang limit (a robot
                # directly above the object); strictly outside can never balance
                points_in_polygon(anchors, robots, tol=1e-9),
            ]).reshape(7, -1)
    # the first check each row fails, counted from 1; 0 when it passes all
    code = np.where(every(passed), 0, np.argmin(passed, axis=0) + 1)
    return robots, code, l, gap


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
    strictly inside (necessary for the all-taut state to balance). The
    one-row `inverse_kinematics_stack`, raising its first failed check.
    """
    contact = np.asarray(contact, dtype=float)
    anchor = np.asarray(anchor, dtype=float)
    phis = np.asarray(phis, dtype=float)

    def require_finite_inputs():
        for name, value in (("contact", contact), ("object_height", object_height),
                            ("phis", phis), ("anchor", anchor)):
            require_finite(name, value)

    if len(phis) != layout.n:
        require_finite_inputs()
        raise ValidationError("phis", f"expected {layout.n} angles, got {len(phis)}")
    (robots,), (code,), (l,), (gap,) = _ik_rows(layout, contact[None], np.ravel(object_height),
                                                phis[None], anchor)
    if code == IK_NONFINITE:
        require_finite_inputs()
    if code == IK_OFF_SHEET:
        raise ValidationError("contact", "must lie strictly inside the sheet polygon")
    if code == IK_TOO_HIGH:
        raise ValidationError("object_height", "must be below the holding height")
    if code == IK_TOO_SHORT:
        h = layout.holding_height - object_height
        k = int(np.argmin(l * l - h * h))
        raise CableTooShort(f"cable {k}: geodesic {l[k]:.6f} m cannot reach depth {h:.6f} m")
    if code == IK_INELASTIC:
        k = np.flatnonzero(gap >= -1e-9)[0]
        i, j = pair_index(layout.n)[:, k]
        raise InelasticityViolated(
            f"pair ({i},{j}) spacing within {gap[k]:.2e} m of the sheet spacing")
    formation = Formation(robots, layout)   # raises NonConvexResult for IK_NONCONVEX
    if code == IK_ANCHOR_OUTSIDE:
        raise ObjectOutsideFormation("object anchor outside the formation polygon; "
                                     "the all-taut state cannot balance there")
    return formation
