"""Hanging-object equilibrium under the variable-cable sheet model.

Each sheet ridge from holding point v_i to the contact point v_o acts as a
virtual cable of geodesic length l_i = ||v_i - v_o||; the object's world
position p_o then satisfies ||p_o - p_i|| <= l_i for every cable, with
equality on the taut ones. The object settles at the lowest admissible
height, which reduces every solve to small exact linear algebra:

* anchored pairwise differencing makes the taut-equality system linear in
  (contact, horizontal object position); a rank-revealing SVD exposes the
  solution manifold, and the hang depth is a quadratic along it;
* one generator (`_stationary_points`) solves the systems of a plan
  (`_plan`) as one stack per subset size, with the same rounding as one
  system at a time; the sheet's part of each system (`_sheet_systems`)
  comes built, and `direct_kinematics` builds it for its one taut subset;
* what a solve reads of the sheet alone (`_SheetTerms`: the sheet's part of
  every system, the hull and sheet polygons with their sides, the ridge
  midpoints, the widened edge lengths of the edge floors) is built once per
  `SheetLayout` and kept for the last layout solved, so the solves of a
  planning run, which all hold one sheet, build it once; the edge systems'
  part waits for the first solve that needs an edge;
* the global equilibrium is the deepest validated row of one candidate
  table per team size (`_solve_plan`): interior taut subsets, two-cable
  ridge hangs and contacts pinned to a sheet edge as fixed rows, ranked by
  one lexsort on height and each row's precomputed taut-set rank and
  validated lowest first (`_select_best`): the cable checks run over every
  row, the kernel only on each team's next rows in rank order, in rounds
  of 1, 2, 4, ... rows per team, until a row validates;
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
* every step carries a leading formation axis over the teams of one sheet:
  `solve_equilibria` solves a stack of teams holding one `SheetLayout` (the
  optimizer's probes of one poll) in one pass over arrays, each to the same
  bits as alone, and `solve_equilibrium` is its one-formation case. A
  one-team call is almost all fixed cost (at n = 3, 45 times a team's share
  of a stack of 128), so the solve calls array methods, not numpy wrappers;
* a brute-force grid oracle (`oracle_equilibrium`) checks the solve
  independently of it: a nested search over a grid of sheet contacts, built
  from per-axis terms to the bit of a per-point build, and the edge samples
  of the scan's window, made only there. The kernel gives each contact's
  lowest point, from team terms built once per oracle. A contact goes to
  the kernel only when its floors lie at or below an incumbent height,
  tested cheapest first: the depth of its shortest cable, of the three
  balls of each triple of the incumbent's taut cables, then of every robot
  pair's lens, each widened by a round-off margin. A skipped contact's
  lowest point lies strictly above the incumbent, so it can neither win nor
  tie, and the oracle returns the bits of a scan of every contact.
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
    STRETCH_TOL,
    Formation,
    SheetLayout,
    cable_lengths,
    convex_turns,
    dot,
    pair_distances,
    pair_index,
    points_in_polygon,
    points_in_sides,
    polygon_sides,
    require_finite,
    require_positive,
    rotation,
)
from .kernels import FEAS_TOL    # the kernel's ball slack: the allowed cable violation

SLACK_BAND = 1e-6        # cable counts as slack only below geodesic - band
TAUT_TOL = 1e-9          # taut-equality residual bound for solved subsets
ENERGY_TOL = 1e-7        # agreement required with the lowest-point kernel
FLAT_TOL = 1e-9          # hang depth below which the sheet counts as flat


@dataclass(frozen=True, eq=False)
class ObjectEquilibrium:
    """Solved object state: world position, sheet contact, cable statuses.

    flat marks the fully stretched limit (object at holding height);
    boundary_contact marks contacts pinned to the sheet polygon boundary or
    hanging from a two-cable fold line, where fewer than three cables may be
    taut. Both are outside the model's nominal transport envelope. Equality
    is identity: an array field has no single truth value.
    """

    world_position: np.ndarray    # (3,) [x_o, y_o, z_o]
    sheet_contact: np.ndarray     # (2,) [x_vo, y_vo] in the sheet frame
    geodesic_lengths: np.ndarray  # (n,) each cable's length on the sheet
    taut: np.ndarray              # (n,) bool: the cable is taut, else slack
    flat: bool = False
    boundary_contact: bool = False

    @property
    def z(self) -> float:
        return float(self.world_position[2])

    @property
    def horizontal(self) -> np.ndarray:
        return self.world_position[:2]

    @property
    def taut_count(self) -> int:
        return int(np.count_nonzero(self.taut))

    @property
    def taut_indices(self) -> tuple:
        return tuple(np.flatnonzero(self.taut).tolist())


def _cables(v, z_r, r, u, q, z):
    """Geodesic length l and robot-to-object distance d of every cable.

    Contacts u, object positions q and heights z may carry leading
    candidate axes; the cables are the last axis of l and d, both summed
    per coordinate, as in `cable_lengths` (a reduction costs more per row).
    """
    q, h = np.asarray(q), z_r - np.asarray(z)
    e0, e1 = r[..., 0] - q[..., None, 0], r[..., 1] - q[..., None, 1]
    return cable_lengths(v, u), np.sqrt(e0 * e0 + e1 * e1 + (h * h)[..., None])


def cable_distances(formation: Formation, eq: ObjectEquilibrium):
    """Per-cable (geodesic, euclidean) lengths at a solved equilibrium."""
    return _cables(formation.layout.holding_points, formation.holding_height,
                   formation.robot_positions, eq.sheet_contact, eq.horizontal, eq.z)


def _taut(l, d):
    """Mask of the cables whose robot-to-object distance d reaches their
    geodesic length l within SLACK_BAND."""
    return d >= l - SLACK_BAND


def _equilibrium(u, q, z, z_r, l, taut, boundary):
    """The ObjectEquilibrium of a solved state with cable lengths l and mask taut."""
    return ObjectEquilibrium(
        world_position=np.array([q[0], q[1], z]),
        sheet_contact=np.asarray(u, dtype=float),
        geodesic_lengths=l,
        taut=taut,
        flat=bool(z_r - z < FLAT_TOL),
        boundary_contact=boundary,
    )


# ------------------------------------------------------------------ frames
def _T(a):
    """Transpose of each matrix of a stack, as a view."""
    return a.swapaxes(-1, -2)


def _frames(points, pairs):
    """Canonical frames: for every anchor pair (i1, i2) of the (P, 2) `pairs`,
    the points rotated and translated so points[i1] is the origin and
    points[i2] lies on +x.

    `points` is (..., N, 2), one point set per leading index. Returns the
    points relative to each origin (..., P, N, 2); the rotations
    (..., P, 2, 2) that take them, as rows, to the canonical frame; the
    origins (..., P, 2); and the rotations (..., P, 2, 2) back to the
    original frame.
    """
    o = points[..., pairs[:, 0], :]
    d = points[..., pairs[:, 1], :] - o
    back = rotation(np.arctan2(d[..., 1], d[..., 0]))
    # forward: the bits of `back`, laid out as a C-contiguous stack's transpose,
    # since a product rounds by its operands' layout and the digests hold this one
    return points[..., None, :, :] - o[..., None, :], _T(_T(back).copy()), o, back


def _canonical(points, pairs):
    """The canonical points (..., P, N, 2) of `_frames`, its origins and its
    rotations back."""
    rel, fwd, o, back = _frames(points, pairs)
    return rel @ fwd, o, back


def _flat_candidate(v, z_r, r, idx):
    """Degenerate flat solution: contact at the taut centroid, zero drop."""
    canon, origin, back = _canonical(np.array([v, r]), np.array([idx[:2]]))
    u_c = canon[0, 0, list(idx)].mean(axis=0)
    u, q = u_c @ _T(back[:, 0]) + origin[:, 0]
    return u, q, z_r


# ------------------------------------------------------- stationary points
def _plan(systems):
    """Stack the anchored difference systems of `systems`.

    A system (idx, e) is a taut subset idx (ascending cable indices) whose
    contact is pinned to the line of sheet edge e (from holding point e to
    e + 1), or free when e < 0. Its rows are one per cable of idx[1:], in
    order, then the edge row. Returns the anchor pairs (idx[0], idx[1]) as a
    (P, 2) array, and one stack per subset size and kind (free or pinned):
    the positions of its systems in `systems`, their anchor pairs, the
    cables of their cable rows and their edges.
    """
    pairs = sorted({idx[:2] for idx, _ in systems})
    where = {p: k for k, p in enumerate(pairs)}
    groups = {}
    for s, (idx, e) in enumerate(systems):
        groups.setdefault((len(idx), e >= 0), []).append(s)
    stacks = []
    for _, sel in sorted(groups.items()):
        idxs = [systems[s][0] for s in sel]
        pair = np.array([where[idx[:2]] for idx in idxs])
        edge = np.array([systems[s][1] for s in sel])
        stacks.append((np.array(sel), pair, np.array([idx[1:] for idx in idxs]), edge))
    return np.array(pairs), stacks


def _sheet_systems(v, plan):
    """The sheet's part of the systems of `plan` (see `_plan`), which no
    team changes.

    Returns the plan's anchor pairs, the sheet's origins (P, 2) and
    rotations back (P, 2, 2) in their canonical frames, and per stack of the
    plan: the positions of its systems, their anchor pairs, the cables of
    their cable rows, the first two columns of their matrices (S, k, 2) and
    the sheet's part of their right sides (S, k). A cable row holds 2 v_k
    and |v_k|^2; an edge row holds the line through its edge, from the
    holding points rotated one at a time (a 1-D product rounds differently
    from the 2-D one).
    """
    pairs, stacks = plan
    rel, fwd, origin, back = _frames(v, pairs)
    canon = rel @ fwd
    if any(edge[0] >= 0 for *_, edge in stacks):
        rows = (rel[..., None, :] @ fwd[:, None])[..., 0, :]
    systems = []
    for sel, pair, cables, edge in stacks:
        vk = canon[pair[:, None], cables]
        cols, rhs = 2 * vk, dot(vk, vk)
        if edge[0] >= 0:
            a, b = rows[pair, edge], rows[pair, (edge + 1) % len(v)]
            cols = np.concatenate([cols, ((b - a)[..., ::-1] * (-1.0, 1.0))[:, None]], axis=1)
            rhs = np.column_stack([rhs, b[..., 0] * a[..., 1] - b[..., 1] * a[..., 0]])
        systems.append((sel, pair, cables, cols, rhs))
    return pairs, origin, back, systems


def _stationary_points(sheet, z_r, r, solve):
    """Minimum-energy point of the taut-equality manifold of chosen systems.

    Anchored differencing makes each system linear in the contact u and the
    local object position w; an edge row pins u to the line of a sheet edge.
    A rank-revealing SVD gives a particular solution and the null space, and
    the hang quadratic J = |w|^2 - |u|^2 is minimized over it. The team's
    canonical frames are computed once per anchor pair, and the sheet's part
    of every system comes built; the chosen systems of each stack of the
    plan are solved as one stack, and all with the same rank are minimized
    as one. Each stacked product keeps the memory layout
    (transposed views, not copies) of the 2-D or 1-D product of one system,
    so that a system rounds the same whatever it is stacked with: the golden
    outputs print round-off.

    `sheet` is the `_sheet_systems` of the plan and `z_r` the sheet's
    holding height, shared by the stack; `r` (K, n, 2) holds one team per
    formation, and `solve` (K, S) marks the systems of the plan to solve for
    each formation. Returns, for the solved (formation, system) entries,
    stack by stack: their formations and systems (E,), contacts u and object
    positions q (E, 2) and heights z (E,) in original coordinates, and the
    mask of those with a minimum: consistent, with the hang quadratic
    bounded below along the null space, at a real hang depth.
    """
    pairs, vorigin, vback, systems = sheet
    rcanon, rorigin, rback = _canonical(r, pairs)
    # the chosen (formation, system, anchor pair) entries, stack by stack
    at, x0, Vt, rank, consistent = [], [], [], [], []
    for sel, pair, cables, cols, rhs in systems:
        # no stack is left empty: a mask marks every system of some edge, and
        # each stack of the edge plan holds systems of every edge
        f, s = solve[:, sel].nonzero()
        p, c = pair[s], cables.shape[1]
        rk = rcanon[f[:, None], p[:, None], cables[s]]
        A = np.zeros((len(f), cols.shape[1], 4))      # an edge row has no object columns
        A[..., :2], A[:, :c, 2:] = cols[s], -2 * rk
        b = rhs[s]
        b[:, :c] -= dot(rk, rk)
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
        g = (consistent & (rank == rk_)).nonzero()[0]
        Zt = Vt[g, rk_:]                     # null-space basis, one row each
        Zu, Zw = Zt[:, :, :2], Zt[:, :, 2:]
        u0, w0 = x0[g, :2], x0[g, 2:]
        t = np.zeros((len(g), 4 - rk_))
        has = np.ones(len(g), dtype=bool)
        if rk_ < 4:
            H = 2.0 * (Zw @ _T(Zw) - Zu @ _T(Zu))
            grad = 2.0 * (Zw @ w0[..., None] - Zu @ u0[..., None])[..., 0]
            evals = np.linalg.eigvalsh(H)
            has = (evals > 1e-12).all(axis=1)
            t[has] = np.linalg.solve(H[has], -grad[has][..., None])[..., 0]
            for k in (~has & (evals > -1e-12).all(axis=1)).nonzero()[0]:
                # positive semidefinite with a flat direction: minimum-norm minimizer
                tk = -np.linalg.pinv(H[k]) @ grad[k]
                if np.linalg.norm(H[k] @ tk + grad[k]) <= 1e-8:
                    t[k], has[k] = tk, True
            # indefinite H: no interior minimum on this manifold; the
            # edge-pinned systems cover those equilibria
        uu = u0 + (_T(Zu) @ t[..., None])[..., 0]
        ww = w0 + (_T(Zw) @ t[..., None])[..., 0]
        drop2 = dot(uu, uu) - dot(ww, ww)
        uw[0, g], uw[1, g] = uu, ww
        depth[g] = np.sqrt(np.maximum(drop2, 0.0))
        ok[g] = has & ~(drop2 < -1e-9)
    return (f, s, (uw[0, :, None] @ _T(vback[p]))[:, 0] + vorigin[p],
            (uw[1, :, None] @ _T(rback[f, p]))[:, 0] + rorigin[f, p], z_r - depth, ok)


# --------------------------------------------------------- known taut set
def _require_feasible(formation):
    stretch = formation.stretch()
    if stretch > STRETCH_TOL:
        raise InfeasibleFormation(f"robot pair exceeds sheet spacing by {stretch:.3e} m")


def direct_kinematics(formation: Formation, taut_flags) -> ObjectEquilibrium:
    """Object position for a known taut/slack assignment.

    Minimizes the hang quadratic exactly on the taut-equality manifold of
    the first five taut cables (five equalities pin every unknown); any
    further taut cable must agree within 1e-6 at that solution. The flags,
    one per robot, are trusted; slack-cable admissibility is the caller's
    concern (see solve_equilibrium for discovery + validation).
    """
    flags = np.asarray(taut_flags)
    if flags.shape != (formation.n,):
        raise ValidationError("taut_flags", f"expected {formation.n} flags, got {flags.shape}")
    _require_feasible(formation)
    taut = np.flatnonzero(flags).tolist()
    if len(taut) < 3:
        raise TooFewTaut(f"need at least 3 taut cables, got {len(taut)}")
    v = formation.layout.holding_points
    r = formation.robot_positions
    z_r = formation.holding_height
    if np.all(np.abs(pair_distances(v[taut]) - pair_distances(r[taut])) <= 1e-9):
        # fully stretched: the sheet is flat across the taut subset
        u, q, z = _flat_candidate(v, z_r, r, taut)
        l, d = _cables(v, z_r, r, u, q, z)
        return _equilibrium(u, q, z, z_r, l, _taut(l, d), False)
    base = taut[:5]
    systems = _sheet_systems(v, _plan([(tuple(base), -1)]))
    *_, (u,), (q,), (z,), (ok,) = _stationary_points(systems, z_r, r[None], np.ones((1, 1), bool))
    if not ok:
        # inconsistent taut system or indefinite hang Hessian
        raise SingularSystem("no interior minimum on the taut manifold")
    if not points_in_polygon(u, v[taut], tol=1e-9):
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
    return _equilibrium(u, q, z, z_r, l, _taut(l, d), False)


# ------------------------------------------------- equilibrium discovery
@functools.lru_cache(maxsize=None)
def _solve_plan(n):
    """The candidate table of every solve with n cables, built once per n.

    Rows: the interior systems (every taut subset of three or more cables,
    by decreasing size), one ridge per cable pair in `pair_index(n)` order,
    then the edge systems (for each sheet edge, every subset of two to four
    cables). Returns (sets, plans, hulls, ends, spans, rank): each row's taut
    set; the stacked interior systems and the stacked edge systems (two
    `_plan`s); each interior subset padded to n cables by
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
    plans = _plan([(idx, -1) for idx in interior]), _plan(edge)
    return sets, plans, hulls, ends, spans, np.array([order[idx] for idx in sets])


def _edge_floors(sheet, r):
    """Per team of `r` (K, n, 2) and sheet edge e, a height below which no
    row pinned to e validates: z_r - 1/2 sqrt((L_e + delta_e)^2 - D_e^2) -
    ENERGY_TOL, as derived in `solve_equilibria`; the `_SheetTerms` `sheet`
    hold each L_e + delta_e."""
    gap = polygon_sides(r)
    return sheet.z_r - 0.5 * np.sqrt(sheet.reach ** 2 - dot(gap, gap)) - ENERGY_TOL


class _SheetTerms:
    """The terms of a solve that depend on one sheet and on no team, built
    once per `SheetLayout` (see `_sheet_terms`).

    Built at construction: the candidate table of the sheet's size
    (`_solve_plan`), the `_sheet_systems` of its interior systems, the hull
    polygon of each interior subset and the sheet's own polygon with their
    sides, the ridge midpoints and each edge's L_e + delta_e (the widened
    length of `_edge_floors`, as derived in `solve_equilibria`). Built at the
    first read of `edges`: what only phase 2 reads. A sheet solved once
    (each formation of a kinematics batch has its own) so builds no more
    than its one solve reads.
    """

    def __init__(self, layout):
        v, n = layout.holding_points, layout.n
        self.v, self.z_r = v, layout.holding_height
        self.sets, self.plans, hulls, self.ends, self.spans, self.rank = _solve_plan(n)
        self.interior = _sheet_systems(v, self.plans[0])
        hull = v[hulls]
        self.hulls = hull, polygon_sides(hull)
        self.side = polygon_sides(v)
        i, j = pair_index(n)
        self.ridge = 0.5 * (v[i] + v[j])
        L = np.sqrt(dot(self.side, self.side))
        W = 0.5 * L.sum()     # half the perimeter: at least the sheet's width
        delta = 2 * FEAS_TOL + 2e-9 * L + 1e-7 * np.maximum(1.0, W * W) / L
        self.reach = L + delta

    @functools.cached_property
    def edges(self):
        """The `_sheet_systems` of the edge systems, and the start a, vector
        ab and |ab|^2 of each one's edge."""
        a, ab = self.v[self.ends[0]], self.v[self.ends[1]] - self.v[self.ends[0]]
        return _sheet_systems(self.v, self.plans[1]), a, ab, dot(ab, ab)


@functools.lru_cache(maxsize=1)
def _sheet_terms(layout):
    """The `_SheetTerms` of `layout`, built when a solve follows one on
    another layout. Only the last layout's are kept: a planning run solves
    on one layout throughout, while a kinematics batch has a layout per
    formation, whose terms would add up. A layout hashes by identity and
    never changes, so its terms never go stale."""
    return _SheetTerms(layout)


def _select_best(sheet, r, z, u, q, ok):
    """Row of the best candidate of each formation that validates, or -1,
    and its cable lengths and robot-to-object distances (K, n), else zero.

    The `_SheetTerms` `sheet` are shared; the teams `r`, and the candidates
    `z`, `u`, `q` and `ok`, carry a leading formation axis. A candidate
    validates when it is `ok`, its contact lies on the sheet, no cable is
    longer than its geodesic, and its height is the lowest point of the
    cable balls for its contact. The best is the lowest, then the one of
    lowest rank, then the first row; heights within ENERGY_TOL of the
    holding height tie as flat, since a row's depth near a flat sheet is the
    root of a rounding error.

    The first three checks run over every row at once. The rows that pass
    are put in that order and go to the kernel lowest first, in rounds: each
    round sends the next 1, 2, 4, ... untried rows of every formation with
    no valid row yet in one batched call, with one center set per formation
    mapped to its rows: its robots, robot 0 at the origin (far from it the
    squared drop of a flat row rounds off by more than ENERGY_TOL**2). A
    formation's first valid row is its best, and a kernel row rounds the
    same in any batch, so the pick is the one of validating every row.
    """
    v, z_r = sheet.v, sheet.z_r
    f, row = ok.nonzero()
    u, z = u[f, row], z[f, row]
    rho, d = _cables(v, z_r, r[f], u, q[f, row], z)
    fits = (points_in_sides(u, v, sheet.side) & ~(d > rho + FEAS_TOL).any(axis=1)).nonzero()[0]
    level = np.minimum(z, z_r - ENERGY_TOL)     # rows this near flat tie
    fits = fits[np.lexsort((fits, sheet.rank[row[fits]], level[fits], f[fits]))]
    g = f[fits]
    place = np.arange(len(g)) - g.searchsorted(g)     # each row's place in its formation
    best, cables = np.full(len(ok), -1), np.zeros((2,) + r.shape[:2])
    team, size = r - r[:, :1], 1
    while len(fits):     # the untried rows of the formations with no valid row yet
        first = place < size
        send = fits[first]
        _, z_low = kernels.lowest_point_grid(kernels.Centers(team, f[send]), z_r, rho[send])
        valid = send[np.abs(z_low - z[send]) <= ENERGY_TOL]
        fv = f[valid]      # in formation order: a formation's first valid row heads its run
        won = valid[fv.searchsorted(fv) == np.arange(len(fv))]
        best[f[won]], cables[:, f[won]] = row[won], (rho[won], d[won])
        left = ~first & (best[g] < 0)
        fits, g, place, size = fits[left], g[left], place[left] - size, 2 * size
    return best, *cables


def solve_equilibria(layout: SheetLayout, robots):
    """Equilibria of a stack of teams holding one sheet, as arrays.

    `robots` (K, n, 2) holds one team per formation of the stack, each
    holding the sheet of `layout` at its holding height. Returns (at, u, q,
    z, l, taut, boundary) for the F formations that solve, in stack order:
    their stack positions (F,), sheet contacts and horizontal object
    positions (F, 2), heights (F,), each cable's geodesic length and
    whether it is taut (F, n), and whether the contact is pinned to the
    sheet boundary or hangs from a fold line (F,). A formation that
    stretches the sheet past STRETCH_TOL, or for which no candidate
    validates, is absent; each row has the bits of its own solve.

    The solve reads what depends on the sheet alone from `_sheet_terms`,
    and has two phases. Phase 1 solves the interior systems, adds
    the ridge rows and ranks them: each formation's best validated height
    z*. Phase 2 solves the edge systems of each (formation, edge e) whose
    floor lies at or below z*, or of every edge when nothing validated,
    and ranks them together with the phase-1 winner. Each ranking
    (`_select_best`) sends the kernel a formation's rows lowest first and
    stops at the first that validates. A skipped row would
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

    Feasible formations have D_e <= L_e + STRETCH_TOL < L_e + delta_e, so every
    floor is real. Every system rounds the same whatever it is stacked
    with, so the rows of both phases carry the bits of a solve of all.
    """
    v, z_r, lv, n = layout.holding_points, layout.holding_height, layout.spacing, layout.n
    sheet = _sheet_terms(layout)
    with np.errstate(over="ignore"):     # robots too far apart to square: inf apart
        lr = pair_distances(robots)
    stack = (~((lr - lv).max(axis=1) > STRETCH_TOL)).nonzero()[0]   # as Formation.stretch()
    K = len(stack)
    if not K:     # every array empty, with its row shape
        return stack, *np.empty((2, 0, 2)), np.empty(0), *np.empty((2, 0, n)), np.empty(0, bool)
    r, lr = robots[stack], lr[stack]

    ni, ne, rows = len(sheet.hulls[0]), sheet.ends.shape[1], len(sheet.rank)
    ridge = slice(ni, rows - ne)
    u, q = np.zeros((2, K, rows, 2))     # the candidate table, edge rows unsolved
    z, ok = np.zeros((K, rows)), np.zeros((K, rows), dtype=bool)
    # phase 1: the interior systems and the ridges
    f, s, *solved = _stationary_points(sheet.interior, z_r, r, np.ones((K, ni), dtype=bool))
    u[f, s], q[f, s], z[f, s], ok[f, s] = solved
    ok[:, :ni] &= points_in_sides(u[:, :ni], *sheet.hulls)
    stretched = np.abs(lv - lr) <= 1e-9
    for f in stretched.any(axis=1).nonzero()[0]:
        # a fully stretched subset hangs flat, whatever its stationary point
        for k in (~sheet.spans[:, ~stretched[f]].any(axis=1)).nonzero()[0]:
            u[f, k], q[f, k], z[f, k] = _flat_candidate(v, z_r, r[f], sheet.sets[k])
            ok[f, k] = True

    # two-cable fold-line ridges: the deepest point below each folded sheet chord
    fold = ~(lr >= lv - 1e-12)
    i, j = pair_index(n)
    u[:, ridge], q[:, ridge], ok[:, ridge] = sheet.ridge, 0.5 * (r[:, i] + r[:, j]), fold
    z[:, ridge] = z_r - 0.5 * np.sqrt(np.where(fold, lv * lv - lr * lr, 0.0))
    best, l, d = _select_best(sheet, r, z, u, q, ok)

    # phase 2: the edges whose floor does not lie above the phase-1 winner
    need = _edge_floors(sheet, r) <= np.where(best >= 0, z[np.arange(K), best], np.inf)[:, None]
    g = need.any(axis=1).nonzero()[0]
    if len(g):
        systems, a, ab, ab2 = sheet.edges
        e, s, *solved, pinned = _stationary_points(systems, z_r, r[g], need[g][:, sheet.ends[0]])
        k = s + (rows - ne)     # the table rows of the solved edge systems
        u[g[e], k], q[g[e], k], z[g[e], k] = solved
        t = dot(solved[0] - a[s], ab[s]) / ab2[s]
        keep = np.zeros((len(g), rows), dtype=bool)
        keep[e, k] = pinned & (t >= -1e-9) & (t <= 1 + 1e-9)
        won = (best[g] >= 0).nonzero()[0]
        keep[won, best[g[won]]] = True         # the phase-1 winner competes again
        best[g], l[g], d[g] = _select_best(sheet, r[g], z[g], u[g], q[g], keep)
    f = (best >= 0).nonzero()[0]
    best, l = best[f], l[f]
    u, q, z = u[f, best], q[f, best], z[f, best]
    return (stack[f], u, q, z, l, _taut(l, d[f]),
            (best >= ni) | ~points_in_sides(u, v, sheet.side, tol=-1e-9))


def solve_equilibrium(formation: Formation) -> ObjectEquilibrium:
    """Find the physically valid equilibrium, discovering the taut set.

    The candidates are the rows of `_solve_plan`: the stationary
    configurations of interior taut subsets of three or more cables (contact
    inside the subset's hull; the flat contact when the subset is fully
    stretched), two-cable fold-line ridge hangs, and subsets of two to four
    cables with the contact pinned to a sheet edge (contact on that edge).
    One stacked generator, `_stationary_points`, solves the systems; rows
    are validated against the cable inequalities and the exact lowest-point
    kernel by `_select_best`, lowest first, and the first survivor, the
    lowest-energy one, is returned.
    Edge systems are solved only where their floor does not lie above the
    best interior or ridge row (see `solve_equilibria`). Ties favor larger
    taut sets, then lexicographic order. This is the one-formation stack of
    `solve_equilibria`; InfeasibleFormation or NoEquilibrium when it is absent.
    """
    _, u, q, z, l, taut, boundary = solve_equilibria(formation.layout,
                                                     formation.robot_positions[None])
    if not len(z):
        _require_feasible(formation)
        raise NoEquilibrium("no candidate equilibrium validated; feasible input should always "
                            "admit one (solver bug signal)")
    return _equilibrium(u[0], q[0], z[0], formation.holding_height, l[0], taut[0],
                        bool(boundary[0]))


# -------------------------------------------------------------- the oracle
def _floor(z_r, depth2, scale):
    """z_r - sqrt(depth2 + 1e-12 S^2) - 1e-12 S, S = `scale` = |z_r| +
    max a_i + max D (D the center distances): a bound depth2 on the squared
    depth of an accepted point, lowered by a round-off margin. The kernel's
    ball test, the rounding of its height, the bound's squares and this
    height are each off by a few units of 2^-52 relative to S^2 (the
    squares) or S (the heights); the margin is 1e-12, over 4000 such units."""
    return z_r - np.sqrt(np.maximum(depth2 + 1e-12 * scale**2, 0.0)) - 1e-12 * scale


def _shortest_floors(r, z_r, rho):
    """Per row of radii `rho` (G, n), a height below which
    `kernels.lowest_point_grid(r, z_r, rho)` puts no lowest point: an
    accepted point lies within a_i = rho_i + FEAS_TOL of every center
    (r_i, z_r), so its depth is at most min a_i, the shortest cable's."""
    a = rho + FEAS_TOL
    scale = abs(z_r) + a.max() + pair_distances(r).max()
    return _floor(z_r, np.square(functools.reduce(np.minimum, a.T)), scale)


def _pair_floors(r, z_r, rho):
    """Per row of radii `rho` (G, n), a height below which
    `kernels.lowest_point_grid(r, z_r, rho)` puts no lowest point, from the
    lens of every robot pair.

    The centers of a pair (i, j), D apart, bound the depth h of an accepted
    point by the depth of their lens: at t along the pair's line,
    h^2 <= a_i^2 - t^2 and h^2 <= a_j^2 - (D - t)^2, so for every weight w
    in [0, 1], h^2 is at most their w-weighted mean, whose maximum over t
    (at t = (1 - w) D) is w a_i^2 + (1 - w) a_j^2 - w (1 - w) D^2. At the
    weight that puts t where the two spheres cross, clipped to [0, D], this
    is the lens's deepest point, or a ball's bottom inside the other ball;
    any weight gives a bound, so the rounding of the weight does not matter.
    A lens empty by more than the margin gives depth 0. The pairs' bounds
    are one array expression, in blocks of at most `kernels.BLOCK` entries.
    """
    a = rho + FEAS_TOL
    a2 = np.square(a)
    i, j = pair_index(len(r))
    e = r[j] - r[i]
    dd = dot(e, e)      # squared center distance of each pair
    depth2 = a2.min(axis=1)     # per row, the least bound of its balls and pairs
    step = max(1, kernels.BLOCK // len(dd))
    for lo in range(0, len(a2), step):
        ai, aj = a2[lo:lo + step, i], a2[lo:lo + step, j]
        w = np.fmax(np.fmin(0.5 + (aj - ai) / (2.0 * dd), 1.0), 0.0)
        np.minimum(depth2[lo:lo + step], (aj + w * (ai - aj) - w * (1.0 - w) * dd).min(axis=1),
                   out=depth2[lo:lo + step])
    scale = abs(z_r) + a.max() + np.sqrt(dd.max())
    return _floor(z_r, depth2, scale)


def _triple_floors(r, z_r, rho, taut):
    """Per row of radii `rho` (G, n), a height below which
    `kernels.lowest_point_grid(r, z_r, rho)` puts no lowest point, from the
    triples of consecutive cables of `taut` (at least three, read cyclically).

    An accepted point at depth h above x has h^2 <= a_i^2 - |x - c_i|^2 for
    every center c_i, a_i = rho_i + FEAS_TOL. For any weights w_i >= 0 of
    sum W > 0, W h^2 is at most their weighted sum, whose maximum over x (at
    the weighted centroid of the centers) gives
    W h^2 <= sum w_i a_i^2 - sum w_i |c_i|^2 + |sum w_i c_i|^2 / W, so the
    rounding of the weights does not matter. The best weights are the
    barycentric ones of the point where the triple's spheres cross, at
    which the bound is the depth of its three balls; outside the triangle
    they are clipped to [0, 1], the first to 1 minus the other two, so W
    lies in [1, 2] up to rounding. Collinear centers (a zero Gram
    determinant) get the weights (1, 0, 0), the first ball's bound.

    The margin is that of `_floor`. With the centers taken relative
    to the triple's first one, every term is at most 4 S^2 in size, so the
    bound rounds by a few tens of units of 2^-52 S^2, far inside 1e-12 S^2,
    wherever the team is. In absolute coordinates sum w_i |c_i|^2 and
    |sum w_i c_i|^2 / W would each be as large as |c_i|^2 and cancel, and
    their round-off would pass the margin for a team 1 km from the origin.
    """
    a2 = np.square(rho + FEAS_TOL)
    scale = abs(z_r) + np.sqrt(a2.max(initial=0.0)) + pair_distances(r).max()
    depth2 = np.full(len(rho), np.inf)
    m = len(taut)
    for k in range(m if m > 3 else 1):     # three cables read cyclically make one triple
        i, j, l = taut[k], taut[(k + 1) % m], taut[(k + 2) % m]
        b, c = r[j] - r[i], r[l] - r[i]
        bb, bc, cc = dot(b, b), dot(b, c), dot(c, c)
        det = bb * cc - bc * bc
        g = 0.5 / det if det else 0.0
        sj, sk = a2[:, i] - a2[:, j] + bb, a2[:, i] - a2[:, l] + cc   # 2 b.x and 2 c.x
        wj = np.fmin(np.fmax((cc * sj - bc * sk) * g, 0.0), 1.0)
        wk = np.fmin(np.fmax((bb * sk - bc * sj) * g, 0.0), 1.0)
        wi = np.fmax(1.0 - wj - wk, 0.0)
        w = wi + wj + wk
        np.fmin(depth2, (wi * a2[:, i] + wj * (a2[:, j] - bb) + wk * (a2[:, l] - cc)
                         + (wj * wj * bb + 2.0 * wj * wk * bc + wk * wk * cc) / w) / w,
                out=depth2)
    return _floor(z_r, depth2, scale)


def _edge_samples(v, side, length, step, center, half):
    """Samples at most `step` apart along every side of the polygon `v`, in
    order, that lie within half + 1e-12 of `center` in x and y: v_e + t side_e
    for t in np.linspace(0, 1, m_e), m_e = max(ceil(length_e / step) + 1, 2),
    to the bit. A side makes only its samples whose t can reach the window
    widened by one step: at least one more sample at each end, whatever the
    rounding of t."""
    m = np.maximum(np.ceil(length / step).astype(int) + 1, 2)
    gap = center - v
    # a side fixed in a coordinate crosses that bound at t = +-inf, or at nan
    # when it lies on it, which fmin and fmax pass over
    with np.errstate(divide="ignore", invalid="ignore"):
        a, b = (gap - (half + step)) / side, (gap + (half + step)) / side
    lo = np.clip(np.fmin(a, b).max(axis=1), 0.0, 1.0) * (m - 1)
    hi = np.clip(np.fmax(a, b).min(axis=1), 0.0, 1.0) * (m - 1)
    first = np.floor(lo).astype(int)
    count = np.maximum(np.ceil(hi).astype(int) - first + 1, 0)
    e = np.repeat(np.arange(len(v)), count)
    k = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count - first, count)
    t = k * (1.0 / (m - 1))[e]      # as np.linspace rounds
    t[k == m[e] - 1] = 1.0
    pts = v[e] + t[:, None] * side[e]
    off = np.abs(pts - center)
    return pts[(off[:, 0] <= half + 1e-12) & (off[:, 1] <= half + 1e-12)]


def _scan_contacts(v, side, length, center, half, npts):
    """The contacts of an oracle scan and their cable lengths: the points of
    the npts x npts grid of half width `half` about `center` inside the
    polygon `v`, row by row, then the edge samples in that window. The grid
    is tested and measured from per-row and per-column terms, by the same
    operations as `points_in_polygon` (tol 1e-9) and `cable_lengths`, to
    their bits, with no array over every point of the grid."""
    xs = np.linspace(center[0] - half, center[0] + half, npts)
    ys = np.linspace(center[1] - half, center[1] + half, npts)
    inside = np.ones((npts, npts), dtype=bool)
    for across, along in zip(side[:, :1] * (ys - v[:, 1:]), side[:, 1:] * (xs - v[:, :1])):
        inside &= across[:, None] - along >= -1e-9
    iy, ix = np.nonzero(inside)
    rho = np.square(v[:, 0] - xs[:, None]).take(ix, axis=0)
    rho += np.square(v[:, 1] - ys[:, None]).take(iy, axis=0)
    epts = _edge_samples(v, side, length, 2 * half / (npts - 1), center, half)
    return (np.concatenate([np.column_stack([xs.take(ix), ys.take(iy)]), epts]),
            np.concatenate([np.sqrt(rho), cable_lengths(v, epts)]))


def oracle_equilibrium(formation: Formation, grid_resolution: float = 1e-3) -> ObjectEquilibrium:
    """Brute-force equilibrium: nested search independent of the solvers.

    Outer loop: a contact-point grid over the sheet polygon (interior cells
    plus boundary samples, since contacts may pin to an edge), refined twice
    around the incumbent so the final spacing is below grid_resolution.
    Inner loop: the exact lowest point of the cable balls at each contact.
    No scan is empty: the first holds every edge sample, and a refined
    window holds a grid point within round-off of its centre, the incumbent,
    or else samples of the incumbent's edge within a tenth of its half width.

    Each scan (`_scan_contacts`, from per-axis terms, with the edge samples
    of its window only) sends the kernel only the contacts whose floors lie
    at or below an incumbent height: the lowest point of the few contacts
    with the longest shortest cable in the first scan, the best so far in a
    refined one. The floors are tested cheapest first, each on the contacts
    the last leaves: the depth of the shortest cable (`_shortest_floors`);
    when three or more of the incumbent's cables are taut, of the three
    balls of each triple of consecutive taut cables (`_triple_floors`),
    which bind near the incumbent; then of every robot pair's lens
    (`_pair_floors`). The other contacts keep the kernel's empty result,
    (0, +inf). A skipped contact's lowest point lies at or above a floor,
    strictly above the incumbent, hence strictly above the scan's lowest
    point (or the best so far): it can neither win nor tie, and the oracle
    returns the bits of a scan of every contact. Every kernel call of the
    oracle takes one `kernels.Centers` of the team, its terms built once.
    """
    require_positive("grid_resolution", grid_resolution)
    _require_feasible(formation)
    v = formation.layout.holding_points
    r = formation.robot_positions
    z_r = formation.holding_height
    lo, hi = v.min(axis=0), v.max(axis=0)
    extent = float(max(hi - lo))
    n0 = max(int(np.ceil(extent / (25.0 * grid_resolution))) + 1, 41)
    side = polygon_sides(v)
    length = np.sqrt(dot(side, side))
    team = kernels.Centers(r)     # the terms of every kernel call of the oracle

    def scan(center, half, npts, best=None):
        pts, rho = _scan_contacts(v, side, length, center, half, npts)
        if best is None:   # the first scan: the best of the few contacts of longest shortest cable
            few = np.argsort(functools.reduce(np.minimum, rho.T))[-8:]
            q, z = kernels.lowest_point_grid(team, z_r, rho[few])
            k = int(np.argmin(z))
            best = pts[few[k]], q[k], z[k]
        bound = best[2]
        taut = np.flatnonzero(_taut(*_cables(v, z_r, r, *best)))
        send = np.flatnonzero(_shortest_floors(r, z_r, rho) <= bound)
        if len(taut) >= 3 and len(send):
            send = send[_triple_floors(r, z_r, rho[send], taut) <= bound]
        if len(send):
            send = send[_pair_floors(r, z_r, rho[send]) <= bound]
        q, z = np.zeros((len(pts), 2)), np.full(len(pts), np.inf)
        q[send], z[send] = kernels.lowest_point_grid(team, z_r, rho[send])
        k = int(np.argmin(z))
        return pts[k], q[k], float(z[k])

    center = 0.5 * (lo + hi)
    half = 0.5 * extent
    spacing = 2 * half / (n0 - 1)
    best = scan(center, half, n0)
    for _ in range(2):
        win = 2 * spacing
        best = min(best, scan(best[0], win, 21, best), key=lambda found: found[2])
        spacing = 2 * win / 20
    u, q, z = best
    l, d = _cables(v, z_r, r, u, q, z)
    return _equilibrium(u, q, z, z_r, l, _taut(l, d), not points_in_polygon(u, v, tol=-1e-9))


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
    three checks have finite robots: no cable outreaches the sheet. An
    argument of another shape is a ValidationError naming it.
    """
    contacts = np.asarray(contacts, dtype=float)
    heights = np.asarray(heights, dtype=float)
    phis = np.asarray(phis, dtype=float)
    anchors = np.asarray(anchors, dtype=float)
    m = contacts.shape[:1]       # M, the number of rows
    for name, value, shapes, want in (
            ("contacts", contacts, [m + (2,)], "(M, 2)"), ("heights", heights, [m], "(M,)"),
            ("phis", phis, [m + (layout.n,)], "(M, n)"),
            ("anchors", anchors, [(2,), m + (2,)], "(2,) or (M, 2)")):
        if value.shape not in shapes:
            raise ValidationError(name, f"expected shape {want}, got {value.shape}")
    v, z_r = layout.holding_points, layout.holding_height
    bearing = np.empty(phis.shape + (2,))
    every = np.logical_and.reduce
    with np.errstate(over="ignore", invalid="ignore"):    # rows already rejected
        l = cable_lengths(v, contacts)
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
    return robots, code


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
    one-row `inverse_kinematics_stack`, raising its first failed check; an
    argument of the wrong shape is a ValidationError naming it.
    """
    inputs = {"contact": (contact, (2,)), "object_height": (object_height, ()),
              "phis": (phis, (layout.n,)), "anchor": (anchor, (2,))}
    for name, (value, shape) in inputs.items():
        if np.shape(value) != shape:
            raise ValidationError(name, f"expected shape {shape}, got {np.shape(value)}")
    contact, anchor, phis = (np.asarray(x, dtype=float) for x in (contact, anchor, phis))
    (robots,), (code,) = inverse_kinematics_stack(layout, contact[None], np.ravel(object_height),
                                                  phis[None], anchor)
    if code == IK_NONFINITE:
        for name, (value, _) in inputs.items():
            require_finite(name, value)
    if code == IK_OFF_SHEET:
        raise ValidationError("contact", "must lie strictly inside the sheet polygon")
    if code == IK_TOO_HIGH:
        raise ValidationError("object_height", "must be below the holding height")
    if code == IK_TOO_SHORT:
        l, h = layout.cable_lengths(contact), layout.holding_height - object_height
        k = int(np.argmin(l * l - h * h))
        raise CableTooShort(f"cable {k}: geodesic {l[k]:.6f} m cannot reach depth {h:.6f} m")
    if code == IK_INELASTIC:
        gap = pair_distances(robots) - layout.spacing
        k = np.flatnonzero(gap >= -1e-9)[0]
        i, j = pair_index(layout.n)[:, k]
        raise InelasticityViolated(
            f"pair ({i},{j}) spacing within {gap[k]:.2e} m of the sheet spacing")
    formation = Formation(robots, layout)   # raises NonConvexResult for IK_NONCONVEX
    if code == IK_ANCHOR_OUTSIDE:
        raise ObjectOutsideFormation("object anchor outside the formation polygon; "
                                     "the all-taut state cannot balance there")
    return formation
