"""The lowest-point kernels of the cable model.

The hot primitive of the whole toolkit: given ball centers at a common
height z_r above planar points r_i and radii rho_i (the cable lengths), find
the lowest point of the balls' intersection. Because all centers are
coplanar, every candidate is a planar trilateration point plus a vertical
drop, enumerated exactly over active subsets of size 1, 2 and 3.

`lowest_point` solves one instance; `lowest_point_grid` solves a batch that
shares the centers (the candidates of one equilibrium solve, or one
sheet-contact grid of the oracle), vectorized over the batch and over the
active subsets. Its membership test runs one ball at a time on the
candidates that are still inside every ball so far; most candidates leave
after two or three balls, so it makes far fewer tests than one of every
candidate against all n balls, and returns the same bits.
"""
import itertools

import numpy as np

from .geometry import dot, pair_index, triple_index

BACKEND = "python"  # the numpy kernels are the only ones; benchmark records name them

FEAS_TOL = 1e-7     # slack allowed when testing membership in each ball
DROP_TOL = 1e-9     # tolerance on nonnegative squared drop
BLOCK = 1 << 13     # batch rows x candidate points per stacked block
_TURN = np.array([1.0, -1.0])[:, None, None]   # (y, x) -> (y, -x), a quarter turn


def lowest_point(centers, z_r, rho):
    """Lowest point of the intersection of balls B((r_i, z_r), rho_i).

    Parameters
    ----------
    centers : (N, 2) planar ball-center positions
    z_r : common center height
    rho : (N,) ball radii

    Returns
    -------
    (q, z) : horizontal position (2,) and height of the lowest point, or
        (None, +inf) when the intersection is numerically empty.
    """
    r = np.asarray(centers, dtype=float)
    rho = np.asarray(rho, dtype=float)
    n = len(r)
    rho2 = rho * rho
    best_q, best_z = None, np.inf

    def consider(q, drop2):
        nonlocal best_q, best_z
        if drop2 < -DROP_TOL:
            return
        drop2 = max(drop2, 0.0)
        z = z_r - np.sqrt(drop2)
        if z >= best_z:
            return
        d = r - q
        if np.all(d[:, 0] ** 2 + d[:, 1] ** 2 + drop2
                  <= rho2 + FEAS_TOL * (2.0 * rho + FEAS_TOL)):
            best_q, best_z = q, z

    for i in range(n):
        consider(r[i], rho2[i])
    for i, j in itertools.combinations(range(n), 2):
        d = r[j] - r[i]
        L2 = float(d @ d)
        if L2 < 1e-18:
            continue
        a = (rho2[i] - rho2[j] + L2) / (2.0 * L2)
        consider(r[i] + a * d, rho2[i] - a * a * L2)
    for i, j, k in itertools.combinations(range(n), 3):
        ax, ay = 2.0 * (r[j] - r[i])
        bx, by = 2.0 * (r[k] - r[i])
        det = ax * by - ay * bx
        if abs(det) < 1e-14:
            continue
        c1 = rho2[i] - rho2[j] + r[j] @ r[j] - r[i] @ r[i]
        c2 = rho2[i] - rho2[k] + r[k] @ r[k] - r[i] @ r[i]
        q = np.array([(c1 * by - ay * c2) / det, (ax * c2 - bx * c1) / det])
        consider(q, rho2[i] - float((q - r[i]) @ (q - r[i])))
    return best_q, best_z


def _subset_terms(r):
    """Radius-independent terms of every usable pair and triple of centers.

    Pairs of coincident centers and triples of collinear ones have no
    trilateration point and are left out. Returns, for the pairs and for the
    triples, an index array (one row per member) and a float array with one
    column per subset: rows (x_i, y_i, dx, dy, L2) for a pair, and
    (x_i, y_i, ay, -ax, by, -bx, det, |r_i|^2, |r_j|^2, |r_k|^2) for a
    triple, (ax, ay) = 2 (r_j - r_i) and (bx, by) = 2 (r_k - r_i). The
    arrays have no columns when there is no such subset.
    """
    pij, tijk = pair_index(len(r)), triple_index(len(r))
    rt = r.T
    ri = rt[:, pij[0]]
    d = rt[:, pij[1]] - ri
    # stacked matmuls round as the 1-D `d @ d` does; a sum of products may not
    L2 = dot(d.T, d.T)
    ti = rt[:, tijk[0]]
    e = 2.0 * (rt[:, tijk[1:]] - ti[:, None])   # (x, y) of a and b, per triple
    det = e[0, 0] * e[1, 1] - e[1, 0] * e[0, 1]
    s = dot(r, r)
    keep, tkeep = L2 >= 1e-18, np.abs(det) >= 1e-14
    pairs = np.concatenate([ri, d, L2[None]])
    turned = (e[::-1] * _TURN).transpose(1, 0, 2).reshape(4, -1)
    triples = np.concatenate([ti, turned, det[None], s[tijk]])
    return ((pij.compress(keep, axis=1), pairs.compress(keep, axis=1)),
            (tijk.compress(tkeep, axis=1), triples.compress(tkeep, axis=1)))


def _lowest_block(r, z_r, rho, pairs, triples):
    """`lowest_point_grid` on one block of rows, all candidates stacked.

    Every (candidate, row) entry is a column of one packed array with five
    rows: x, y, clipped squared drop, flat entry index and batch row. The
    entries with a negative drop go first; then each ball in turn keeps only
    the entries inside it, so later balls test ever fewer entries. Each
    entry meets the same comparisons as in a test of all balls at once, so
    the result is the same to the bit.
    """
    rows, n = rho.shape
    (pi, pf), (ti, tf) = pairs, triples
    m = n + pi.shape[1]
    packed = np.empty((5, m + ti.shape[1], rows))
    q, drop2, at = packed[:2], packed[2], packed[3]
    rho2 = (rho * rho).T
    q[:, :n] = r.T[:, :, None]
    drop2[:n] = rho2
    g = rho2[pi]
    L2 = pf[4, :, None]
    a = (g[0] - g[1] + L2) / (2.0 * L2)
    np.add(pf[:2, :, None], a * pf[2:4, :, None], out=q[:, n:m])
    np.subtract(g[0], a * a * L2, out=drop2[n:m])
    g = rho2[ti]
    c1 = g[0] - g[1] + tf[8, :, None] - tf[7, :, None]
    c2 = g[0] - g[2] + tf[9, :, None] - tf[7, :, None]
    # x = (c1 by - ay c2) / det and y = (ax c2 - bx c1) / det, both at once
    qt = np.divide(c1 * tf[4:6, :, None] - tf[2:4, :, None] * c2, tf[6, :, None],
                   out=q[:, m:])
    e = qt - tf[:2, :, None]
    e *= e
    np.subtract(g[0], e[0] + e[1], out=drop2[m:])
    keep = (drop2 >= -DROP_TOL).ravel()
    np.maximum(drop2, 0.0, out=drop2)
    at[...] = np.arange(at.size, dtype=float).reshape(at.shape)
    packed[4] = np.arange(rows, dtype=float)
    live = packed.reshape(5, -1).compress(keep, axis=1)
    bound = rho2 + FEAS_TOL * (2.0 * rho.T + FEAS_TOL)
    for c, bk in zip(r[:, :, None], bound):
        d = live[:2] - c
        d *= d
        live = live.compress(d[0] + d[1] + live[2] <= bk.take(live[4].astype(np.intp)), axis=1)
    z = np.full(at.size, np.inf)
    z[live[3].astype(np.intp)] = z_r - np.sqrt(live[2])
    z = z.reshape(at.shape)
    # the first lowest candidate wins, in singles, pairs, triples order
    best = np.argmin(z, axis=0)
    at = np.arange(rows)
    best_z = z[best, at]
    best_q = q[:, best, at].T
    best_q[np.isinf(best_z)] = 0.0
    return best_q, best_z


def lowest_point_grid(centers, z_r, rho_grid):
    """Batched `lowest_point` over G candidates sharing the centers.

    Parameters
    ----------
    centers : (N, 2) planar ball-center positions
    z_r : common center height
    rho_grid : (G, N) radii, one row per candidate

    Returns
    -------
    (q, z) : (G, 2) lowest-point positions and (G,) heights; +inf height and
        a zero position where the intersection is empty.
    """
    r = np.asarray(centers, dtype=float)
    rho = np.asarray(rho_grid, dtype=float)
    G, n = rho.shape
    pairs, triples = _subset_terms(r)
    candidates = n + n * (n - 1) // 2 + n * (n - 1) * (n - 2) // 6
    step = max(1, BLOCK // candidates)
    best_q = np.zeros((G, 2))
    best_z = np.full(G, np.inf)
    for lo in range(0, G, step):
        rows = slice(lo, lo + step)
        best_q[rows], best_z[rows] = _lowest_block(r, z_r, rho[rows], pairs, triples)
    return best_q, best_z
