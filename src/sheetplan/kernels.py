"""The lowest-point kernels of the cable model.

The hot primitive of the whole toolkit: given ball centers at a common
height z_r above planar points r_i and radii rho_i (the cable lengths), find
the lowest point of the balls' intersection. Because all centers are
coplanar, every candidate is a planar trilateration point plus a vertical
drop, enumerated exactly over active subsets of size 1, 2 and 3.

`lowest_point` solves one instance; `lowest_point_grid` solves a batch that
shares the centers (the candidates of one equilibrium solve, or one
sheet-contact grid of the oracle), vectorized over the batch and over the
active subsets.
"""
import itertools

import numpy as np

BACKEND = "python"  # the numpy kernels are the only ones; benchmark records name them

FEAS_TOL = 1e-7     # slack allowed when testing membership in each ball
DROP_TOL = 1e-9     # tolerance on nonnegative squared drop
BLOCK = 1 << 15     # batch rows x candidate points x centers per stacked block


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
    trilateration point and are left out. Returns two lists of columns,
    one entry per pair (i, j, d, L2) and per triple
    (i, j, k, ax, ay, bx, by, det, |r_i|^2, |r_j|^2, |r_k|^2); a list is
    empty when there is no such subset.
    """
    pairs, triples = [], []
    for i, j in itertools.combinations(range(len(r)), 2):
        d = r[j] - r[i]
        L2 = float(d @ d)
        if L2 >= 1e-18:
            pairs.append((i, j, d, L2))
    for i, j, k in itertools.combinations(range(len(r)), 3):
        ax, ay = 2.0 * (r[j] - r[i])
        bx, by = 2.0 * (r[k] - r[i])
        det = ax * by - ay * bx
        if abs(det) >= 1e-14:
            triples.append((i, j, k, ax, ay, bx, by, det,
                            r[i] @ r[i], r[j] @ r[j], r[k] @ r[k]))
    return [np.array(c) for c in zip(*pairs)], [np.array(c) for c in zip(*triples)]


def _lowest_block(r, z_r, rho, pairs, triples):
    """`lowest_point_grid` on one block of rows, all candidates stacked."""
    rho2 = rho * rho
    points = [r[None].repeat(len(rho), axis=0)]
    drops = [rho2]
    if pairs:
        i, j, d, L2 = pairs
        ri2 = rho2[:, i]
        a = (ri2 - rho2[:, j] + L2) / (2.0 * L2)
        points.append(r[i] + a[:, :, None] * d)
        drops.append(ri2 - a * a * L2)
    if triples:
        i, j, k, ax, ay, bx, by, det, si, sj, sk = triples
        ri2 = rho2[:, i]
        c1 = ri2 - rho2[:, j] + sj - si
        c2 = ri2 - rho2[:, k] + sk - si
        qt = np.stack([(c1 * by - ay * c2) / det, (ax * c2 - bx * c1) / det], axis=2)
        points.append(qt)
        drops.append(ri2 - np.sum((qt - r[i]) ** 2, axis=2))
    q = np.concatenate(points, axis=1)          # (rows, candidates, 2)
    drop2 = np.concatenate(drops, axis=1)       # (rows, candidates)
    d2c = np.maximum(drop2, 0.0)
    dx = q[:, :, None, 0] - r[:, 0]
    dy = q[:, :, None, 1] - r[:, 1]
    dd = dx * dx + dy * dy + d2c[:, :, None]
    feas_rhs = rho2 + FEAS_TOL * (2.0 * rho + FEAS_TOL)
    ok = (drop2 >= -DROP_TOL) & np.all(dd <= feas_rhs[:, None, :], axis=2)
    z = np.where(ok, z_r - np.sqrt(d2c), np.inf)
    # the first lowest candidate wins, in singles, pairs, triples order
    best = np.argmin(z, axis=1)
    rows = np.arange(len(z))
    best_z = z[rows, best]
    best_q = q[rows, best]
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
    step = max(1, BLOCK // (candidates * n))
    best_q = np.zeros((G, 2))
    best_z = np.full(G, np.inf)
    for lo in range(0, G, step):
        rows = slice(lo, lo + step)
        best_q[rows], best_z[rows] = _lowest_block(r, z_r, rho[rows], pairs, triples)
    return best_q, best_z
