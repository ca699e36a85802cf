"""The lowest-point kernels of the cable model.

The hot primitive of the whole toolkit: given ball centers at a common
height z_r above planar points r_i and radii rho_i (the cable lengths), find
the lowest point of the balls' intersection. Because all centers are
coplanar, every candidate is a planar trilateration point plus a vertical
drop, enumerated exactly over active subsets of size 1, 2 and 3.

`lowest_point_grid` solves a batch at one center height, vectorized over
the batch and over the active subsets; `lowest_point` is its batch of one.
The batch shares one center set (an oracle scan's contacts, or the
candidates of a one-formation solve), with no gather, or maps each row to
one of several (a stack of solves, each row with its formation's robots).
The centers come raw or as `Centers`, whose terms the caller builds once
per set, with the map of rows to sets. Its membership test is one boolean
mask over the (candidate, row) entries, which each ball in turn narrows.
Copying out the entries still inside after each ball would test fewer of
them, but callers send few rows per call (a solve's next candidate rows of
each team, or the contacts of an oracle scan that its floors did not rule
out), and at that size the copy per ball costs more than the tests it skips.
"""
import numpy as np

from .geometry import dot, pair_index, triple_index

BACKEND = "python"  # the numpy kernels are the only ones; benchmark records name them

FEAS_TOL = 1e-7     # slack allowed when testing membership in each ball
DROP_TOL = 1e-9     # tolerance on nonnegative squared drop
BLOCK = 1 << 13     # batch rows x candidate points per stacked block
_TURN = np.array([1.0, -1.0])[:, None, None, None]   # (y, x) -> (y, -x), a quarter turn


def lowest_point(centers, z_r, rho):
    """`lowest_point_grid` of one instance, radii `rho` (N,): (q, z), the
    lowest point's horizontal position (2,) and height, or (None, +inf)
    when the intersection is numerically empty."""
    q, z = lowest_point_grid(centers, z_r, np.asarray(rho, dtype=float)[None])
    return (None, np.inf) if np.isinf(z[0]) else (q[0], z[0])


def _subset_terms(r):
    """Radius-independent terms of every pair and triple of centers.

    `r` is (R, N, 2), one center set per batch row, or R = 1 for centers
    shared by every row. Returns, for the pairs and for the triples, an
    index array (one row per member) and a float array with one column per
    subset and one trailing column per center set: rows (x_i, y_i, dx, dy,
    L2) for a pair, and (x_i, y_i, ay, -ax, by, -bx, det, |r_i|^2, |r_j|^2,
    |r_k|^2) for a triple, (ax, ay) = 2 (r_j - r_i) and (bx, by) =
    2 (r_k - r_i). Pairs of coincident centers and triples of collinear ones
    have no trilateration point: their L2 or det is NaN, so that every
    candidate they make has a NaN drop and leaves with the negative drops.
    """
    n = r.shape[1]
    pij, tijk = pair_index(n), triple_index(n)
    rt = r.transpose(2, 1, 0)
    ri = rt[:, pij[0]]
    d = rt[:, pij[1]] - ri
    # stacked matmuls round as the 1-D `d @ d` does; a sum of products may not
    L2 = dot(d.T, d.T).T
    ti = rt[:, tijk[0]]
    e = 2.0 * (rt[:, tijk[1:]] - ti[:, None])   # (x, y) of a and b, per triple
    det = e[0, 0] * e[1, 1] - e[1, 0] * e[0, 1]
    s = dot(r, r).T
    pairs = np.concatenate([ri, d, np.where(L2 >= 1e-18, L2, np.nan)[None]])
    turned = (e[::-1] * _TURN).transpose(1, 0, 2, 3).reshape((4,) + det.shape)
    triples = np.concatenate([ti, turned, np.where(np.abs(det) >= 1e-14, det, np.nan)[None],
                              s[tijk]])
    return (pij, pairs), (tijk, triples)


def _lowest_block(r, z_r, rho, pairs, triples):
    """`lowest_point_grid` on one block of rows, all candidates stacked.

    `r` and the subset terms carry one center set per row of the block, or
    one shared by all of them. Every (candidate, row) entry gets its x, y
    and clipped squared drop, and one boolean mask marks the entries that
    are still candidates: it starts at the nonnegative drops and each ball
    in turn clears the entries outside it. Each entry meets the comparisons
    of a test of all balls at once, so the result is the same to the bit.
    """
    rows, n = rho.shape
    (pi, pf), (ti, tf) = pairs, triples
    m = n + pi.shape[1]
    q = np.empty((2, m + ti.shape[1], rows))
    drop2 = np.empty(q.shape[1:])
    rho2 = (rho * rho).T
    centers = r.transpose(1, 2, 0)              # (ball, x/y, row or shared)
    q[:, :n] = centers.transpose(1, 0, 2)
    drop2[:n] = rho2
    g = rho2[pi]
    L2 = pf[4]
    a = (g[0] - g[1] + L2) / (2.0 * L2)
    np.add(pf[:2], a * pf[2:4], out=q[:, n:m])
    np.subtract(g[0], a * a * L2, out=drop2[n:m])
    g = rho2[ti]
    c1 = g[0] - g[1] + tf[8] - tf[7]
    c2 = g[0] - g[2] + tf[9] - tf[7]
    # x = (c1 by - ay c2) / det and y = (ax c2 - bx c1) / det, both at once
    qt = np.divide(c1 * tf[4:6] - tf[2:4] * c2, tf[6], out=q[:, m:])
    e = qt - tf[:2]
    e *= e
    np.subtract(g[0], e[0] + e[1], out=drop2[m:])
    inside = drop2 >= -DROP_TOL
    np.maximum(drop2, 0.0, out=drop2)
    bound = rho2 + FEAS_TOL * (2.0 * rho.T + FEAS_TOL)
    for c, bk in zip(centers, bound):
        d = q - c[:, None, :]
        d *= d
        inside &= d[0] + d[1] + drop2 <= bk
    # +inf where no candidate is inside every ball
    z = np.where(inside, z_r - np.sqrt(drop2), np.inf)
    # the first lowest candidate wins, in singles, pairs, triples order
    best = z.argmin(axis=0)
    at = np.arange(rows)
    best_z = z[best, at]
    best_q = q[:, best, at].T
    best_q[np.isinf(best_z)] = 0.0
    return best_q, best_z


class Centers:
    """Ball centers with the `_subset_terms` of each set: (N, 2), or
    (S, N, 2) sets with `run` mapping each row to its set (by default, set g
    to row g). A single set serves every row with no gather (`run` None)."""

    def __init__(self, points, run=None):
        r = np.asarray(points, dtype=float)
        if r.ndim == 3 and run is None:
            run = np.arange(len(r))
        self.points = r.reshape((-1,) + r.shape[-2:])
        self.run = run if len(self.points) > 1 else None
        self.pairs, self.triples = _subset_terms(self.points)


def lowest_point_grid(centers, z_r, rho_grid):
    """Lowest points of G ball intersections, one per candidate row.

    Parameters
    ----------
    centers : `Centers` (one set shared by every candidate, or sets with a
        map of each candidate to its set), or raw: (N, 2) planar ball-center
        positions shared by every candidate, or (G, N, 2), one set each
    z_r : the centers' common height, one float for every candidate
    rho_grid : (G, N) radii, one row per candidate

    Returns
    -------
    (q, z) : (G, 2) lowest-point positions and (G,) heights; +inf height and
        a zero position where the intersection is empty.
    """
    if not isinstance(centers, Centers):
        centers = Centers(centers)
    r, run = centers.points, centers.run
    (pi, pf), (ti, tf) = centers.pairs, centers.triples
    rho = np.asarray(rho_grid, dtype=float)
    G, n = rho.shape
    width = n + n * (n - 1) // 2 + n * (n - 1) * (n - 2) // 6    # candidates per row
    if run is not None:
        # a row with its own centers brings its subset terms (five floats per
        # pair and ten per triple, as many as two and four candidates), and
        # such rows come from the stacked solves of every optimizer poll:
        # their blocks take half the entries, to keep that peak small
        width = 2 * (width + pf.shape[1] + 2 * tf.shape[1])
    step = max(1, BLOCK // width)
    best_q = np.zeros((G, 2))
    best_z = np.full(G, np.inf)
    for lo in range(0, G, step):
        rows = slice(lo, lo + step)
        own = slice(None) if run is None else run[rows]
        best_q[rows], best_z[rows] = _lowest_block(
            r[own], z_r, rho[rows],
            (pi, pf[..., own]), (ti, tf[..., own]))
    return best_q, best_z
