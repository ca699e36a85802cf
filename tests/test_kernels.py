"""The lowest-point kernels: the batched kernel and its batch of one match the
reference and first principles."""
import hashlib
from unittest import mock

import numpy as np
import pytest

from sheetplan import kernels

from conftest import reference_lowest_point

# sha256 of the (q, z) bytes of `lowest_point_grid` on `_pinned_cases()`,
# recorded with the dense all-balls feasibility test (numpy 2.4, x86-64)
GRID_DIGEST = "d9c0274b9561f0dd31d075c3019b49d38ddb32dc69d0cf0ce50acf9951ee395f"
# the same for `_row_center_cases()`, the path of the stacked solves, recorded
# with the kernel that tested one ball at a time on a compressed copy
ROWS_DIGEST = "dbedd314a6a37cb569e5961097c950028704fb424f33771862d59b517c89d21c"


def _random_instance(rng, n):
    centers = rng.uniform(-1, 1, (n, 2))
    # contact point near the middle so radii are mutually consistent
    u = rng.uniform(-0.3, 0.3, 2)
    rho = np.linalg.norm(centers - u, axis=1) * rng.uniform(1.0, 1.4)
    return centers, rho


def test_grid_empty_and_nonempty_rows():
    # batched validation relies on empty rows reading (0, +inf) and on the
    # other rows matching the reference, whatever their neighbours
    centers = np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, 1.2]])
    rng = np.random.default_rng(46)
    pts = rng.uniform(-0.3, 0.3, (12, 2))
    rho = np.linalg.norm(pts[:, None, :] - centers[None, :, :], axis=2) * 1.2
    empty = np.array([1, 4, 5, 11])
    rho[empty] = 0.3                   # balls 2 m apart with radius 0.3: disjoint
    q_g, z_g = kernels.lowest_point_grid(centers, 0.79, rho)
    for k in range(len(rho)):
        q_s, z_s = reference_lowest_point(centers, 0.79, rho[k])
        if k in empty:
            assert q_s is None
            assert z_g[k] == np.inf
            assert np.all(q_g[k] == 0.0)
        else:
            assert np.isfinite(z_g[k])
            assert abs(z_g[k] - z_s) <= 1e-12
            assert np.max(np.abs(q_g[k] - q_s)) <= 1e-12


@pytest.mark.parametrize("n", range(1, 9))
def test_grid_matches_scalar(n):
    # n = 1 has no pairs and n <= 2 no triples; both must still batch
    rng = np.random.default_rng(40 + n)   # n = 4 is the original seed-44 case
    centers, _ = _random_instance(rng, n)
    pts = rng.uniform(-0.4, 0.4, (50, 2))
    rho = np.linalg.norm(pts[:, None, :] - centers[None, :, :], axis=2) * 1.3
    q_g, z_g = kernels.lowest_point_grid(centers, 0.79, rho)
    assert np.isfinite(z_g).any()
    for k in range(len(pts)):
        q_s, z_s = reference_lowest_point(centers, 0.79, rho[k])
        if q_s is None:
            assert z_g[k] == np.inf and np.all(q_g[k] == 0.0)
            continue
        assert z_g[k] == pytest.approx(z_s, abs=1e-12)
        assert np.max(np.abs(q_g[k] - q_s)) <= 1e-12


def test_three_sphere_point_is_radical_center():
    # regression: the three-ball candidate must solve the exact 2x2 system
    centers = np.array([[0.0, 0.6], [-0.52, -0.3], [0.52, -0.3]])
    rho = np.array([0.924, 0.922, 0.925])
    q, z = kernels.lowest_point(centers, 0.79, rho)
    g = rho**2 - np.sum((q - centers) ** 2, axis=1)
    assert np.max(g) - np.min(g) < 1e-10      # equidistant in the ball metric
    assert z == pytest.approx(0.79 - np.sqrt(g[0]), abs=1e-12)


def test_single_ball():
    centers = np.array([[0.2, 0.1]])
    q, z = kernels.lowest_point(centers, 1.0, np.array([0.5]))
    assert np.allclose(q, [0.2, 0.1])
    assert z == pytest.approx(0.5)


def test_pair_hang():
    # two overlapping balls: lowest point under the radical point
    centers = np.array([[-0.5, 0.0], [0.5, 0.0]])
    rho = np.array([0.8, 0.8])
    q, z = kernels.lowest_point(centers, 1.0, rho)
    assert np.allclose(q, [0.0, 0.0], atol=1e-12)
    assert z == pytest.approx(1.0 - np.sqrt(0.8**2 - 0.25), abs=1e-12)


def test_empty_intersection():
    centers = np.array([[-1.0, 0.0], [1.0, 0.0]])
    q, z = kernels.lowest_point(centers, 1.0, np.array([0.3, 0.3]))
    assert q is None and np.isinf(z)


def test_brute_force_agreement():
    """The one-instance kernel against a dense direct search over the object position."""
    rng = np.random.default_rng(45)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        centers, rho = _random_instance(rng, n)
        q, z = kernels.lowest_point(centers, 0.79, rho)
        if q is None:
            continue
        xs = np.linspace(q[0] - 0.05, q[0] + 0.05, 201)
        ys = np.linspace(q[1] - 0.05, q[1] + 0.05, 201)
        gx, gy = np.meshgrid(xs, ys)
        pts = np.column_stack([gx.ravel(), gy.ravel()])
        d2 = np.sum((pts[:, None, :] - centers[None, :, :]) ** 2, axis=2)
        drop2 = rho[None, :] ** 2 - d2
        ok = np.all(drop2 >= 0, axis=1)
        if not np.any(ok):
            continue
        z_brute = 0.79 - np.max(np.sqrt(np.min(drop2[ok], axis=1)))
        assert z <= z_brute + 1e-9


def _candidates(n):
    return n + n * (n - 1) // 2 + n * (n - 1) * (n - 2) // 6


def _pinned_cases():
    """Seeded `lowest_point_grid` inputs over every path of the batched kernel.

    n = 1..8, coincident centers, a collinear triple, empty rows, and batches
    larger than one block of rows.
    """
    rng = np.random.default_rng(47)
    cases = []
    for n in range(1, 9):
        centers = rng.uniform(-1, 1, (n, 2))
        for rows in (1, 37, 450 if n == 8 else 3000 if n in (3, 5) else 90):
            pts = rng.uniform(-0.4, 0.4, (rows, 2))
            rho = np.linalg.norm(pts[:, None] - centers[None], axis=2)
            rho *= rng.uniform(0.95, 1.4, (rows, 1))
            rho[rng.random(rows) < 0.1] = 0.05   # mostly disjoint balls
            cases.append((centers, rho))
    coincident = np.array([[0.3, -0.2], [0.3, -0.2], [-0.5, 0.4], [0.6, 0.5]])
    collinear = np.array([[-0.6, -0.3], [0.0, 0.0], [0.6, 0.3], [0.1, 0.8], [-0.4, 0.7]])
    for centers in (coincident, collinear, np.zeros((3, 2))):
        pts = rng.uniform(-0.4, 0.4, (120, 2))
        rho = np.linalg.norm(pts[:, None] - centers[None], axis=2) * 1.2
        cases.append((centers, rho))
    return cases


def test_grid_bytes_pinned():
    # the batched kernel's (q, z) are pinned to the byte on this seeded set:
    # a rewrite of the kernel must return the same floats, not just close ones
    cases = _pinned_cases()
    assert any(len(rho) * _candidates(len(c)) > kernels.BLOCK for c, rho in cases)
    h = hashlib.sha256()
    for centers, rho in cases:
        q, z = kernels.lowest_point_grid(centers, 0.79, rho)
        assert q.shape == (len(rho), 2) and z.shape == (len(rho),)
        h.update(q.tobytes())
        h.update(z.tobytes())
    assert h.hexdigest() == GRID_DIGEST


def _row_center_cases():
    """Seeded `lowest_point_grid` inputs with one center set and height per row.

    Per n = 1..8, four teams in runs of one to forty rows, each run with its
    own height, a tenth of the rows with 0.05 m radii (mostly disjoint), and
    more than one block of rows at n >= 4.
    """
    rng = np.random.default_rng(50)
    cases = []
    for n in range(1, 9):
        teams = rng.uniform(-1, 1, (4, n, 2))
        runs = rng.integers(0, 4, 24)
        lengths = rng.choice([1, 2, 7, 40], 24)
        which = np.repeat(runs, lengths)
        centers = teams[which]
        z_r = np.repeat(rng.uniform(0.5, 1.2, 24), lengths)
        pts = rng.uniform(-0.4, 0.4, (len(which), 2))
        rho = np.linalg.norm(pts[:, None] - centers, axis=2)
        rho *= rng.uniform(0.95, 1.4, (len(which), 1))
        rho[rng.random(len(which)) < 0.1] = 0.05   # mostly disjoint balls
        cases.append((centers, z_r, rho))
    return cases


def _per_height(centers_of, z_r, rho):
    """`lowest_point_grid` called once per distinct height of `z_r`, its rows
    put back in order; `centers_of(at)` gives the centers of the rows `at`."""
    q, z = np.zeros((len(rho), 2)), np.zeros(len(rho))
    for h in np.unique(z_r):
        at = z_r == h
        q[at], z[at] = kernels.lowest_point_grid(centers_of(at), h, rho[at])
    return q, z


def test_grid_rows_bytes_pinned():
    # the per-row-centers path the stacked solves take, pinned to the byte;
    # each row is solved alone, so the calls of each height give the bytes
    # of the rows as recorded in one call
    h = hashlib.sha256()
    calls = empty = 0
    with mock.patch.object(kernels, "_lowest_block", wraps=kernels._lowest_block) as block:
        for centers, z_r, rho in _row_center_cases():
            assert (centers != centers[:1]).any()
            q, z = _per_height(lambda at: centers[at], z_r, rho)
            calls += len(np.unique(z_r))
            empty += np.isinf(z).sum()
            assert np.isfinite(z).any()
            h.update(q.tobytes())
            h.update(z.tobytes())
    assert block.call_count >= calls + 2 and empty > 0     # some calls split into blocks
    assert h.hexdigest() == ROWS_DIGEST


def test_one_set_in_a_batch_same_bytes():
    # one set of centers given as a batch of one, (1, N, 2), is shared by
    # every row: on the pinned inputs it hashes to GRID_DIGEST, as (N, 2) does
    h = hashlib.sha256()
    for centers, rho in _pinned_cases():
        q, z = kernels.lowest_point_grid(centers[None], 0.79, rho)
        h.update(q.tobytes())
        h.update(z.tobytes())
    assert h.hexdigest() == GRID_DIGEST


def test_grid_split_rows_same_bytes():
    # each row is solved on its own: any split of a batch gives the same bytes
    rng = np.random.default_rng(48)
    for centers, rho in _pinned_cases():
        q, z = kernels.lowest_point_grid(centers, 0.79, rho)
        cuts = np.sort(rng.integers(0, len(rho) + 1, 3))
        parts = [kernels.lowest_point_grid(centers, 0.79, part)
                 for part in np.split(rho, cuts)]
        assert np.concatenate([p[0] for p in parts]).tobytes() == q.tobytes()
        assert np.concatenate([p[1] for p in parts]).tobytes() == z.tobytes()


def test_grid_rows_with_own_centers():
    # one center set per row, in runs of equal sets or shuffled, gives each
    # row the bytes of its own shared-center call; the sets take two heights
    # in turn, so each call of a height mixes sets
    rng = np.random.default_rng(49)
    by_n = {}
    for centers, rho in _pinned_cases():
        by_n.setdefault(len(centers), []).append((centers, rho[:200]))
    for cases in by_n.values():
        heights = [0.79 + 0.31 * (k % 2) for k in range(len(cases))]
        centers = np.concatenate([np.broadcast_to(c, (len(rho),) + c.shape)
                                  for c, rho in cases])
        z_r = np.concatenate([np.full(len(rho), h) for (_, rho), h in zip(cases, heights)])
        rho = np.concatenate([rho for _, rho in cases])
        parts = [kernels.lowest_point_grid(c, h, r) for (c, r), h in zip(cases, heights)]
        q = np.concatenate([p[0] for p in parts])
        z = np.concatenate([p[1] for p in parts])
        for order in (np.arange(len(rho)), rng.permutation(len(rho))):
            q_rows, z_rows = _per_height(lambda at: centers[order][at], z_r[order], rho[order])
            assert q_rows.tobytes() == q[order].tobytes()
            assert z_rows.tobytes() == z[order].tobytes()
    q, z = kernels.lowest_point_grid(np.zeros((0, 3, 2)), 0.79, np.zeros((0, 3)))
    assert q.shape == (0, 2) and z.shape == (0,)


def test_grid_no_rows_shared_centers():
    # a scan of the oracle may leave no contact to send: no rows, no result
    centers = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.8]])
    q, z = kernels.lowest_point_grid(centers, 0.79, np.zeros((0, 3)))
    assert q.shape == (0, 2) and z.shape == (0,)


def test_lowest_point_is_one_grid_row():
    # the one-instance kernel returns the bytes of its one-row grid call, and
    # (None, +inf) where the row is empty
    rows = empty = 0
    for centers, rho in _pinned_cases():
        for row in rho[::11]:
            rows += 1
            q, z = kernels.lowest_point(centers, 0.79, row)
            q_g, z_g = kernels.lowest_point_grid(centers, 0.79, row[None])
            assert np.asarray(z).tobytes() == z_g.tobytes()
            if z_g[0] == np.inf:
                assert q is None
                empty += 1
            else:
                assert q.tobytes() == q_g[0].tobytes()
    assert 0 < empty < rows
