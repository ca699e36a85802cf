"""Shared fixtures and random-formation sampling for the test suite."""
import itertools
from pathlib import Path

import numpy as np
import pytest

from sheetplan import Formation, SheetLayout

# Repository files, located from this file so that pytest runs from any directory.
REPO = Path(__file__).resolve().parents[1]
CORRIDOR = str(REPO / "scenarios" / "corridor.txt")
TURNED = str(REPO / "scenarios" / "turned_corridor.txt")
REFERENCE = str(REPO / "perfbench" / "reference.json")


def regular_polygon(n, radius, center=(0.0, 0.0), phase=np.pi / 2):
    ang = phase + 2 * np.pi * np.arange(n) / n
    return np.asarray(center, dtype=float) + radius * np.column_stack(
        [np.cos(ang), np.sin(ang)]
    )


def equilateral_layout(side=1.6, z_r=0.79):
    return SheetLayout(regular_polygon(3, side / np.sqrt(3)), z_r)


def equilateral_formation(layout, side, center=(0.0, 0.0), phase=np.pi / 2):
    return Formation(
        regular_polygon(3, side / np.sqrt(3), center=center, phase=phase), layout
    )


def _convex_ccw(pts, tol=1e-4):
    n = len(pts)
    for i in range(n):
        a, b, c = pts[i], pts[(i + 1) % n], pts[(i + 2) % n]
        if (b[0] - a[0]) * (c[1] - b[1]) - (b[1] - a[1]) * (c[0] - b[0]) <= tol:
            return False
    return True


def random_transport_case(rng, n, slack_pull=True):
    """Random convex sheet plus a feasible carried formation.

    Samples the transport envelope: holding points on a jittered circle,
    robots contracted toward the centroid, optionally with one robot pulled
    further in to slacken its cable. Returns (layout, formation) or None
    when the draw fails the convexity/feasibility guards.
    """
    ang = np.sort(rng.uniform(0, 2 * np.pi, n))
    if np.min(np.diff(ang, append=ang[0] + 2 * np.pi)) < 2 * np.pi / n * 0.45:
        return None
    rad = rng.uniform(0.7, 1.0, n)
    v = np.column_stack([rad * np.cos(ang), rad * np.sin(ang)])
    if not _convex_ccw(v):
        return None
    cen = v.mean(axis=0)
    f = rng.uniform(0.6, 0.92)
    r = cen + f * (v - cen) + rng.normal(0.0, 0.01, (n, 2))
    if slack_pull and rng.random() < 0.4:
        k = int(rng.integers(n))
        r[k] = cen + rng.uniform(0.55, 0.85) * (r[k] - cen)
    return _carried(v, r)


def _carried(v, r):
    """(layout, formation) of robots r on sheet v, or None unless the robots
    are strictly inside the sheet spacing and convex ccw."""
    for i, j in itertools.combinations(range(len(v)), 2):
        if np.linalg.norm(r[i] - r[j]) >= np.linalg.norm(v[i] - v[j]) - 1e-4:
            return None
    if not _convex_ccw(r):
        return None
    layout = SheetLayout(v, 0.79)
    return layout, Formation(r, layout)


def draw_transport_case(rng, n, slack_pull=True, max_tries=200):
    for _ in range(max_tries):
        case = random_transport_case(rng, n, slack_pull=slack_pull)
        if case is not None:
            return case
    raise RuntimeError("failed to draw a feasible random formation")


def random_folded_case(rng, n):
    """Random sheet with one wide edge whose two robots are pulled together.

    Holding points sit on a jittered circle with a wide gap between points
    n-1 and 0; the robots are contracted toward the centroid, and robots 0
    and n-1 are pulled toward their midpoint. That edge folds, and the load
    tends to hang from the fold line or pinned to the sheet boundary (the
    boundary-contact regime). Returns (layout, formation) or None when the
    draw fails the convexity/feasibility guards.
    """
    gap = rng.uniform(0.3, 0.4) * 2 * np.pi
    step = (2 * np.pi - gap) / (n - 1)
    ang = step * (np.arange(n) + rng.uniform(-0.2, 0.2, n))
    rad = rng.uniform(0.7, 1.0, n)
    v = np.column_stack([rad * np.cos(ang), rad * np.sin(ang)])
    if not _convex_ccw(v):
        return None
    cen = v.mean(axis=0)
    r = cen + rng.uniform(0.8, 0.95) * (v - cen) + rng.normal(0.0, 0.01, (n, 2))
    mid = 0.5 * (r[0] + r[-1])
    pull = rng.uniform(0.3, 0.7)
    r[0] = mid + pull * (r[0] - mid)
    r[-1] = mid + pull * (r[-1] - mid)
    return _carried(v, r)


def draw_folded_case(rng, n, max_tries=200):
    for _ in range(max_tries):
        case = random_folded_case(rng, n)
        if case is not None:
            return case
    raise RuntimeError("failed to draw a feasible folded formation")


def _random_layout(rng, n, z_r=0.79):
    from sheetplan import SheetLayout
    from sheetplan.errors import SheetPlanError

    ang = np.sort(rng.uniform(0, 2 * np.pi, n))
    if np.min(np.diff(ang, append=ang[0] + 2 * np.pi)) < 2 * np.pi / n * 0.45:
        return None
    rad = rng.uniform(0.7, 1.0, n)
    v = np.column_stack([rad * np.cos(ang), rad * np.sin(ang)])
    try:
        return SheetLayout(v, z_r)
    except SheetPlanError:
        return None


def _kkt_target(rng, n):
    """Construct an all-taut equilibrium directly from its KKT conditions.

    Multipliers drawn on the simplex fix the contact (sheet-side balance);
    the first n-2 cable bearings are free and the last two close the
    horizontal force balance (two-link solve). Used for n = 3, 4 where the
    all-taut equilibrium set is a thin variety that rejection sampling of
    formations essentially never hits.
    """
    from sheetplan import inverse_kinematics, solve_equilibrium
    from sheetplan.errors import SheetPlanError

    layout = _random_layout(rng, n)
    if layout is None:
        return None
    v = layout.holding_points
    z_r = layout.holding_height
    mu = rng.dirichlet(2.0 * np.ones(n))
    if np.min(mu) < 0.05:
        return None
    u = mu @ v
    l = np.linalg.norm(v - u, axis=1)
    h = rng.uniform(0.45, 0.8) * np.min(l)
    z_o = z_r - h
    rho = np.sqrt(l**2 - h**2)
    a = mu * rho
    bearings = np.arctan2(*(v - u).T[::-1])
    phis = np.empty(n)
    phis[: n - 2] = bearings[: n - 2] + rng.uniform(-0.25, 0.25, n - 2)
    w = -np.sum(
        a[: n - 2, None]
        * np.column_stack([np.cos(phis[: n - 2]), np.sin(phis[: n - 2])]),
        axis=0,
    )
    W = float(np.linalg.norm(w))
    a3, a4 = a[n - 2], a[n - 1]
    if not (abs(a3 - a4) <= W <= a3 + a4) or W < 1e-12:
        return None
    base = np.arctan2(w[1], w[0])
    cosg = (W * W + a3 * a3 - a4 * a4) / (2 * W * a3)
    gamma = np.arccos(np.clip(cosg, -1.0, 1.0))
    best = None
    for sgn in (1.0, -1.0):
        p3 = base + sgn * gamma
        rem = w - a3 * np.array([np.cos(p3), np.sin(p3)])
        p4 = np.arctan2(rem[1], rem[0])
        score = abs(np.angle(np.exp(1j * (p3 - bearings[n - 2])))) + abs(
            np.angle(np.exp(1j * (p4 - bearings[n - 1])))
        )
        if best is None or score < best[0]:
            best = (score, p3, p4)
    phis[n - 2], phis[n - 1] = best[1], best[2]
    try:
        built = inverse_kinematics(layout, u, z_o, phis, anchor=(0.0, 0.0))
    except SheetPlanError:
        return None
    eq = solve_equilibrium(built)
    if eq.taut_count != n:
        return None
    if np.linalg.norm(eq.sheet_contact - u) > 1e-8 or abs(eq.z - z_o) > 1e-8:
        return None
    return layout, built, eq, phis


def _direct_target(rng, n):
    """Jittered natural bearings, kept when the built state is the true
    equilibrium; efficient for n >= 5 where the taut system has slack
    multiplier freedom."""
    from sheetplan import inverse_kinematics, kernels, solve_equilibrium
    from sheetplan.errors import SheetPlanError

    layout = _random_layout(rng, n)
    if layout is None:
        return None
    v = layout.holding_points
    contact = v.mean(axis=0) + rng.uniform(-0.08, 0.08, 2)
    z_o = layout.holding_height - rng.uniform(0.35, 0.65)
    bearings = np.arctan2(*(v - contact).T[::-1]) + rng.uniform(-0.2, 0.2, n)
    try:
        built = inverse_kinematics(layout, contact, z_o, bearings)
    except SheetPlanError:
        return None
    rho = layout.cable_lengths(contact)
    _, z_low = kernels.lowest_point(built.robot_positions, layout.holding_height, rho)
    if abs(z_low - z_o) > 1e-9:
        return None
    eq = solve_equilibrium(built)
    if (
        eq.taut_count == n
        and np.linalg.norm(eq.sheet_contact - contact) < 1e-8
        and abs(eq.z - z_o) < 1e-8
    ):
        return layout, built, eq, bearings
    return None


def draw_consistent_target(rng, n, max_tries=20000):
    """A random valid all-taut target: (layout, formation, equilibrium, phis).

    The all-taut equilibrium family has codimension 6 - n in the target
    parameters, so n = 3, 4 use the KKT-constructive sampler and n >= 5 the
    direct one; every target is verified to be the built formation's true
    global equilibrium before use.
    """
    sampler = _kkt_target if n <= 4 else _direct_target
    for _ in range(max_tries):
        got = sampler(rng, n)
        if got is not None:
            return got
    raise RuntimeError(f"failed to draw a consistent all-taut target for n={n}")


@pytest.fixture(scope="session")
def triangle_layout():
    return equilateral_layout()
