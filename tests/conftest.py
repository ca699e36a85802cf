"""Shared fixtures and random-formation sampling for the test suite."""
import itertools
from pathlib import Path

import numpy as np
import pytest

from sheetplan import Formation, SheetLayout
from sheetplan.kernels import DROP_TOL, FEAS_TOL

# Repository files, located from this file so that pytest runs from any directory.
REPO = Path(__file__).resolve().parents[1]
SCENARIOS = sorted((REPO / "scenarios").glob("*.txt"))
CORRIDOR = str(REPO / "scenarios" / "corridor.txt")
TURNED = str(REPO / "scenarios" / "turned_corridor.txt")
BYPASS = str(REPO / "scenarios" / "bypass.txt")
REFERENCE = str(REPO / "perfbench" / "reference.json")


def reference_lowest_point(centers, z_r, rho):
    """Lowest point of the intersection of balls B((r_i, z_r), rho_i), one
    candidate at a time: the tests' reference for the kernels.

    Every single center, pair radical point and triple radical center is a
    candidate; the lowest one inside every ball (with the kernels' FEAS_TOL
    slack) wins, the first found on a tie. It agrees with
    `kernels.lowest_point_grid` to about 1e-12, not to the bit. Returns
    (q, z), or (None, +inf) when the intersection is numerically empty.
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


def reference_inverse_kinematics(layout, contact, object_height, phis, anchor=(0.0, 0.0)):
    """Inverse kinematics one command and one check at a time, as it was
    before `inverse_kinematics_stack`: the tests' reference for the stack's
    bytes and for the error class of each check (messages left out)."""
    from sheetplan.errors import (
        CableTooShort,
        InelasticityViolated,
        ObjectOutsideFormation,
        ValidationError,
    )

    def inside(p, polygon, tol):
        return all((b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0]) >= -tol
                   for a, b in zip(polygon, np.roll(polygon, -1, axis=0)))

    contact, anchor, phis = (np.asarray(x, dtype=float) for x in (contact, anchor, phis))
    for name, value in (("contact", contact), ("object_height", object_height),
                        ("phis", phis), ("anchor", anchor)):
        if not np.isfinite(value).all():
            raise ValidationError(name, "must be finite")
    v, z_r = layout.holding_points, layout.holding_height
    if not inside(contact, v, -1e-9):
        raise ValidationError("contact", "must lie strictly inside the sheet polygon")
    if not object_height < z_r:
        raise ValidationError("object_height", "must be below the holding height")
    l = np.linalg.norm(v - contact, axis=1)
    h = z_r - object_height
    short = l * l - h * h
    if np.any(short < -1e-12):
        raise CableTooShort("a cable cannot reach the depth")
    robots = anchor + np.sqrt(np.clip(short, 0.0, None))[:, None] * np.column_stack(
        [np.cos(phis), np.sin(phis)])
    for i, j in itertools.combinations(range(len(v)), 2):
        if np.linalg.norm(robots[i] - robots[j]) - np.linalg.norm(v[i] - v[j]) >= -1e-9:
            raise InelasticityViolated("a robot pair at sheet spacing")
    formation = Formation(robots, layout)    # raises NonConvexResult
    if not inside(anchor, robots, 1e-9):
        raise ObjectOutsideFormation("anchor outside the formation")
    return formation


IK_ROW_KINDS = ("plain", "nonfinite", "off_sheet", "too_high", "too_deep", "flat",
                "clockwise", "half_plane")


def ik_row(rng, layout, kind):
    """One inverse-kinematics command (contact, height, bearings, anchor) of
    a kind aimed at one check: "plain" rows mostly build, the others aim at
    non-finite inputs, a contact off the sheet, a height at or above the
    holding height, a depth no cable reaches, a nearly flat sheet
    (inelasticity), bearings in clockwise order (convexity) and bearings
    within a half plane (anchor outside)."""
    v, z_r = layout.holding_points, layout.holding_height
    contact = v.mean(axis=0) + rng.uniform(-0.08, 0.08, 2)
    l = np.linalg.norm(v - contact, axis=1)
    height = z_r - rng.uniform(0.35, 0.8) * np.min(l)
    phis = np.arctan2(*(v - contact).T[::-1]) + rng.uniform(-0.2, 0.2, len(v))
    anchor = rng.uniform(-1.0, 1.0, 2)
    if kind == "nonfinite":
        which = int(rng.integers(4))
        bad = rng.choice([np.nan, np.inf, -np.inf])
        if which == 0:
            contact[rng.integers(2)] = bad
        elif which == 1:
            height = bad
        elif which == 2:
            phis[rng.integers(len(v))] = bad
        else:
            anchor[rng.integers(2)] = bad
    elif kind == "off_sheet":
        contact = contact + rng.uniform(1.5, 4.0) * (v[rng.integers(len(v))] - contact)
    elif kind == "too_high":
        height = z_r + rng.choice([0.0, rng.uniform(0.0, 0.5)])
    elif kind == "too_deep":
        height = z_r - np.max(l) - rng.uniform(1e-6, 1.0)
    elif kind == "flat":
        height = z_r - rng.uniform(0.0, 1e-3) * np.min(l)
    elif kind == "clockwise":
        phis = phis[::-1]
    elif kind == "half_plane":
        phis = rng.uniform(0.0, np.pi / 2) + np.sort(rng.uniform(0.0, np.pi * 0.9, len(v)))
    return contact, float(height), phis, anchor


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


def random_folded_case(rng, n, gap=(0.3, 0.4)):
    """Random sheet with one wide edge whose two robots are pulled together.

    Holding points sit on a jittered circle with a wide gap between points
    n-1 and 0, spanning a share of the circle drawn from `gap`; the robots
    are contracted toward the centroid, and robots 0 and n-1 are pulled
    toward their midpoint. That edge folds, and the load tends to hang from
    the fold line or pinned to the sheet boundary (the boundary-contact
    regime). Returns (layout, formation) or None when the draw fails the
    convexity/feasibility guards.
    """
    gap = rng.uniform(*gap) * 2 * np.pi
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


def draw_folded_case(rng, n, max_tries=200, gap=(0.3, 0.4)):
    for _ in range(max_tries):
        case = random_folded_case(rng, n, gap)
        if case is not None:
            return case
    raise RuntimeError("failed to draw a feasible folded formation")


def winning_row(formation):
    """(row of the solve's candidate table that wins, number of interior rows).

    The ridge rows follow the interior ones, one per cable pair. The last
    `_select_best` call picks the winner: a second call, when the solve
    needs one, ranks the edge rows against the first call's winner.
    """
    from unittest import mock

    from sheetplan import equilibrium

    won = []
    select = equilibrium._select_best

    def spy(*args):
        won.append(select(*args))
        return won[-1]

    with mock.patch.object(equilibrium, "_select_best", spy):
        equilibrium.solve_equilibrium(formation)
    return int(won[-1][0]), len(equilibrium._solve_plan(formation.n)[2])


def random_square_case(rng):
    """Square sheet with a rotated, shifted and uniformly contracted team.

    The all-taut contact is the sheet's center, where both diagonal fold
    ridges cross at the same depth; the ridge row wins whenever its height
    rounds below the interior row's, as on the `turned_corridor` samples.
    """
    side = rng.uniform(1.2, 2.0)
    v = side * np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    layout = SheetLayout(v, 0.79)
    ang = rng.uniform(0.0, 2 * np.pi)
    turn = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
    r = rng.uniform(0.6, 0.9) * (v - v.mean(axis=0)) @ turn.T + rng.uniform(-1, 1, 2)
    return layout, Formation(r, layout)


def draw_ridge_case(rng, max_tries=400):
    """A square case whose equilibrium is a two-cable ridge hang."""
    for _ in range(max_tries):
        layout, formation = random_square_case(rng)
        row, interior = winning_row(formation)
        if interior <= row < interior + 6:
            return layout, formation
    raise RuntimeError("failed to draw a ridge-hang formation")


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

    The commanded state comes from `_kkt_command`. Used for n = 3, 4 where
    the all-taut equilibrium set is a thin variety that rejection sampling
    of formations essentially never hits.
    """
    from sheetplan import inverse_kinematics, solve_equilibrium
    from sheetplan.errors import SheetPlanError

    layout = _random_layout(rng, n)
    if layout is None:
        return None
    mu = rng.dirichlet(2.0 * np.ones(n))
    if np.min(mu) < 0.05:
        return None
    command = _kkt_command(rng, layout, mu)
    if command is None:
        return None
    u, z_o, phis = command
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


def _kkt_command(rng, layout, mu):
    """(contact, height, bearings) of an all-taut state that meets the KKT
    conditions with multipliers proportional to `mu`, or None.

    The multipliers fix the contact (sheet-side balance); the first n-2
    cable bearings are free and the last two close the horizontal force
    balance (two-link solve).
    """
    n = layout.n
    v = layout.holding_points
    z_r = layout.holding_height
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
    return u, z_o, phis


def draw_kkt_command(rng, n, max_tries=20000):
    """Inverse-kinematics inputs (layout, contact, height, bearings) and the
    formation they build, whose all-taut state meets the KKT conditions
    with margin.

    Unlike `draw_consistent_target`, nothing here solves the equilibrium:
    holding points sit on a jittered circle, multipliers are drawn near
    uniform, and `_kkt_command` balances the bearings, so every multiplier
    is positive. The cable constraints' gradients in (contact, object
    position, height), one normalized row per cable, must keep a smallest
    singular value s of at least 0.01: the rows are then independent, and
    with five or more cables they span all five unknowns, so the state is
    a strict local minimum and a solve whose cables may be FEAS_TOL too
    long finds its contact within about FEAS_TOL / s of it. Nearly
    dependent rows let a four-cable subset hang up to 1e-8 m lower a few
    tenths of a millimetre away (seen at n = 5 on 3 of 600 unfiltered
    draws, with s below 3e-4).
    """
    from sheetplan import inverse_kinematics
    from sheetplan.errors import SheetPlanError

    for _ in range(max_tries):
        ang = 2 * np.pi / n * (np.arange(n) + rng.uniform(-0.2, 0.2, n))
        v = rng.uniform(0.7, 1.0, n)[:, None] * np.column_stack([np.cos(ang), np.sin(ang)])
        mu = rng.dirichlet(4.0 * np.ones(n))
        if not _convex_ccw(v) or np.min(mu) < 0.3 / n:
            continue
        layout = SheetLayout(v, 0.79)
        command = _kkt_command(rng, layout, mu)
        if command is None:
            continue
        u, z_o, phis = command
        try:
            built = inverse_kinematics(layout, u, z_o, phis)   # object above the origin
        except SheetPlanError:
            continue
        grad = np.column_stack([v - u, built.robot_positions, np.full(n, 0.79 - z_o)])
        grad /= np.linalg.norm(grad, axis=1, keepdims=True)
        if np.linalg.svd(grad, compute_uv=False)[-1] >= 0.01:
            return layout, u, z_o, phis, built
    raise RuntimeError(f"failed to draw a balanced all-taut command for n={n}")


def _direct_target(rng, n):
    """Jittered natural bearings, kept when the built state is the true
    equilibrium; efficient for n >= 5 where the taut system has slack
    multiplier freedom."""
    from sheetplan import inverse_kinematics, solve_equilibrium
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
    _, z_low = reference_lowest_point(built.robot_positions, layout.holding_height, rho)
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
