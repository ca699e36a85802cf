"""Workload inputs: the two shipped scenarios and the seeded kinematics batch.

Only `run.py` and the set-up probe import this module, after `src/` is on
the path, so importing it is part of the measured set-up time.
"""
import itertools

import numpy as np

from sheetplan import Formation, SheetLayout, inverse_kinematics, kernels
from sheetplan.errors import SheetPlanError

PIPELINES = {
    "corridor": "scenarios/corridor.txt",
    "turned_corridor": "scenarios/turned_corridor.txt",
}
HOLDING_HEIGHT = 0.79
ORACLE_RESOLUTION = 1e-3
# Formations per robot count. Solve latency grows about 2x per robot, so
# these counts put the batch median inside the n=6 group and its 90th
# percentile inside the n=8 group instead of between two groups, where a
# percentile would jump with the seed.
KINEMATICS_COUNTS = {5: 45, 6: 35, 7: 27, 8: 23}
MAX_TRIES = 100_000


def _is_convex_ccw(pts, tol=1e-4):
    n = len(pts)
    for i in range(n):
        a, b, c = pts[i], pts[(i + 1) % n], pts[(i + 2) % n]
        if (b[0] - a[0]) * (c[1] - b[1]) - (b[1] - a[1]) * (c[0] - b[0]) <= tol:
            return False
    return True


def _formation(v, r):
    """Formation of robots r on sheet v, or None unless strictly inelastic."""
    for i, j in itertools.combinations(range(len(v)), 2):
        if np.linalg.norm(r[i] - r[j]) >= np.linalg.norm(v[i] - v[j]) - 1e-4:
            return None
    if not (_is_convex_ccw(v) and _is_convex_ccw(r)):
        return None
    try:
        return Formation(r, SheetLayout(v, HOLDING_HEIGHT))
    except SheetPlanError:
        return None


def _circle_sheet(rng, n, angles):
    rad = rng.uniform(0.7, 1.0, n)
    return np.column_stack([rad * np.cos(angles), rad * np.sin(angles)])


def _round_sheet(rng, n):
    """Holding points near a circle, evenly spaced up to a quarter step."""
    step = 2 * np.pi / n
    ang = rng.uniform(0.0, 2 * np.pi) + step * (np.arange(n) + rng.uniform(-0.25, 0.25, n))
    return _circle_sheet(rng, n, ang)


def all_taut_case(rng, n):
    """All cables taut: robots placed by inverse kinematics around a contact.

    Kept only when the lowest point of the cable balls at that contact is
    the commanded height, the all-taut condition the solver must recover.
    """
    v = _round_sheet(rng, n)
    if not _is_convex_ccw(v):
        return None
    layout = SheetLayout(v, HOLDING_HEIGHT)
    contact = v.mean(axis=0) + rng.uniform(-0.08, 0.08, 2)
    z_o = HOLDING_HEIGHT - rng.uniform(0.35, 0.65)
    bearings = np.arctan2(*(v - contact).T[::-1]) + rng.uniform(-0.2, 0.2, n)
    try:
        formation = inverse_kinematics(layout, contact, z_o, bearings)
    except (SheetPlanError, ValueError):
        return None
    rho = layout.cable_lengths(contact)
    _, z_low = kernels.lowest_point(formation.robot_positions, HOLDING_HEIGHT, rho)
    return formation if abs(z_low - z_o) <= 1e-9 else None


def slack_case(rng, n):
    """Transport formation with one robot pulled in, slackening its cable."""
    v = _round_sheet(rng, n)
    cen = v.mean(axis=0)
    r = cen + rng.uniform(0.6, 0.92) * (v - cen) + rng.normal(0.0, 0.01, (n, 2))
    k = int(rng.integers(n))
    r[k] = cen + rng.uniform(0.55, 0.85) * (r[k] - cen)
    return _formation(v, r)


def boundary_case(rng, n):
    """Sheet with one wide edge whose two robots are pulled together.

    The edge then folds, and the load tends to hang from the fold line or
    pinned to the sheet boundary rather than inside the sheet.
    """
    gap = rng.uniform(0.3, 0.4) * 2 * np.pi
    step = (2 * np.pi - gap) / (n - 1)
    ang = np.arange(n) * step + rng.uniform(-0.2, 0.2, n) * step
    v = _circle_sheet(rng, n, ang)
    cen = v.mean(axis=0)
    r = cen + rng.uniform(0.8, 0.95) * (v - cen) + rng.normal(0.0, 0.01, (n, 2))
    mid = 0.5 * (r[0] + r[-1])
    pull = rng.uniform(0.3, 0.7)
    r[0] = mid + pull * (r[0] - mid)
    r[-1] = mid + pull * (r[-1] - mid)
    return _formation(v, r)


RECIPES = (all_taut_case, slack_case, boundary_case)


def kinematics_batch(seed):
    """The seeded batch: per robot count, the recipes in turn.

    The recipe only aims at a regime; the solved equilibrium decides which
    regime a case is counted in.
    """
    rng = np.random.default_rng(seed)
    batch = []
    for n, count in KINEMATICS_COUNTS.items():
        for k in range(count):
            recipe = RECIPES[k % len(RECIPES)]
            for _ in range(MAX_TRIES):
                formation = recipe(rng, n)
                if formation is not None:
                    batch.append(formation)
                    break
            else:
                raise RuntimeError(f"{recipe.__name__} drew no formation for n={n}")
    return batch


def build_inputs(workload, seed):
    """What one pass of `workload` consumes: a scenario path or a batch."""
    if workload in PIPELINES:
        from sheetplan.scenario import load_scenario

        load_scenario(PIPELINES[workload])      # parse and validate once
        return PIPELINES[workload]
    return kinematics_batch(seed)
