"""Cost terms and the constrained formation optimizer."""
import hashlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sheetplan import (
    CostWeights,
    Formation,
    InfeasibleFormation,
    NoFeasibleFormation,
    ObstacleSpec,
    SafetyParams,
    cost_cross,
    cost_pass,
    cost_transport,
    indicators,
    load_scenario,
    optimize_formation,
    pipeline,
    run_pipeline,
    solve_equilibrium,
)
from sheetplan.geometry import FormationIndicators, pair_distances
from sheetplan.optimizer import EVAL_BUDGET, STEP_MIN, _Chart, _pattern_search

from conftest import CORRIDOR, TURNED, equilateral_formation, equilateral_layout

W = CostWeights()
TINY = CostWeights(l1=1.0, l2=1.0, l3=1e-300, l4=1e-300, l5=1e-300)


def sides_of(formation):
    r = formation.robot_positions
    n = len(r)
    return np.array([np.linalg.norm(r[i] - r[(i + 1) % n]) for i in range(n)])


class TestCostTerms:
    def test_transport_identity(self, triangle_layout):
        f = equilateral_formation(triangle_layout, 1.2)
        v_o = np.array([0.1, 0.2])
        assert cost_transport(f, f, v_o, v_o, W) == 0.0

    def test_transport_contact_term(self, triangle_layout):
        f = equilateral_formation(triangle_layout, 1.2)
        v_o = np.array([0.1, 0.2])
        got = cost_transport(f, f, v_o + [0.1, 0.0], v_o, W)
        assert got == pytest.approx(0.01, abs=1e-15)

    def test_transport_counts_ordered_pairs(self, triangle_layout):
        # independent expansion of the i != j sum: each unordered pair twice
        f1 = equilateral_formation(triangle_layout, 1.2)
        f2 = equilateral_formation(triangle_layout, 1.25)
        v_o = np.zeros(2)
        expected = 0.0
        r1, r2 = f1.robot_positions, f2.robot_positions
        for i in range(3):
            for j in range(i + 1, 3):
                d = np.linalg.norm(r2[i] - r2[j]) - np.linalg.norm(r1[i] - r1[j])
                expected += 2.0 * d * d
        assert cost_transport(f2, f1, v_o, v_o, W) == pytest.approx(expected, rel=1e-12)

    def test_transport_stack_matches_each(self, triangle_layout):
        # a stack of formations gets each formation's own cost bits
        rng = np.random.default_rng(9)
        initial = equilateral_formation(triangle_layout, 1.2)
        formations = [equilateral_formation(triangle_layout, s, center=c, phase=a) for s, c, a in
                      zip(rng.uniform(0.9, 1.4, 30), rng.normal(0, 0.2, (30, 2)),
                          rng.uniform(0, 7, 30))]
        contacts = rng.normal(0.0, 0.1, (30, 2))
        v_o0 = np.array([0.01, -0.02])
        stack = cost_transport(np.array([f.robot_positions for f in formations]), initial,
                               contacts, v_o0, W)
        each = [cost_transport(f, initial, c, v_o0, W) for f, c in zip(formations, contacts)]
        assert stack.tobytes() == np.array(each).tobytes()
        assert all(type(c) is float for c in each)

    def test_pass_stack_rounds_as_floats(self):
        # the square is libm's pow of each float, as in the one-point cost,
        # which differs from numpy's array square on about 1 in 1,000 inputs
        widths = np.random.default_rng(4).uniform(0.5, 3.0, 5000)
        each = [cost_pass(float(w), 2.0, W) for w in widths]
        assert cost_pass(widths, 2.0, W).tobytes() == np.array(each).tobytes()

    def test_pass_boundary(self):
        assert cost_pass(2.0, 2.0, W) == 0.0

    def test_pass_value(self):
        assert cost_pass(1.4856, 2.0, W) == pytest.approx(-0.26461, abs=1e-5)

    def test_pass_zero_weight(self):
        assert cost_pass(1.4856, 2.0, TINY) == pytest.approx(0.0, abs=1e-290)

    def test_cross_boundary(self):
        ind = FormationIndicators(W=1.5, D=1.4, L_min=1.2, d_obsmax=0.2, z_obsmax=0.05)
        ob = ObstacleSpec((0, 0), 0.1, 0.05)
        assert cost_cross(ind, ob, W) == 0.0

    def test_cross_value(self):
        ind = FormationIndicators(W=1.5, D=1.4, L_min=1.2, d_obsmax=1.1, z_obsmax=0.139)
        ob = ObstacleSpec((0, 0), 0.1, 0.05)
        assert cost_cross(ind, ob, W) == pytest.approx(-8.17921, abs=1e-5)

    def test_cross_zero_weight(self):
        ind = FormationIndicators(W=1.5, D=1.4, L_min=1.2, d_obsmax=1.1, z_obsmax=0.139)
        ob = ObstacleSpec((0, 0), 0.1, 0.05)
        assert cost_cross(ind, ob, TINY) == pytest.approx(0.0, abs=1e-290)

    def test_weights_must_be_positive(self):
        with pytest.raises(ValueError):
            CostWeights(l1=0.0)


@pytest.fixture(scope="module")
def carry_start():
    layout = equilateral_layout()
    return equilateral_formation(layout, 1.0)


@pytest.fixture(scope="module")
def low_obstacle_solution(carry_start):
    return optimize_formation(carry_start, ObstacleSpec((0, 0), 0.1, 0.05), 2.0)


@pytest.fixture(scope="module")
def tall_obstacle_solution(carry_start):
    return optimize_formation(carry_start, ObstacleSpec((0, 0), 0.2, 0.2), 2.0)


class TestOptimizeFormation:
    def test_low_obstacle_matches_measured_formation(self, low_obstacle_solution):
        # measured crossing formation: sides 1.04/1.04/1.05 m, height 9.0 cm
        sol = low_obstacle_solution
        assert sol.mode == "crossing"
        assert np.all(np.abs(sides_of(sol.formation) - 1.04) < 0.05)
        assert sol.equilibrium.z == pytest.approx(0.09, abs=2e-3)

    def test_tall_obstacle_matches_measured_formation(self, tall_obstacle_solution):
        # measured crossing formation: sides 1.30/1.29/1.24 m, height 23.4 cm
        sol = tall_obstacle_solution
        assert sol.mode == "crossing"
        assert np.all(np.abs(sides_of(sol.formation) - 1.28) < 0.05)
        assert sol.equilibrium.z == pytest.approx(0.24, abs=2e-3)

    def test_constraints_satisfied_exactly(self, low_obstacle_solution, tall_obstacle_solution):
        for sol, ob in (
            (low_obstacle_solution, ObstacleSpec((0, 0), 0.1, 0.05)),
            (tall_obstacle_solution, ObstacleSpec((0, 0), 0.2, 0.2)),
        ):
            ind = sol.indicators
            assert ind.W <= 2.0 + 1e-9
            assert ob.z_obs <= ind.z_obsmax + 1e-9
            assert ob.d_obs <= ind.d_obsmax + 1e-9
            # taut-cable equality via solver round trip
            eq = solve_equilibrium(sol.formation)
            assert eq.taut_count == sol.formation.n
            assert abs(eq.z - sol.equilibrium.z) < 1e-9

    def test_determinism(self, carry_start):
        ob = ObstacleSpec((0, 0), 0.1, 0.05)
        a = optimize_formation(carry_start, ob, 2.0)
        b = optimize_formation(carry_start, ob, 2.0)
        assert np.array_equal(a.formation.robot_positions, b.formation.robot_positions)
        assert a.j_trans == b.j_trans and a.j_cross == b.j_cross

    def test_monotone_improvement(self, triangle_layout):
        # start feasible (side 1.2 clears the low obstacle) and require the
        # search objective not to get worse
        initial = equilateral_formation(triangle_layout, 1.2)
        ob = ObstacleSpec((0, 0), 0.1, 0.05)
        safety = SafetyParams()
        sol = optimize_formation(initial, ob, 2.0)

        def search_objective(formation, eq, ind, v_o0):
            j = cost_transport(formation, initial, eq.sheet_contact, v_o0, W)
            j += -W.l3 * (2.0 - ind.W) ** 2
            j += W.l4 * (ind.z_obsmax - ob.z_obs) ** 2
            j += W.l5 * max(ob.d_obs - ind.d_obsmax, 0.0) ** 2
            return j

        eq0 = solve_equilibrium(initial)
        ind0 = indicators(initial, eq0.z, safety)
        j0 = search_objective(initial, eq0, ind0, eq0.sheet_contact)
        j1 = search_objective(sol.formation, sol.equilibrium, sol.indicators,
                              eq0.sheet_contact)
        assert j1 <= j0 + 1e-9

    def test_weight_sensitivity_direction(self, carry_start):
        # raising the height-penalty weight never lowers the achieved clearance
        ob = ObstacleSpec((0, 0), 0.1, 0.05)
        z1 = optimize_formation(carry_start, ob, 2.0, CostWeights()).indicators.z_obsmax
        z2 = optimize_formation(
            carry_start, ob, 2.0, CostWeights(l4=20.0)
        ).indicators.z_obsmax
        assert z2 >= z1 - 1e-9

    def test_infeasible_obstacle(self, carry_start):
        # taller than any reachable hang and wider than any side gap, with no
        # room to slip past: nothing works
        ob = ObstacleSpec((0, 0), 0.85, 0.76)
        with pytest.raises(NoFeasibleFormation):
            optimize_formation(carry_start, ob, 2.0)

    def test_bypass_mode(self, carry_start):
        # uncrossably tall but narrow, in a wide corridor: go around it
        ob = ObstacleSpec((0, 0), 0.1, 0.76)
        sol = optimize_formation(carry_start, ob, 4.0)
        assert sol.mode == "bypassing"
        assert sol.indicators.W <= 4.0 - ob.d_obs - 2 * 0.05 + 1e-9

    def test_reported_costs_keep_reward_signs(self, low_obstacle_solution):
        sol = low_obstacle_solution
        ob = ObstacleSpec((0, 0), 0.1, 0.05)
        assert sol.j_pass == pytest.approx(cost_pass(sol.indicators.W, 2.0, W))
        assert sol.j_cross == pytest.approx(cost_cross(sol.indicators, ob, W))
        assert sol.j_pass <= 0 and sol.j_cross <= 0


class TestStackedDecode:
    @given(st.integers(1, 14), st.integers(0, 2**32 - 1), st.sampled_from([1e-3, 0.05, 0.3]))
    @settings(max_examples=25, deadline=None)
    def test_rows_decode_as_alone(self, m, seed, spread):
        """A poll's points decode, stacked, to the bits each gets alone."""
        scenario = load_scenario(CORRIDOR)
        chart = _Chart(scenario.initial_formation, scenario.safety)
        rng = np.random.default_rng(seed)
        points = chart.x0 + rng.normal(0.0, spread, (m, len(chart.x0)))
        ok, robots, contacts, ind = chart.decode(points)
        assert robots.shape == (ok.sum(), chart.layout.n, 2) and contacts.shape == (ok.sum(), 2)
        for k, row in zip(np.cumsum(ok) - 1, range(m)):
            alone = chart.decode(points[row:row + 1])
            assert alone[0].tolist() == [ok[row]]
            if ok[row]:
                assert alone[1].tobytes() == robots[k:k + 1].tobytes()
                assert alone[2].tobytes() == contacts[k:k + 1].tobytes()
                for name in ("W", "D", "L_min", "d_obsmax", "z_obsmax"):
                    assert getattr(alone[3], name).tobytes() == getattr(ind, name)[k:k + 1].tobytes()


def sequential_search(x, fun, budget, steps0):
    """The pattern search probing one point at a time, as it was before the
    polls were stacked: the reference the stacked search must replay."""
    steps = np.array(steps0, dtype=float)
    f0 = fun(x)
    used = 1
    while used < budget and float(np.max(steps)) > STEP_MIN:
        improved = False
        for d in range(len(x)):
            for sign in (1.0, -1.0):
                if used >= budget:
                    break
                x_try = x.copy()
                x_try[d] += sign * steps[d]
                f_try = fun(x_try)
                used += 1
                if f_try < f0 - 1e-15:
                    x, f0 = x_try, f_try
                    improved = True
                    break
        if not improved:
            steps *= 0.5
    return x, f0, used


def synthetic_objective(center, scale, salt):
    """A coarse bowl around `center` plus hashed noise of 0 to 7 units of 2e-16.

    Some points score inf, and the noise makes many improvements fall within
    1e-15 of the incumbent, on either side of the acceptance threshold.
    """
    def fun(x):
        h = hashlib.sha256(salt + x.tobytes()).digest()
        if h[0] % 7 == 0:
            return np.inf
        bowl = float(np.round(scale * np.sum((x - center) ** 2), 3))
        return 1.0 + bowl + 2e-16 * (h[1] % 8)
    return fun


class TestStackedPolls:
    @given(st.integers(1, 6), st.integers(1, 120), st.integers(0, 2**32 - 1),
           st.sampled_from([0.0, 1e-3, 1.0]))
    @settings(max_examples=150, deadline=None)
    def test_replays_the_sequential_search(self, dims, budget, seed, scale):
        rng = np.random.default_rng(seed)
        x0 = rng.uniform(-1, 1, dims)
        steps0 = rng.choice([1e-4, 0.05, 0.1, 0.3], dims)
        fun = synthetic_objective(rng.uniform(-1, 1, dims), scale, seed.to_bytes(4, "little"))
        calls = []

        def stacked(points):
            calls.append(len(points))
            return np.array([fun(x) for x in points])

        x, f, used = _pattern_search(x0.copy(), stacked, budget, steps0)
        x_ref, f_ref, used_ref = sequential_search(x0.copy(), fun, budget, steps0)
        assert x.tobytes() == x_ref.tobytes()
        assert f == f_ref or (np.isinf(f) and np.isinf(f_ref))
        assert type(used) is int and used == used_ref
        # the stacks cover every probe the sequential search counts, and a
        # poll holds at most the 2 * dims probes of one sweep
        assert sum(calls) >= used and max(calls) <= 2 * dims

    def test_budget_cut_mid_sweep(self):
        # every probe improves by a little: the search spends the whole
        # budget, and the last poll is cut to the budget that is left
        calls = []

        def stacked(points):
            calls.append(len(points))
            return -np.sum(points, axis=1)

        x, f, used = _pattern_search(np.zeros(3), stacked, 10, np.full(3, 0.1))
        x_ref, f_ref, used_ref = sequential_search(
            np.zeros(3), lambda x: -np.sum(x), 10, np.full(3, 0.1))
        assert used == used_ref == 10
        assert x.tobytes() == x_ref.tobytes() and f == f_ref
        assert calls[-1] < 6


def _solutions(path):
    """(mode, evaluations, formation sha256) of every optimizer call of a run."""
    found = []
    optimize = pipeline.optimize_formation

    def recorded(*args, **kwargs):
        solution = optimize(*args, **kwargs)
        found.append((solution.mode, solution.evaluations, hashlib.sha256(
            solution.formation.robot_positions.tobytes()).hexdigest()))
        return solution

    with mock.patch.object(pipeline, "optimize_formation", recorded):
        run_pipeline(load_scenario(path))
    return found


@pytest.mark.parametrize("path, expected", [
    (CORRIDOR, [
        ("crossing", 445, "2471beafc76173a23297cb3a95abc2b52336b34bb51739ceaa137e96cd48f433"),
        ("crossing", 371, "01e3d4844ea7f8212a6c795301076a5412cc6a21e7ca3479804bd0cce0c23db1"),
    ]),
    (TURNED, [
        ("crossing", 462, "7a456c9e7c3e6347bb232afd7a20b3008beba04b8c1e4ae3701aaf41908144b5"),
        ("crossing", 500, "ddeef387ce10568cd1ecb38afbbc53cff243d0a0c6067bfe52822be9723d2d04"),
    ]),
], ids=["corridor", "turned_corridor"])
def test_evaluations_per_obstacle(path, expected):
    # every optimizer result of the shipped scenarios, pinned to the byte;
    # the last obstacle of turned_corridor spends the whole budget, so the
    # budget cut of a stacked poll is live on the shipped scenarios
    assert _solutions(path) == expected
    assert EVAL_BUDGET == 500


def _stretched_start(path, over=1.0):
    """The scenario's initial formation scaled about its centroid until its
    tightest pair sits at sheet spacing (stretch 0.0), then by `over`."""
    scenario = load_scenario(path)
    initial = scenario.initial_formation
    c = initial.centroid()
    scale = over * np.min(pair_distances(initial.layout.holding_points)
                          / pair_distances(initial.robot_positions))
    return scenario, Formation(c + scale * (initial.robot_positions - c), initial.layout)


@pytest.mark.parametrize("path, evaluations, digest", [
    (CORRIDOR, 375, "ac47db2d8c0d0617d2738d57ea8239d110b51524aefbe8a4b736cb0abe5366b7"),
    (TURNED, 500, "c1c7d5b0b07295a4f249197f01c88255db84ea7d62f31414dd8d267855dc394b"),
], ids=["corridor", "turned_corridor"])
def test_stretched_start_shrinks(path, evaluations, digest):
    # a start at sheet spacing has no all-taut chart point, so the optimizer
    # starts from a uniformly shrunk copy; its result is pinned to the byte
    scenario, start = _stretched_start(path)
    assert start.stretch() == 0.0
    chart = _Chart(start, scenario.safety)
    ok, robots, _, _ = chart.decode(chart.x0[None])
    assert ok.tolist() == [False] and robots.shape == (0, start.n, 2)
    obstacle = scenario.obstacles[0]
    w_convex = scenario.corridor.width_at(scenario.corridor.project(obstacle.center))
    sol = optimize_formation(start, obstacle, w_convex, scenario.weights, scenario.safety)
    assert sol.mode == "crossing"
    assert sol.evaluations == evaluations
    assert hashlib.sha256(sol.formation.robot_positions.tobytes()).hexdigest() == digest


def test_infeasible_start_shrinks_or_raises():
    # a start stretched past the sheet has no equilibrium: the optimizer
    # starts from the first shrunk copy that has one, or raises when none of
    # the 50 shrinks by 0.95 does
    scenario, start = _stretched_start(CORRIDOR, 1.05)
    obstacle = scenario.obstacles[0]
    with pytest.raises(InfeasibleFormation):
        solve_equilibrium(start)
    sol = optimize_formation(start, obstacle, 2.0, scenario.weights, scenario.safety)
    assert (sol.mode, sol.evaluations) == ("crossing", 388)
    assert hashlib.sha256(sol.formation.robot_positions.tobytes()).hexdigest() == (
        "4f3f493156a54c0699b714666a276665e746b9d386f62a69f805b4f741e1d062")
    _, hopeless = _stretched_start(CORRIDOR, 30.0)
    with pytest.raises(NoFeasibleFormation, match="uniform shrinking"):
        optimize_formation(hopeless, obstacle, 2.0, scenario.weights, scenario.safety)
