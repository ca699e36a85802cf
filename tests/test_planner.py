"""Side selection, the piecewise crossing path, and local plan timelines."""
from dataclasses import replace

import numpy as np
import pytest

from sheetplan import (
    CrossingSchedule,
    Formation,
    InvalidSchedule,
    ObstacleSpec,
    PlanInfeasible,
    SafetyParams,
    SheetLayout,
    ValidationError,
    crossing_pose,
    optimize_formation,
    plan_local,
    select_sides,
)
from sheetplan.planner import outward_normals, wrap_angle

from conftest import equilateral_formation, equilateral_layout, regular_polygon


def make_schedule(theta1, theta2, T1, T2, T3, T4, v=0.1):
    return CrossingSchedule(
        theta1=theta1, theta2=theta2, T1=T1, T2=T2, T3=T3, T4=T4, v=v,
        entering_side=0, exiting_side=0,
        n_in=np.array([1.0, 0.0]), n_out=np.array([1.0, 0.0]),
    )


class TestSelectSides:
    def test_aligned_side_needs_no_rotation(self, triangle_layout):
        # one outward normal already points along the approach
        f = equilateral_formation(triangle_layout, 1.0, phase=np.deg2rad(60))
        entering, exiting, theta1, theta2 = select_sides(f, (1, 0), (1, 0))
        assert theta1 == pytest.approx(0.0, abs=1e-12)
        assert theta2 == pytest.approx(0.0, abs=1e-12)
        assert entering == exiting

    def test_small_offset(self, triangle_layout):
        f = equilateral_formation(triangle_layout, 1.0, phase=np.deg2rad(66))
        _, _, theta1, theta2 = select_sides(f, (1, 0), (1, 0))
        assert np.rad2deg(theta1) == pytest.approx(-6.0, abs=1e-9)
        assert theta2 == pytest.approx(0.0, abs=1e-12)

    def test_square_tie_breaks_to_lower_index(self):
        layout = SheetLayout(regular_polygon(4, 1.6 / np.sqrt(2), phase=0.0), 0.79)
        f = Formation(regular_polygon(4, 1.0 / np.sqrt(2), phase=0.0), layout)
        normals = outward_normals(f.robot_positions)
        angles = np.rad2deg([np.arctan2(n[1], n[0]) for n in normals])
        assert sorted(np.round(angles).astype(int)) == [-135, -45, 45, 135]
        entering, _, theta1, _ = select_sides(f, (1, 0), (1, 0))
        assert entering == 0                      # |+-45| tie -> lowest index
        assert abs(np.rad2deg(abs(theta1)) - 45.0) < 1e-9

    def test_turned_departure(self, triangle_layout):
        f = equilateral_formation(triangle_layout, 1.0, phase=np.deg2rad(60))
        entering, exiting, theta1, theta2 = select_sides(f, (1, 0), (0, 1))
        # total rotation aligns the exit normal with +y
        n_out = outward_normals(f.robot_positions)[exiting]
        total = np.arctan2(n_out[1], n_out[0]) + theta1 + theta2
        assert wrap_angle(total - np.pi / 2) == pytest.approx(0.0, abs=1e-12)


class TestCrossingPath:
    def test_first_rotation_interpolates(self):
        s = make_schedule(np.deg2rad(6.0), 0.0, 1.0, 3.0, 3.0, 6.0)
        x, theta = crossing_pose(s, 0.5)
        assert x == 0.0
        assert np.rad2deg(theta) == pytest.approx(3.0, abs=1e-12)

    def test_segment_boundary_t2(self):
        s = make_schedule(np.deg2rad(6.0), 0.0, 1.0, 3.0, 3.0, 6.0)
        x, theta = crossing_pose(s, 3.0)
        assert x == pytest.approx(s.v * s.delta_T, abs=1e-15)
        assert theta == pytest.approx(s.theta1, abs=1e-15)

    def test_full_schedule_final_state(self):
        # theta1 = 6 deg, theta2 = -6 deg: final heading 0, final advance
        # v * (T4 + delta_T - T3)
        s = make_schedule(np.deg2rad(6.0), np.deg2rad(-6.0), 1.0, 3.0, 3.5, 6.0)
        x, theta = crossing_pose(s, 6.0)
        assert theta == pytest.approx(0.0, abs=1e-15)
        assert x == pytest.approx(0.1 * (6.0 + 2.0 - 3.5), abs=1e-15)

    def test_continuity_at_boundaries(self):
        s = make_schedule(np.deg2rad(20.0), np.deg2rad(-35.0), 1.3, 4.1, 5.7, 9.2)
        for T in (s.T1, s.T2, s.T3):
            x_lo, th_lo = crossing_pose(s, T - 1e-13)
            x_hi, th_hi = crossing_pose(s, T + 1e-13)
            assert abs(x_hi - x_lo) < 1e-12
            assert abs(th_hi - th_lo) < 1e-12

    def test_closed_form_random_times(self):
        # sampled values must equal the piecewise expression everywhere
        s = make_schedule(np.deg2rad(14.0), np.deg2rad(9.0), 0.9, 3.7, 4.9, 8.3)
        rng = np.random.default_rng(12)
        dT = s.delta_T
        for t in rng.uniform(0.0, s.T4, 2000):
            x, theta = crossing_pose(s, t)
            if t <= s.T1:
                expect = (0.0, s.theta1 * t / s.T1)
            elif t <= s.T2:
                expect = (s.v * (t - s.T1), s.theta1)
            elif t <= s.T3:
                expect = (s.v * dT, s.theta1 + s.theta2 * (t - s.T2) / (s.T3 - s.T2))
            else:
                expect = (s.v * (t + dT - s.T3), s.theta1 + s.theta2)
            assert x == pytest.approx(expect[0], abs=1e-12)
            assert theta == pytest.approx(expect[1], abs=1e-12)

    def test_pose_holds_after_t4(self):
        s = make_schedule(np.deg2rad(14.0), np.deg2rad(9.0), 0.9, 3.7, 4.9, 8.3)
        assert crossing_pose(s, s.T4 + 2.5) == crossing_pose(s, s.T4)

    def test_invalid_schedule(self):
        with pytest.raises(InvalidSchedule):
            make_schedule(0.1, 0.0, 2.0, 1.0, 3.0, 4.0)

    @pytest.mark.parametrize("v", [0.0, np.nan, np.inf])
    def test_speed_must_be_positive_and_finite(self, v):
        with pytest.raises(InvalidSchedule, match="translation speed"):
            make_schedule(0.1, 0.0, 1.0, 2.0, 3.0, 4.0, v=v)


@pytest.fixture(scope="module")
def bypass_solution():
    layout = equilateral_layout()
    initial = equilateral_formation(layout, 1.0, phase=np.deg2rad(60))
    obstacle = ObstacleSpec((0.0, 0.0), 0.1, 0.76)    # too tall to cross
    return optimize_formation(initial, obstacle, 4.0), obstacle


@pytest.fixture(scope="module")
def crossing_plan():
    layout = equilateral_layout()
    initial = equilateral_formation(layout, 1.0, phase=np.deg2rad(60))
    obstacle = ObstacleSpec((0.0, 0.0), 0.1, 0.05)
    solution = optimize_formation(initial, obstacle, 2.0)
    timeline = plan_local(solution, obstacle, 2.0, dt=0.1, v=0.1)
    return solution, obstacle, timeline


class TestPlanLocal:
    def test_crossing_clearances(self, crossing_plan):
        solution, obstacle, tl = crossing_plan
        safety = SafetyParams()
        assert tl.mode == "crossing"
        for k in range(len(tl)):
            d = np.linalg.norm(tl.robots[k] - obstacle.center, axis=1)
            assert np.min(d) >= obstacle.radius + safety.delta_r - 1e-9
            horiz = np.linalg.norm(tl.objects[k, :2] - obstacle.center)
            if horiz <= obstacle.radius + safety.delta_r:
                assert tl.objects[k, 2] - obstacle.z_obs >= safety.z_safe - 1e-9

    def test_rigid_during_crossing(self, crossing_plan):
        _, _, tl = crossing_plan
        base = None
        for k in range(len(tl)):
            got = np.array([
                np.linalg.norm(tl.robots[k, i] - tl.robots[k, j])
                for i in range(3) for j in range(i + 1, 3)
            ])
            if base is None:
                base = got
            assert np.max(np.abs(got - base)) < 1e-12

    def test_heading_goal(self, crossing_plan):
        solution, _, tl = crossing_plan
        s = tl.schedule
        assert tl.poses[-1, 2] == s.theta1 + s.theta2

    def test_taut_throughout(self, crossing_plan):
        _, _, tl = crossing_plan
        assert np.all(tl.taut)

    def test_zero_size_obstacle_trivial(self):
        layout = equilateral_layout()
        initial = equilateral_formation(layout, 1.0, phase=np.deg2rad(60))
        obstacle = ObstacleSpec((0.0, 0.0), 0.0, 0.0)
        solution = optimize_formation(initial, obstacle, 2.0)
        tl = plan_local(solution, obstacle, 2.0, dt=0.1, v=0.1)
        assert tl.mode == "crossing"
        assert tl.schedule.theta1 == pytest.approx(0.0, abs=1e-12)
        assert tl.schedule.theta2 == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(tl.poses[:, 1], tl.poses[0, 1], atol=1e-12)   # straight

    def test_bypass_clears_laterally(self, bypass_solution):
        solution, obstacle = bypass_solution
        assert solution.mode == "bypassing"
        tl = plan_local(solution, obstacle, 4.0, dt=0.1, v=0.1)
        safety = SafetyParams()
        shift = obstacle.radius + solution.indicators.W / 2 + safety.delta_r
        assert np.max(tl.poses[:, 1]) == pytest.approx(shift, abs=1e-9)
        for k in range(len(tl)):
            d = np.linalg.norm(tl.robots[k] - obstacle.center, axis=1)
            assert np.min(d) >= obstacle.radius + safety.delta_r - 1e-9

    def test_bypass_wider_than_corridor(self, bypass_solution):
        # optimized for 4 m, the outline does not fit beside the obstacle in 2 m
        solution, obstacle = bypass_solution
        with pytest.raises(PlanInfeasible, match="does not fit a corridor of width 2.000"):
            plan_local(solution, obstacle, 2.0, dt=0.1, v=0.1)

    def test_unknown_mode(self, bypass_solution):
        solution, obstacle = bypass_solution
        with pytest.raises(PlanInfeasible, match="no local plan for mode 'infeasible'"):
            plan_local(replace(solution, mode="infeasible"), obstacle, 4.0, dt=0.1, v=0.1)

    @pytest.mark.parametrize("W, message", [
        (-0.5, "object clearance"),     # the shift leaves the object over the obstacle
        (-2.0, "robot clearance"),      # the shift drives a robot into its margin
    ])
    def test_clearances_checked(self, bypass_solution, W, message):
        """A bypass shift sized for a wrong outline width fails on the samples."""
        solution, obstacle = bypass_solution
        solution = replace(solution, indicators=replace(solution.indicators, W=W))
        with pytest.raises(PlanInfeasible, match=message):
            plan_local(solution, obstacle, 4.0, dt=0.1, v=0.1)

    @pytest.mark.parametrize("dw, dz", [(-0.01, 0.0), (0.0, 0.01)])
    def test_crossing_constraints_checked(self, crossing_plan, dw, dz):
        """A corridor narrower than W, or an obstacle taller than z_obsmax."""
        solution, obstacle, _ = crossing_plan
        ind = solution.indicators
        obstacle = ObstacleSpec(obstacle.center, obstacle.radius, ind.z_obsmax + dz)
        with pytest.raises(PlanInfeasible, match="crossing constraints"):
            plan_local(solution, obstacle, ind.W + dw, dt=0.1, v=0.1)

    @pytest.mark.parametrize("field, kwargs", [
        ("v", {"v": 0.0}),
        ("v", {"v": np.nan}),
        ("omega", {"omega": 0.0}),
        ("omega", {"omega": np.inf}),
        ("dt", {"dt": -0.1}),
        ("dt", {"dt": 0.0}),
        ("approach", {"approach": (0.0, 0.0)}),
        ("depart", {"depart": (0.0, 0.0)}),
    ])
    def test_invalid_arguments_rejected(self, crossing_plan, field, kwargs):
        solution, obstacle, _ = crossing_plan
        args = {"dt": 0.1, "v": 0.1, **kwargs}
        with pytest.raises(ValidationError) as err:
            plan_local(solution, obstacle, 2.0, **args)
        assert err.value.field == field
