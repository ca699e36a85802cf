"""End-to-end scenario runs, export formats, and the CLI."""
import hashlib
import json
import os
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from sheetplan import (
    PipelineInfeasible,
    PlanTimeline,
    export_report,
    load_scenario,
    run_pipeline,
    solve_equilibrium,
)
from sheetplan import optimizer
from sheetplan.cli import main as cli_main
from sheetplan.geometry import rotation
from sheetplan.pipeline import RunReport, _build_report, _track_offset
from sheetplan.scenario import parse_scenario

from conftest import BYPASS, CORRIDOR, HEXAGON, OCTAGON, REFERENCE, SCENARIOS, TURNED

# sha256 of the exported files of the shipped scenarios that
# perfbench/reference.json does not cover, recorded at 2e82485; `bypass`
# re-recorded when its bypass began to keep the object z_safe off the ground;
# `octagon_corridor` recorded at c3c9f57
GOLDEN_DIGESTS = {
    "bypass": {
        "height_profile.csv": "e74d0e6cafc5f486712bab2ea77dd2c945e0b49d729c55d99791fd940e9bff2f",
        "metrics.txt": "54508829a65e60042b0e5cd037f35490a0244d35df7a541d1a824addc9fe18f2",
        "pairwise_distances.csv": "dc04d7c580012c92f4b8236874d95786d9e07a1b0b7815239839ae0dbec99f54",
        "trajectory.csv": "cd9b5feabba7ad768710e875b74c3c02452e682497314a4f0294df6d99d6f846",
    },
    "hexagon_corridor": {
        "height_profile.csv": "7cfd8a2c85f38ea9e5df1eafdbd3a21f703d8305a4fa6c117c1fc44c5fc60fcc",
        "metrics.txt": "9f751daa5e24adf778948a29c78725f1a21c0a19bf069b06d9905d56b35e5763",
        "pairwise_distances.csv": "ee657ec24d66414f56009f4880abdf3558bd6510566281a9c140c1014a1d85ed",
        "trajectory.csv": "851c832b7800ffc42e865328d0908979f9d4c4df1798a1ae8befa38bb26f24c4",
    },
    "octagon_corridor": {
        "height_profile.csv": "10fa94530025d0f7d6d7f7f5f4f4b814374f4e8d8c83f6a5cff985929b016536",
        "metrics.txt": "8675161d06e339578234da03bff6b52d58213d73cdcd175010f6fde44ab5f871",
        "pairwise_distances.csv": "e12ee23f2640862c394f39f8c74fa6758983169e4ed33c9ba77d4c16ab0a1583",
        "trajectory.csv": "c6b0d607bed19a8933674e6f821e872c93ae6f9e50b3aa3f6e26027d92f8dd03",
    },
}

# the module fixture that runs each shipped scenario, where one does
REPORT_FIXTURES = {"corridor": "corridor_report", "turned_corridor": "turned_report",
                   "bypass": "bypass_report", "hexagon_corridor": "hexagon_report",
                   "octagon_corridor": "octagon_report"}


@pytest.fixture(scope="module")
def corridor_report():
    return run_pipeline(load_scenario(CORRIDOR))


@pytest.fixture(scope="module")
def turned_report():
    return run_pipeline(load_scenario(TURNED))


@pytest.fixture(scope="module")
def bypass_report():
    return run_pipeline(load_scenario(BYPASS))


@pytest.fixture(scope="module")
def hexagon_report():
    return run_pipeline(load_scenario(HEXAGON))


@pytest.fixture(scope="module")
def octagon_report():
    return run_pipeline(load_scenario(OCTAGON))


@pytest.mark.parametrize("warm, path, ceiling_mb", [
    ("corridor_report", CORRIDOR, 0.45), ("turned_report", TURNED, 0.75),
], ids=["corridor", "turned_corridor"])
def test_memory_budget(warm, path, ceiling_mb, request):
    # the traced heap of a warm run may rise above its start by a fixed
    # amount only: 0.20 and 0.25 MB before the optimizer's polls were
    # stacked, and a larger transient peak shows up as peak RSS
    request.getfixturevalue(warm)
    scenario = load_scenario(path)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        run_pipeline(scenario)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - start) / 2**20 <= ceiling_mb


class TestCorridorRun:
    def test_both_obstacles_crossed(self, corridor_report):
        assert corridor_report.obstacle_modes == ("crossed", "crossed")

    def test_entry_and_exit_angles(self, corridor_report):
        for theta1, theta2, exit_angle in corridor_report.crossing_angles:
            assert abs(np.rad2deg(theta1)) <= 30.0
            assert abs(exit_angle) < 1e-9
        # the rotated initial carry needs the 6-degree alignment turn
        assert np.rad2deg(corridor_report.crossing_angles[0][0]) == pytest.approx(-6.0, abs=1e-6)

    def test_crossing_heights(self, corridor_report):
        tl = corridor_report.timeline
        for ob_x, expect in ((2.2, 0.09), (4.2, 0.24)):
            near = np.abs(tl.objects[:, 0] - ob_x) <= 0.15
            assert np.min(tl.objects[near, 2]) == pytest.approx(expect, abs=2e-3)
            assert np.max(tl.objects[near, 2]) == pytest.approx(expect, abs=2e-3)

    def test_final_object_on_goal(self, corridor_report):
        r = corridor_report
        assert np.linalg.norm(r.final_object[:2] - r.goal) <= 2 * 0.1 * 0.1

    def test_robot_clearance(self, corridor_report):
        assert corridor_report.min_horizontal_clearance >= 0.05 - 1e-9

    def test_sample_continuity(self, corridor_report):
        tl = corridor_report.timeline
        steps = np.linalg.norm(np.diff(tl.robots, axis=0), axis=2)
        offsets = tl.robots[0] - tl.poses[0, :2]
        r_max = float(np.max(np.linalg.norm(offsets, axis=1)))
        bound = 0.1 * 0.1 + r_max * 0.2 * 0.1 + 1e-9
        assert float(np.max(steps)) <= bound

    def test_uniform_time_grid(self, corridor_report):
        t = corridor_report.timeline.times
        assert np.allclose(np.diff(t), 0.1, atol=1e-12)

    def test_determinism_byte_identical(self, tmp_path):
        scenario = load_scenario(CORRIDOR)
        paths_a = export_report(run_pipeline(scenario), tmp_path / "a")
        paths_b = export_report(run_pipeline(scenario), tmp_path / "b")
        for a, b in zip(paths_a, paths_b):
            with open(a, "rb") as fa, open(b, "rb") as fb:
                assert fa.read() == fb.read()


@pytest.mark.parametrize("scenario", SCENARIOS,
                         ids=lambda p: f"{REPORT_FIXTURES.get(p.stem, 'run')}-{p.stem}")
def test_golden_outputs(scenario, request, tmp_path):
    """Every exported file of every shipped scenario matches the sha256
    recorded in the reference or, failing that, in GOLDEN_DIGESTS."""
    name = scenario.stem
    with open(REFERENCE) as fh:
        recorded = {**GOLDEN_DIGESTS, **json.load(fh)["outputs"]}
    assert name in recorded, f"no golden digests recorded for scenarios/{scenario.name}"
    fixture = REPORT_FIXTURES.get(name)
    report = request.getfixturevalue(fixture) if fixture else run_pipeline(load_scenario(scenario))
    digests = {}
    for path in export_report(report, tmp_path / name):
        with open(path, "rb") as fh:
            digests[os.path.basename(path)] = hashlib.sha256(fh.read()).hexdigest()
    assert digests == recorded[name]


@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda p: p.stem)
def test_object_stays_off_the_ground(scenario, request):
    # the object of every shipped plan hangs at least z_safe above the
    # ground at every sample, through a bypass as over an obstacle
    fixture = REPORT_FIXTURES.get(scenario.stem)
    loaded = load_scenario(scenario)
    report = request.getfixturevalue(fixture) if fixture else run_pipeline(loaded)
    assert np.all(report.timeline.objects[:, 2] >= loaded.safety.z_safe - 1e-9)


class TestTurnedCorridorRun:
    def test_both_crossed(self, turned_report):
        assert turned_report.obstacle_modes == ("crossed", "crossed")

    def test_final_heading_aligns_with_vertical_leg(self, turned_report):
        # the second crossing's exit normal coincides with the +y centerline
        theta1, theta2, exit_angle = turned_report.crossing_angles[1]
        assert abs(exit_angle) < 1e-9

    def test_first_crossing_unwinds_the_tilt(self, turned_report):
        theta1, _, _ = turned_report.crossing_angles[0]
        assert np.rad2deg(theta1) == pytest.approx(-20.0, abs=1e-6)

    def test_object_reaches_goal(self, turned_report):
        r = turned_report
        assert np.linalg.norm(r.final_object[:2] - r.goal) <= 2 * 0.1 * 0.1


class TestExport:
    def test_files_and_row_counts(self, corridor_report, tmp_path):
        paths = export_report(corridor_report, tmp_path / "out")
        names = [os.path.basename(p) for p in paths]
        assert names == ["trajectory.csv", "metrics.txt", "height_profile.csv",
                         "pairwise_distances.csv"]
        with open(paths[0]) as fh:
            lines = fh.read().splitlines()
        expected_cols = 1 + 2 * 3 + 3 + 2 + 1 + 3
        assert lines[0].count(",") == expected_cols - 1
        assert len(lines) - 1 == len(corridor_report.timeline)
        duration = corridor_report.timeline.times[-1]
        assert len(lines) - 1 == int(round(duration / 0.1)) + 1

    def test_report_consistency_with_table(self, corridor_report, tmp_path):
        """Recompute the clearance metrics from the exported table alone."""
        paths = export_report(corridor_report, tmp_path / "check")
        data = np.genfromtxt(paths[0], delimiter=",", names=True)
        scenario = load_scenario(CORRIDOR)
        min_horiz = np.inf
        min_vert = np.inf
        for ob in scenario.obstacles:
            for i in (1, 2, 3):
                d = np.hypot(data[f"x_r{i}"] - ob.center[0], data[f"y_r{i}"] - ob.center[1])
                min_horiz = min(min_horiz, float(np.min(d)) - ob.radius)
            over = np.hypot(data["x_o"] - ob.center[0], data["y_o"] - ob.center[1]) \
                <= ob.radius + scenario.safety.delta_r
            if np.any(over):
                min_vert = min(min_vert, float(np.min(data["z_o"][over])) - ob.height)
        assert min_horiz == pytest.approx(corridor_report.min_horizontal_clearance, abs=1e-9)
        if np.isfinite(corridor_report.min_vertical_clearance):
            assert min_vert == pytest.approx(corridor_report.min_vertical_clearance, abs=1e-9)

    def test_pairwise_distance_plateaus(self, corridor_report, tmp_path):
        # crossing segments hold the optimized side lengths: one plateau near
        # 1.04 m and one near 1.28 m must both appear
        paths = export_report(corridor_report, tmp_path / "plateau")
        data = np.genfromtxt(paths[3], delimiter=",", names=True)
        d12 = data["d_1_2"]
        assert np.any(np.abs(d12 - 1.044) < 5e-3)
        assert np.any(np.abs(d12 - 1.2855) < 5e-3)

    def test_empty_timeline_header_only(self, tmp_path):
        tl = PlanTimeline(
            times=np.zeros(0), poses=np.zeros((0, 3)), robots=np.zeros((0, 3, 2)),
            objects=np.zeros((0, 3)), contacts=np.zeros((0, 2)),
            taut=np.zeros((0, 3), dtype=bool), mode="pipeline",
        )
        report = RunReport(
            scenario_name="empty", timeline=tl, obstacle_modes=(),
            crossing_angles=(), min_vertical_clearance=np.inf,
            min_horizontal_clearance=np.inf, robot_path_lengths=np.zeros(3),
            centerline_rmse=0.0, final_object=np.zeros(3), goal=np.zeros(2),
        )
        paths = export_report(report, tmp_path / "empty")
        # the headers carry the team size of the (0, 3, 2) robot array
        with open(paths[0]) as fh:
            assert fh.read() == ("t,x_r1,y_r1,x_r2,y_r2,x_r3,y_r3,x_o,y_o,z_o,x_vo,y_vo,theta,"
                                 "taut_1,taut_2,taut_3\n")
        for path, header in ((paths[2], "t,z_o\n"), (paths[3], "t,d_1_2,d_1_3,d_2_3\n")):
            with open(path) as fh:
                assert fh.read() == header
        with open(paths[1]) as fh:
            assert "duration = 0\n" in fh.read()


class TestExportErrors:
    def test_unwritable_directory(self, corridor_report):
        from sheetplan import IoError

        with pytest.raises(IoError):
            export_report(corridor_report, "/proc/definitely/not/writable")


class TestInfeasiblePipeline:
    def test_impassable_obstacle(self):
        text = open(CORRIDOR).read().replace(
            "obstacle = 2.2 0.0 0.1 0.05", "obstacle = 2.2 0.0 0.85 0.76"
        )
        scenario = parse_scenario(text)
        with pytest.raises(PipelineInfeasible) as err:
            run_pipeline(scenario)
        assert err.value.obstacle_index == 0

    def test_crossing_without_channel(self, tmp_path, capsys):
        # the optimizer picks a crossing, but no robot-free channel through
        # the formation is wide enough for this obstacle's margin disc
        text = open(CORRIDOR).read()
        for old, new in (
            ("obstacle = 2.2 0.0 0.1 0.05\n", ""),
            ("obstacle = 4.2 0.0 0.2 0.2", "obstacle = 2.2 0.0 0.2 0.02"),
        ):
            assert old in text
            text = text.replace(old, new)
        with pytest.raises(PipelineInfeasible) as err:
            run_pipeline(parse_scenario(text))
        assert err.value.obstacle_index == 0
        assert "no robot-free channel" in str(err.value)
        f = tmp_path / "no_channel.txt"
        f.write_text(text)
        assert cli_main(["plan", str(f), "--out", str(tmp_path / "x")]) == 2
        assert "infeasible: obstacle 0" in capsys.readouterr().err


def loop_track_offset(ys, margin):
    """The channel choice as a loop over the gaps between sorted projections:
    the offset closest to the centroid line, ties toward +y, None if none."""
    ys = sorted(ys)
    candidates = []
    for a, b in zip(ys, ys[1:]):
        lo, hi = a + margin, b - margin
        if hi < lo:
            continue
        candidates.append(float(np.clip(0.0, lo, hi)))
    if not candidates:
        return None
    return min(candidates, key=lambda y: (abs(y), -np.sign(y)))


class TestTrackOffset:
    def test_matches_the_loop(self):
        rng = np.random.default_rng(3)
        found = set()
        for _ in range(2000):
            n = int(rng.integers(3, 9))
            pts_in, pts_out = rng.normal(0.0, 0.5, (2, n, 2))
            angle = rng.uniform(0, 2 * np.pi)
            lateral = np.array([np.cos(angle), np.sin(angle)])
            margin = rng.uniform(0.0, 0.4)
            got = _track_offset(pts_in, pts_out, lateral, margin)
            want = loop_track_offset([*(pts_in @ lateral), *(pts_out @ lateral)], margin)
            assert got == want and type(got) is type(want)
            found.add("none" if got is None else "zero" if got == 0.0 else "offset")
        assert found == {"none", "zero", "offset"}

    @pytest.mark.parametrize("ys, margin, want", [
        ([-2.0, -0.2, 0.2, 2.0], 0.5, 0.7),          # a tie: toward +y
        ([-2.0, -0.2, 0.3, 2.0], 0.5, -0.7),         # the nearer channel
        ([-0.2, 0.4, 1.0, 2.0], 0.1, 0.0),           # the centroid line is free
        ([-1.0, -0.3, 0.3, 1.0], 0.5, None),         # no channel
    ])
    def test_choice(self, ys, margin, want):
        pts = np.column_stack([np.zeros(4), ys])
        got = _track_offset(pts[:2], pts[2:], np.array([0.0, 1.0]), margin)
        assert got == loop_track_offset(ys, margin)
        if want is None:
            assert got is None
        else:
            assert got == pytest.approx(want, abs=1e-15)


def hand_timeline(robots, objects):
    robots = np.asarray(robots, dtype=float)
    count, n = robots.shape[:2]
    return PlanTimeline(
        times=0.1 * np.arange(count), poses=np.zeros((count, 3)), robots=robots,
        objects=np.asarray(objects, dtype=float), contacts=np.zeros((count, 2)),
        taut=np.ones((count, n), dtype=bool), mode="pipeline",
    )


class TestBuildReport:
    """Clearance and goal checks on hand-built timelines past the two
    corridor obstacles: (2.2, 0) with radius 0.1 and (4.2, 0) with radius 0.2."""

    modes = ("crossed", "crossed")
    angles = (None, None)
    clear_robots = [[3.0, 0.5], [3.0, -0.5], [3.5, 0.0]]

    def test_robot_clearance_names_the_nearest_obstacle(self):
        scenario = load_scenario(CORRIDOR)
        tl = hand_timeline(
            [self.clear_robots, [[4.2, 0.22], [5.0, 0.6], [5.0, -0.6]]],
            [[3.2, 0.0, 0.3], [5.6, 0.0, 0.3]],
        )
        with pytest.raises(PipelineInfeasible) as err:
            _build_report(scenario, tl, self.modes, self.angles)
        assert err.value.obstacle_index == 1
        assert "robot clearance 0.0200" in str(err.value)

    def test_goal_miss_names_no_obstacle(self):
        scenario = load_scenario(CORRIDOR)
        tl = hand_timeline(
            [self.clear_robots, [[4.7, 0.5], [4.7, -0.5], [5.2, 0.0]]],
            [[3.2, 0.0, 0.3], [5.0, 0.0, 0.3]],
        )
        with pytest.raises(PipelineInfeasible) as err:
            _build_report(scenario, tl, self.modes, self.angles)
        assert err.value.obstacle_index is None
        assert "goal" in str(err.value)

    def test_nan_robot_fails_the_clearance_check(self):
        scenario = load_scenario(CORRIDOR)
        tl = hand_timeline(
            [self.clear_robots, [[np.nan, 0.5], [4.7, -0.5], [5.2, 0.0]]],
            [[3.2, 0.0, 0.3], [5.6, 0.0, 0.3]],
        )
        with pytest.raises(PipelineInfeasible, match="robot clearance nan"):
            _build_report(scenario, tl, self.modes, self.angles)

    def test_nan_object_height_fails_the_clearance_check(self):
        scenario = load_scenario(CORRIDOR)
        tl = hand_timeline(
            [self.clear_robots, [[4.7, 0.5], [4.7, -0.5], [5.2, 0.0]]],
            [[2.2, 0.0, np.nan], [5.6, 0.0, 0.3]],
        )
        with pytest.raises(PipelineInfeasible) as err:
            _build_report(scenario, tl, self.modes, self.angles)
        assert err.value.obstacle_index == 0


def bypass_text(width):
    """scenarios/bypass.txt in a corridor of `width` in place of its 4 m."""
    text = open(BYPASS).read()
    assert "corridor_width = 4.0\n" in text
    return text.replace("corridor_width = 4.0\n", f"corridor_width = {width}\n")


class TestBypassRun:
    def test_tall_obstacle_is_bypassed(self, bypass_report):
        # a corridor wide enough to go around the obstacle
        scenario, report = load_scenario(BYPASS), bypass_report
        assert report.obstacle_modes == ("bypassed",)
        assert report.min_horizontal_clearance >= scenario.safety.delta_r - 1e-9
        step = scenario.speed * scenario.dt
        assert np.linalg.norm(report.final_object[:2] - report.goal) <= 2 * step

    def test_outline_sized_to_fit_beside_the_obstacle(self):
        # the outline that keeps the object z_safe off the ground is about
        # 1.18 m wide, so 2.7 m is the narrowest tenth of a metre that leaves
        # it room beside the obstacle (2 m admits no bypass): the robots stay
        # in the corridor and the object off the ground
        scenario = parse_scenario(bypass_text(2.7))
        report = run_pipeline(scenario)
        assert report.obstacle_modes == ("bypassed",)
        assert report.min_horizontal_clearance >= scenario.safety.delta_r - 1e-9
        assert np.max(np.abs(report.timeline.robots[..., 1])) <= 1.35
        assert np.min(report.timeline.objects[:, 2]) >= scenario.safety.z_safe - 1e-9

    def test_object_on_the_ground_is_named(self):
        # without its ground term the bypass program lays the object on the
        # floor; the report names the first sample below z_safe
        full = optimizer.bypass_constraints
        with mock.patch.object(optimizer, "bypass_constraints", lambda *args: full(*args)[:1]), \
                pytest.raises(PipelineInfeasible) as caught:
            run_pipeline(load_scenario(BYPASS))
        assert str(caught.value) == ("object 0.0341 m above the ground, below z_safe, "
                                     "at t = 10.60 s")

    def test_no_bypass_fits(self, tmp_path, capsys):
        # 1.9 m leaves too little room beside the obstacle for any outline:
        # the optimizer says so, before any maneuver is planned
        path = tmp_path / "narrow.txt"
        path.write_text(bypass_text(1.9))
        assert cli_main(["plan", str(path), "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err.startswith(
            "infeasible: obstacle 0: obstacle (d=0.200, z=0.760) admits no crossing "
            "or bypassing formation within corridor width 1.900")


    def test_off_centre_bypass_stays_in_the_walls(self, tmp_path, capsys):
        # the bypass shifts the team to the obstacle's +y side: with the
        # obstacle 1 m off the centreline that puts robot 0 at y = 2.232 m,
        # past the 2 m half width, and the run names the obstacle (exit 2)
        path = tmp_path / "off_centre.txt"
        path.write_text(bypass_text(4.0).replace("obstacle = 3.5 0.0", "obstacle = 3.5 1.0"))
        assert cli_main(["plan", str(path), "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err == (
            "infeasible: robot 0 is 0.2320 m past the corridor wall at t = 23.90 s "
            "(near obstacle 0)\n")
        assert not (tmp_path / "x").exists()


class TestCli:
    def test_validate(self, capsys):
        assert cli_main(["validate", CORRIDOR]) == 0
        assert "OK" in capsys.readouterr().out

    def test_validate_bad_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("sheet_height = -1\n")
        assert cli_main(["validate", str(bad)]) == 1

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("line, edit, field", [
        ("sheet_point = 1.6 0.0", "sheet_point = 1e300 0.0", "sheet_point"),
        ("corridor_point = 6.0 0.0", "corridor_point = 1e300 0.0", "corridor_point"),
        ("robot = 0.125812516 -0.060349536", "robot = 1e300 -0.060349536", "robot"),
    ])
    @pytest.mark.parametrize("command", ["validate", "plan"])
    def test_huge_coordinates_name_their_field(self, command, line, edit, field,
                                               tmp_path, capsys):
        # finite but huge: the pair distances or segment lengths overflow,
        # which is a named error, with no numpy warning before it
        with open(CORRIDOR, encoding="utf-8") as fh:
            text = fh.read()
        assert line in text
        path = tmp_path / "huge.txt"
        path.write_text(text.replace(line, edit))
        assert cli_main([command, str(path), "--out", str(tmp_path / "o")][
            :None if command == "plan" else 2]) == 1
        assert capsys.readouterr().err.startswith(f"error: {field}:")

    def test_plan_writes_outputs(self, tmp_path, capsys):
        rc = cli_main(["plan", CORRIDOR, "--out", str(tmp_path / "run")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "crossed crossed" in out
        assert (tmp_path / "run" / "trajectory.csv").exists()
        assert (tmp_path / "run" / "metrics.txt").exists()

    def test_plan_with_overrides(self, tmp_path, capsys):
        rc = cli_main(["plan", CORRIDOR, "--out", str(tmp_path / "o"),
                       "--dt", "0.2", "--speed", "0.12"])
        assert rc == 0
        import numpy as np
        data = np.genfromtxt(tmp_path / "o" / "trajectory.csv",
                             delimiter=",", names=True)
        assert np.allclose(np.diff(data["t"]), 0.2, atol=1e-12)

    @pytest.mark.parametrize("flag, value", [
        ("--dt", "0"), ("--dt", "-0.1"), ("--dt", "nan"), ("--speed", "0"),
    ])
    def test_bad_override_names_its_field(self, flag, value, tmp_path, capsys):
        rc = cli_main(["plan", CORRIDOR, "--out", str(tmp_path / "o"), flag, value])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(f"error: {flag[2:]}:")
        assert "Traceback" not in err

    def test_plan_goal_at_start(self, tmp_path, capsys):
        # no obstacles and the object already on the goal: one zero-length
        # transit leg, sampled once
        start = solve_equilibrium(load_scenario(CORRIDOR).initial_formation).horizontal
        text = open(CORRIDOR).read()
        for old, new in (
            ("obstacle = 2.2 0.0 0.1 0.05\n", ""),
            ("obstacle = 4.2 0.0 0.2 0.2\n", ""),
            ("goal = 5.6 0.0", "goal = {!r} {!r}".format(*start.tolist())),
        ):
            assert old in text
            text = text.replace(old, new)
        path = tmp_path / "at_goal.txt"
        path.write_text(text)
        assert cli_main(["plan", str(path), "--out", str(tmp_path / "o")]) == 0
        assert "no obstacles" in capsys.readouterr().out
        with open(tmp_path / "o" / "metrics.txt") as fh:
            assert "samples = 1\n" in fh.read()

    def test_plan_infeasible_exit_code(self, tmp_path):
        text = open(CORRIDOR).read().replace(
            "obstacle = 2.2 0.0 0.1 0.05", "obstacle = 2.2 0.0 0.85 0.76"
        )
        f = tmp_path / "impossible.txt"
        f.write_text(text)
        assert cli_main(["plan", str(f), "--out", str(tmp_path / "x")]) == 2

    def test_kinematics(self, tmp_path, capsys):
        text = "\n".join(
            line for line in open(CORRIDOR).read().splitlines()
            if line.startswith(("sheet", "robot"))
        )
        f = tmp_path / "formation.txt"
        f.write_text(text)
        assert cli_main(["kinematics", "--formation", str(f)]) == 0
        out = capsys.readouterr().out
        assert "object_position" in out
        assert "taut_count = 3" in out

    @pytest.mark.parametrize("sheet, height, robots, line", [
        # the sheet itself, turned and moved: fully stretched, so it hangs flat
        ([[0.0, 0.0], [1.6, 0.0], [0.8, 1.3856406461]], 0.79,
         lambda v: v @ rotation(0.5).T + [3.0, -1.0], "flat = true"),
        # an obtuse sheet contracted uniformly: the contact pins to its long edge
        ([[0.0, 0.0], [2.0, 0.0], [1.0, 0.25]], 1.29,
         lambda v: v.mean(axis=0) + 0.8 * (v - v.mean(axis=0)), "boundary_contact = true"),
    ], ids=["flat", "boundary_contact"])
    def test_kinematics_flags(self, sheet, height, robots, line, tmp_path, capsys):
        sheet = np.array(sheet)
        f = tmp_path / "formation.txt"
        f.write_text("\n".join([f"sheet_height = {height}"]
                               + [f"sheet_point = {x!r} {y!r}" for x, y in sheet.tolist()]
                               + [f"robot = {x!r} {y!r}" for x, y in robots(sheet).tolist()]))
        assert cli_main(["kinematics", "--formation", str(f)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert {"flat = true", "boundary_contact = true"} & set(out) == {line}

    @pytest.mark.parametrize("formation, printed", [
        # a square team with one robot pulled in: cable 2 goes slack
        (["sheet_height = 0.79", "sheet_point = 0.0 0.0", "sheet_point = 1.2 0.0",
          "sheet_point = 1.2 1.2", "sheet_point = 0.0 1.2", "robot = 0.0 0.0",
          "robot = 1.1 0.0", "robot = 1.1 1.1", "robot = 0.3 0.8"],
         ["object_position = 0.449159664 0.650840336 0.329775356",
          "sheet_contact = 0.357983193 0.842016807",
          "taut_count = 3",
          "cable_1 = taut (geodesic 0.914955884)",
          "cable_2 = slack (geodesic 1.19079159)",
          "cable_3 = taut (geodesic 0.914955884)",
          "cable_4 = taut (geodesic 0.506264687)",
          "# object hangs 46.0 cm below the holding plane"]),
        # the obtuse sheet of `test_kinematics_flags`, contracted by 0.8
        (["sheet_height = 1.29", "sheet_point = 0.0 0.0", "sheet_point = 2.0 0.0",
          "sheet_point = 1.0 0.25", "robot = 0.2 0.01666666666666667",
          "robot = 1.8 0.01666666666666667", "robot = 1.0 0.21666666666666667"],
         ["object_position = 0.678125 0.136197917 0.95191457",
          "sheet_contact = 0.59765625 3.06073124e-17",
          "taut_count = 2",
          "cable_1 = taut (geodesic 0.59765625)",
          "cable_2 = slack (geodesic 1.40234375)",
          "cable_3 = taut (geodesic 0.473688181)",
          "boundary_contact = true",
          "# object hangs 33.8 cm below the holding plane"]),
    ], ids=["slack", "boundary"])
    def test_kinematics_output(self, formation, printed, tmp_path, capsys):
        # every printed line, cable by cable, as recorded when each
        # equilibrium still held a tuple of per-cable records
        f = tmp_path / "formation.txt"
        f.write_text("\n".join(formation))
        assert cli_main(["kinematics", "--formation", str(f)]) == 0
        assert capsys.readouterr().out.splitlines() == printed
