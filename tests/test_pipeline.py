"""End-to-end scenario runs, export formats, and the CLI."""
import hashlib
import json
import os
import tracemalloc

import numpy as np
import pytest

from sheetplan import (
    PipelineInfeasible,
    PlanTimeline,
    export_report,
    load_scenario,
    run_pipeline,
)
from sheetplan.cli import main as cli_main
from sheetplan.geometry import rotation
from sheetplan.pipeline import RunReport, _build_report
from sheetplan.scenario import parse_scenario

from conftest import CORRIDOR, REFERENCE, TURNED


@pytest.fixture(scope="module")
def corridor_report():
    return run_pipeline(load_scenario(CORRIDOR))


@pytest.fixture(scope="module")
def turned_report():
    return run_pipeline(load_scenario(TURNED))


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


@pytest.mark.parametrize("fixture, name", [
    ("corridor_report", "corridor"),
    ("turned_report", "turned_corridor"),
])
def test_golden_outputs(fixture, name, request, tmp_path):
    """Every exported file matches the sha256 recorded in the reference."""
    paths = export_report(request.getfixturevalue(fixture), tmp_path / name)
    digests = {}
    for path in paths:
        with open(path, "rb") as fh:
            digests[os.path.basename(path)] = hashlib.sha256(fh.read()).hexdigest()
    with open(REFERENCE) as fh:
        assert digests == json.load(fh)["outputs"][name]


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
            dt=0.1,
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


class TestBypassRun:
    def test_tall_obstacle_is_bypassed(self):
        # one obstacle taller than any crossing height, in a corridor wide
        # enough to go around it
        text = open(CORRIDOR).read()
        for old, new in (
            ("corridor_point = 6.0 0.0", "corridor_point = 8.0 0.0"),
            ("corridor_width = 2.0", "corridor_width = 4.0"),
            ("obstacle = 2.2 0.0 0.1 0.05\n", ""),
            ("obstacle = 4.2 0.0 0.2 0.2", "obstacle = 3.5 0.0 0.1 0.76"),
            ("goal = 5.6 0.0", "goal = 7.0 0.0"),
        ):
            assert old in text
            text = text.replace(old, new)
        scenario = parse_scenario(text)
        report = run_pipeline(scenario)
        assert report.obstacle_modes == ("bypassed",)
        assert report.min_horizontal_clearance >= scenario.safety.delta_r - 1e-9
        step = scenario.speed * scenario.dt
        assert np.linalg.norm(report.final_object[:2] - report.goal) <= 2 * step


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
