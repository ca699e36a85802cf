"""Scenario parsing, validation diagnostics, and mutation fuzzing."""
import numpy as np
import pytest

from sheetplan import ParseError, ValidationError, load_scenario
from sheetplan.scenario import Corridor, parse_formation, parse_scenario

from conftest import CORRIDOR

MINIMAL = """
sheet_height = 0.79
sheet_point = 0.0 0.0
sheet_point = 1.6 0.0
sheet_point = 0.8 1.3856406461
robot = 0.934829510 0.527435716
robot = 0.125812516 -0.060349536
robot = 1.039357974 -0.467086179
corridor_point = 0.0 0.0
corridor_point = 6.0 0.0
corridor_width = 2.0
obstacle = 2.2 0.0 0.1 0.05
goal = 5.6 0.0
"""


class TestParsing:
    def test_corridor_file(self):
        s = load_scenario(CORRIDOR)
        assert s.name == "corridor-two-obstacles"
        assert s.layout.n == 3
        assert s.layout.holding_height == 0.79
        assert len(s.obstacles) == 2
        assert s.obstacles[0].radius == 0.1 and s.obstacles[0].height == 0.05
        assert s.obstacles[1].radius == 0.2 and s.obstacles[1].height == 0.2
        assert s.corridor.width_at(3.0) == 2.0
        assert s.corridor.length == 6.0
        assert np.allclose(s.goal, [5.6, 0.0])

    def test_defaults_fill_in(self):
        s = parse_scenario(MINIMAL)
        assert (s.weights.l1, s.weights.l2, s.weights.l3) == (1.0, 1.0, 1.0)
        assert (s.weights.l4, s.weights.l5) == (10.0, 10.0)
        assert s.safety.z_safe == 0.04
        assert s.safety.delta_r == 0.05
        assert s.speed == 0.1 and s.omega == 0.2 and s.dt == 0.1

    def test_per_segment_widths(self):
        text = MINIMAL.replace(
            "corridor_point = 6.0 0.0\ncorridor_width = 2.0",
            "corridor_point = 3.0 0.0\ncorridor_point = 3.0 3.0\n"
            "corridor_width = 2.0\ncorridor_width = 1.5",
        ).replace("obstacle = 2.2 0.0 0.1 0.05", "obstacle = 1.5 0.0 0.1 0.05")
        s = parse_scenario(text.replace("goal = 5.6 0.0", "goal = 3.0 2.5"))
        assert s.corridor.width_at(1.0) == 2.0
        assert s.corridor.width_at(4.5) == 1.5

    def test_parse_error_reports_line(self):
        bad = MINIMAL.replace("goal = 5.6 0.0", "goal 5.6 0.0")
        with pytest.raises(ParseError) as err:
            parse_scenario(bad)
        assert "key" in str(err.value) or "=" in str(err.value)

    def test_unknown_key(self):
        with pytest.raises(ParseError):
            parse_scenario(MINIMAL + "\nwheelbase = 0.3\n")

    def test_non_numeric(self):
        with pytest.raises(ParseError):
            parse_scenario(MINIMAL.replace("goal = 5.6 0.0", "goal = five 0.0"))
        # non-finite numbers would slip through every clearance check later
        line = MINIMAL.splitlines().index("obstacle = 2.2 0.0 0.1 0.05") + 1
        for bad in ("nan", "inf", "-inf"):
            with pytest.raises(ParseError) as err:
                parse_scenario(MINIMAL.replace("obstacle = 2.2 0.0 0.1 0.05",
                                               f"obstacle = 2.2 0.0 0.1 {bad}"))
            assert err.value.line == line
        with pytest.raises(ParseError):
            parse_scenario(MINIMAL.replace("goal = 5.6 0.0", "goal = nan 0.0"))

    def test_wrong_arity(self):
        with pytest.raises(ParseError):
            parse_scenario(MINIMAL.replace("obstacle = 2.2 0.0 0.1 0.05",
                                           "obstacle = 2.2 0.0 0.1"))

    def test_comments_and_blanks_ignored(self):
        s = parse_scenario("# header\n\n" + MINIMAL + "\n# trailer\n")
        assert s.layout.n == 3


class TestValidation:
    def test_negative_obstacle_radius(self):
        bad = MINIMAL.replace("obstacle = 2.2 0.0 0.1 0.05", "obstacle = 2.2 0.0 -1 0.05")
        with pytest.raises(ValidationError) as err:
            parse_scenario(bad)
        assert err.value.field == "obstacle"

    def test_missing_goal(self):
        with pytest.raises(ValidationError) as err:
            parse_scenario(MINIMAL.replace("goal = 5.6 0.0", ""))
        assert err.value.field == "goal"

    def test_robot_count_mismatch(self):
        bad = MINIMAL.replace("robot = 1.039357974 -0.467086179\n", "")
        with pytest.raises(ValidationError) as err:
            parse_scenario(bad)
        assert err.value.field == "robot"

    def test_infeasible_initial_formation(self):
        bad = MINIMAL.replace("robot = 0.934829510 0.527435716",
                              "robot = 2.4 1.5")
        with pytest.raises(ValidationError) as err:
            parse_scenario(bad)
        assert err.value.field == "robot"

    def test_obstacles_must_follow_centerline_order(self):
        text = MINIMAL.replace(
            "obstacle = 2.2 0.0 0.1 0.05",
            "obstacle = 4.2 0.0 0.2 0.2\nobstacle = 2.2 0.0 0.1 0.05",
        )
        with pytest.raises(ValidationError) as err:
            parse_scenario(text)
        assert err.value.field == "obstacle"

    def test_nonconvex_sheet(self):
        bad = MINIMAL.replace("sheet_point = 0.8 1.3856406461",
                              "sheet_point = 0.8 -0.1")
        with pytest.raises(ValidationError) as err:
            parse_scenario(bad)
        assert err.value.field == "sheet_point"

    def test_width_count_mismatch(self):
        bad = MINIMAL + "corridor_width = 1.0\ncorridor_width = 1.0\n"
        with pytest.raises(ValidationError) as err:
            parse_scenario(bad)
        assert err.value.field == "corridor_width"

    def test_mutation_fuzz_every_field(self):
        """Every single-line corruption must fail loudly with a field name."""
        mutations = [
            ("sheet_height = 0.79", "sheet_height = -0.79"),
            ("sheet_height = 0.79", ""),
            ("corridor_width = 2.0", "corridor_width = 0"),
            ("corridor_point = 6.0 0.0", ""),
            ("obstacle = 2.2 0.0 0.1 0.05", "obstacle = 2.2 0.0 0.1 -0.05"),
            ("robot = 0.125812516 -0.060349536", "robot = 9.0 9.0"),
            ("goal = 5.6 0.0", ""),
        ]
        for old, new in mutations:
            text = MINIMAL.replace(old, new)
            with pytest.raises((ParseError, ValidationError)) as err:
                parse_scenario(text)
            assert str(err.value)

    def test_optional_param_positive(self):
        with pytest.raises(ValidationError) as err:
            parse_scenario(MINIMAL + "dt = 0\n")
        assert err.value.field == "dt"

    @pytest.mark.parametrize("line, field", [
        ("delta_r = 0", "delta_r"),
        ("z_safe = -0.01", "z_safe"),
        ("weights = 1 1 -1 10 10", "weights"),
    ])
    def test_margins_and_weights_name_their_field(self, line, field):
        with pytest.raises(ValidationError) as err:
            parse_scenario(MINIMAL + line + "\n")
        assert err.value.field == field


class TestCorridorGeometry:
    def test_projection_and_direction(self):
        c = Corridor(np.array([[0.0, 0.0], [3.0, 0.0], [3.0, 3.0]]), np.array([2.0, 2.0]))
        assert c.length == 6.0
        assert c.project([1.5, 0.4]) == pytest.approx(1.5)
        assert c.project([3.2, 1.0]) == pytest.approx(4.0)
        assert np.allclose(c.direction_at(1.0), [1, 0])
        assert np.allclose(c.direction_at(4.5), [0, 1])
        assert np.allclose(c.point_at(4.0), [3.0, 1.0])
        assert c.distance_to([1.5, 0.4]) == pytest.approx(0.4)


class TestFormationFile:
    def test_parse_formation(self):
        text = "\n".join(
            line for line in MINIMAL.splitlines()
            if line.startswith(("sheet", "robot"))
        )
        f = parse_formation(text)
        assert f.n == 3
        assert f.holding_height == 0.79

    def test_missing_height(self):
        with pytest.raises(ValidationError):
            parse_formation("sheet_point = 0 0\nsheet_point = 1 0\nsheet_point = 0 1\n"
                            "robot = 0 0\nrobot = 0.5 0\nrobot = 0 0.5\n")
