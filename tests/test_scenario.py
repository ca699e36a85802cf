"""Scenario parsing, validation diagnostics, and mutation fuzzing."""
import dataclasses
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sheetplan.scenario
from sheetplan import ParseError, Scenario, ValidationError, load_scenario
from sheetplan.cli import main as cli_main
from sheetplan.scenario import Corridor, parse_formation, parse_scenario

from conftest import CORRIDOR, TURNED

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
        assert s.initial_formation.layout.n == 3
        assert s.initial_formation.layout.holding_height == 0.79
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
        assert s.initial_formation.layout.n == 3

    @pytest.mark.parametrize("line", [
        "goal = 5.0 0.0", "weights = 1 1 1 10 10", "name = again", "speed = 0.2",
    ])
    def test_repeated_single_key(self, line):
        text = MINIMAL + "name = first\nweights = 1 1 1 10 10\nspeed = 0.1\n"
        assert parse_scenario(text).name == "first"
        text += line + "\n"
        with pytest.raises(ParseError) as err:
            parse_scenario(text)
        assert err.value.line == len(text.splitlines())
        assert "duplicate key" in str(err.value)

    def test_docstring_example(self):
        doc = sheetplan.scenario.__doc__
        example = textwrap.dedent(doc.split("Example::\n\n", 1)[1].split("\n\n", 1)[0])
        s = parse_scenario(example)
        assert s.name == "corridor-two-obstacles"
        assert len(s.obstacles) == 1 and s.weights.l5 == 10.0
        # the docstring names the keys that may repeat, as the key table has them
        repeating = [key for key, (_, repeats) in sheetplan.scenario._KEYS.items() if repeats]
        sentence = ", ".join(repeating[:-1]) + " and " + repeating[-1] + " may repeat"
        assert sentence in " ".join(doc.split())


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

    @pytest.mark.parametrize("points, widths, field", [
        ([[0.0, 0.0]], [2.0], "corridor_point"),
        ([[0.0, 0.0], [6.0, 0.0], [6.0, 0.0]], [2.0], "corridor_point"),   # last waypoint repeated
        ([[0.0, 0.0], [0.0, 0.0], [6.0, 0.0]], [2.0, 2.0], "corridor_point"),
        ([[0.0, 0.0], [6.0, 0.0]], [2.0, 2.0], "corridor_width"),
        ([[0.0, 0.0], [3.0, 0.0], [6.0, 0.0]], [], "corridor_width"),
        ([[0.0, 0.0], [6.0, 0.0]], [0.0], "corridor_width"),
    ])
    def test_corridor_checks_like_the_file(self, points, widths, field):
        lines = [f"corridor_point = {x} {y}" for x, y in points]
        lines += [f"corridor_width = {w}" for w in widths]
        text = MINIMAL.replace(
            "corridor_point = 0.0 0.0\ncorridor_point = 6.0 0.0\ncorridor_width = 2.0",
            "\n".join(lines),
        )
        with pytest.raises(ValidationError) as from_file:
            parse_scenario(text)
        with pytest.raises(ValidationError) as from_api:
            Corridor(np.array(points), np.array(widths))
        assert from_file.value.field == from_api.value.field == field

    @pytest.mark.parametrize("key, value", [
        ("dt", 0.0), ("dt", -0.1), ("speed", 0.0), ("omega", -1.0),
    ])
    def test_replace_checks_like_the_file(self, key, value):
        with pytest.raises(ValidationError) as from_file:
            parse_scenario(MINIMAL + f"{key} = {value}\n")
        with pytest.raises(ValidationError) as from_api:
            dataclasses.replace(parse_scenario(MINIMAL), **{key: value})
        assert from_file.value.field == from_api.value.field == key

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_replace_rejects_non_finite(self, value):
        with pytest.raises(ValidationError) as err:
            dataclasses.replace(parse_scenario(MINIMAL), dt=value)
        assert err.value.field == "dt"

    def test_goal_lies_in_the_corridor(self, tmp_path, capsys):
        for path in (CORRIDOR, TURNED):
            assert isinstance(load_scenario(path), Scenario)
        text = open(CORRIDOR).read()
        assert "goal = 5.6 0.0" in text
        far = tmp_path / "far_goal.txt"
        far.write_text(text.replace("goal = 5.6 0.0", "goal = 5.6 9.0"))
        with pytest.raises(ValidationError) as err:
            load_scenario(far)
        assert err.value.field == "goal"
        with pytest.raises(ValidationError) as err:
            dataclasses.replace(load_scenario(CORRIDOR), goal=np.array([np.nan, 0.0]))
        assert err.value.field == "goal"
        assert cli_main(["validate", str(far)]) == 1
        assert capsys.readouterr().err.startswith("error: goal:")

    def test_constructor_checks_formation_and_obstacles(self):
        s = parse_scenario(MINIMAL)
        stretched = dataclasses.replace(s.initial_formation,
                                        robot_positions=2.0 * s.initial_formation.robot_positions)
        with pytest.raises(ValidationError) as err:
            dataclasses.replace(s, initial_formation=stretched)
        assert err.value.field == "robot"
        ob = s.obstacles[0]
        far = dataclasses.replace(ob, center=np.array([4.0, 0.0]))
        with pytest.raises(ValidationError) as err:
            dataclasses.replace(s, obstacles=(far, ob))
        assert err.value.field == "obstacle"
        with pytest.raises(ValidationError) as err:
            dataclasses.replace(s, obstacles=(dataclasses.replace(ob, radius=0.0),))
        assert err.value.field == "obstacle"
        assert isinstance(dataclasses.replace(s, obstacles=()), Scenario)


# line edits of MINIMAL: (operation, line index, token)
EDITS = st.lists(st.tuples(
    st.sampled_from(["drop", "repeat", "swap", "add", "remove"]),
    st.integers(0, 64),
    st.sampled_from(["nan", "inf", "-inf", "text", "0", "-1", "1.5", "1e300"]),
), min_size=1, max_size=4)


def edit_lines(lines, edits):
    lines = list(lines)
    for op, index, token in edits:
        if not lines:
            break
        i = index % len(lines)
        key, _, rhs = lines[i].partition(" = ")
        words = rhs.split()
        if op == "drop":
            del lines[i]
        elif op == "repeat":
            lines.insert(i, lines[i])
        elif op == "swap":
            if words:
                words[index % len(words)] = token
        elif op == "add":
            words.append(token)
        else:
            words = words[:-1]
        if op in ("swap", "add", "remove"):
            lines[i] = key + " = " + " ".join(words)
    return "\n".join(lines)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(EDITS)
def test_line_edits_fail_only_with_scenario_errors(edits):
    """Every edited file parses or raises ParseError or ValidationError, with
    no numpy warning on the way (a swapped-in 1e300 overflowed before)."""
    try:
        parse_scenario(edit_lines(MINIMAL.strip().splitlines(), edits))
    except (ParseError, ValidationError):
        pass


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

    def test_uniform_width_fills_every_segment(self):
        c = Corridor([[0.0, 0.0], [3.0, 0.0], [3.0, 3.0]], [2.0])
        assert c.widths.tolist() == [2.0, 2.0]
        assert c.arclengths.tolist() == [0.0, 3.0, 6.0]

    @pytest.mark.parametrize("seed", range(4))
    def test_point_arrays_match_point_loop(self, seed):
        """project and distance_to over an array give the bytes of one call per point."""
        rng = np.random.default_rng(seed)
        c = Corridor(np.cumsum(rng.normal(size=(2 + seed, 2)), axis=0), [1.0])
        pts = rng.normal(scale=3.0, size=(300, 2))
        s = np.array([loop_project(c, p) for p in pts])
        d = np.array([loop_distance_to(c, p) for p in pts])
        assert np.array_equal(c.project(pts), s)
        assert np.array_equal(c.distance_to(pts), d)
        assert c.project(pts[0]) == s[0] and c.distance_to(pts[0]) == d[0]


def loop_project(c, p):
    """Corridor.project as one loop over the segments, one point at a time."""
    best_s, best_d = 0.0, np.inf
    for k in range(len(c.points) - 1):
        a, b = c.points[k], c.points[k + 1]
        seg = b - a
        L2 = float(seg @ seg)
        frac = float(np.clip(((p - a) @ seg) / L2, 0.0, 1.0))
        d = float(np.linalg.norm(p - (a + frac * seg)))
        if d < best_d:
            best_d, best_s = d, c.arclengths[k] + frac * np.sqrt(L2)
    return best_s


def loop_distance_to(c, p):
    """Corridor.distance_to for one point, through the scalar point_at."""
    cum = c.arclengths
    s = float(np.clip(loop_project(c, p), 0.0, cum[-1]))
    k = min(max(int(np.searchsorted(cum, s, side="right") - 1), 0), len(c.points) - 2)
    seg = c.points[k + 1] - c.points[k]
    q = c.points[k] + (s - cum[k]) / np.linalg.norm(seg) * seg
    return float(np.linalg.norm(p - q))


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
