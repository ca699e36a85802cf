"""Frames, enclosing circles, pair and polygon arithmetic, planning indicators."""
import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sheetplan import (
    CostWeights,
    DegenerateFormation,
    Formation,
    InvalidHeight,
    NonConvexResult,
    ObstacleSpec,
    SafetyParams,
    SheetLayout,
    SheetPlanError,
    ValidationError,
    circumscribed_diameter,
    direct_kinematics,
    indicators,
    inverse_kinematics,
    min_enclosing_circle,
    optimize_formation,
    load_scenario,
    oracle_equilibrium,
    plan_local,
    select_sides,
    to_local_frame,
)
from sheetplan.geometry import (
    check_convex_ccw,
    pair_distances,
    pair_index,
    point_in_polygon,
    points_in_polygon,
    triple_index,
)

from sheetplan.scenario import Corridor

from conftest import CORRIDOR, equilateral_formation, equilateral_layout, regular_polygon

CONTACT = (0.0, 0.0)                              # center of the equilateral sheet
PHIS = np.pi / 2 + 2 * np.pi / 3 * np.arange(3)   # bearings of its holding points


class TestLocalFrame:
    def test_canonical_input_unchanged(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.8]])
        frame = to_local_frame(pts)
        assert np.allclose(frame.local_coords, pts, atol=1e-15)

    def test_rotated_translated_case(self):
        # hand-derived: rotation by 90 degrees about (1, 1)
        pts = np.array([[1.0, 1.0], [1.0, 2.0], [0.2, 1.5]])
        frame = to_local_frame(pts)
        expected = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.8]])
        assert np.allclose(frame.local_coords, expected, atol=1e-12)

    def test_coincident_origin_pair_rejected(self):
        pts = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(DegenerateFormation):
            to_local_frame(pts)

    def test_first_two_coords_pinned(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(5, 2))
        frame = to_local_frame(pts)
        lc = frame.local_coords
        assert abs(lc[0, 0]) < 1e-15 and abs(lc[0, 1]) < 1e-15
        assert abs(lc[1, 1]) < 1e-15 and lc[1, 0] > 0

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_property(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-10, 10, size=(int(rng.integers(2, 8)), 2))
        if np.linalg.norm(pts[1] - pts[0]) < 1e-6:
            return
        frame = to_local_frame(pts)
        back = frame.to_world(frame.local_coords)
        assert np.max(np.abs(back - pts)) < 1e-12

    def test_round_trip_bulk(self):
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(1000):
            pts = rng.uniform(-5, 5, size=(int(rng.integers(2, 9)), 2))
            if np.linalg.norm(pts[1] - pts[0]) < 1e-6:
                continue
            frame = to_local_frame(pts)
            back = frame.to_world(frame.local_coords)
            worst = max(worst, float(np.max(np.abs(back - pts))))
        assert worst < 1e-12

    def test_local_world_round_trip(self):
        # points other than the frame's own map to the local frame and back
        rng = np.random.default_rng(12)
        frame = to_local_frame(rng.uniform(-5, 5, (4, 2)))
        pts = rng.uniform(-5, 5, (50, 2))
        local = frame.to_local(pts)
        assert np.max(np.abs(frame.to_world(local) - pts)) < 1e-12
        assert np.max(np.abs(frame.to_local(frame.origin))) == 0.0
        assert np.allclose(np.linalg.norm(local, axis=1),
                           np.linalg.norm(pts - frame.origin, axis=1), atol=1e-12)

    def test_formation_input(self, triangle_layout):
        f = equilateral_formation(triangle_layout, 1.2, center=(0.3, -0.4), phase=0.7)
        frame = to_local_frame(f)
        want = to_local_frame(f.robot_positions)
        assert frame.local_coords.tobytes() == want.local_coords.tobytes()
        assert frame.origin.tobytes() == want.origin.tobytes() and frame.rotation == want.rotation

    def test_orientation_preserved(self):
        pts = regular_polygon(4, 1.0)
        lc = to_local_frame(pts).local_coords
        area = 0.5 * np.sum(
            lc[:, 0] * np.roll(lc[:, 1], -1) - np.roll(lc[:, 0], -1) * lc[:, 1]
        )
        assert area > 0


def loop_enclosing_circle(pts, tol=1e-9):
    """Reference: the pair-then-triple loop `min_enclosing_circle` replaced."""
    def circumcircle(a, b, c):
        d = 2.0 * (a[0] * (b[1] - c[1]) + b[0] * (c[1] - a[1]) + c[0] * (a[1] - b[1]))
        if abs(d) < 1e-14:
            return None
        a2, b2, c2 = a @ a, b @ b, c @ c
        ux = (a2 * (b[1] - c[1]) + b2 * (c[1] - a[1]) + c2 * (a[1] - b[1])) / d
        uy = (a2 * (c[0] - b[0]) + b2 * (a[0] - c[0]) + c2 * (b[0] - a[0])) / d
        center = np.array([ux, uy])
        return center, float(np.linalg.norm(a - center))

    if len(pts) == 1:
        return pts[0].copy(), 0.0
    best = None
    for i, j in itertools.combinations(range(len(pts)), 2):
        center, radius = 0.5 * (pts[i] + pts[j]), 0.5 * float(np.linalg.norm(pts[i] - pts[j]))
        if np.all(np.linalg.norm(pts - center, axis=1) <= radius + tol):
            if best is None or radius < best[1]:
                best = (center, radius)
    if best is not None:
        return best
    for i, j, k in itertools.combinations(range(len(pts)), 3):
        got = circumcircle(pts[i], pts[j], pts[k])
        if got is None:
            continue
        center, radius = got
        if np.all(np.linalg.norm(pts - center, axis=1) <= radius + tol):
            if best is None or radius < best[1]:
                best = (center, radius)
    if best is None:
        raise DegenerateFormation("no enclosing circle found (degenerate input)")
    return best


class TestMinEnclosingCircle:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_pair_triple_loop(self, n):
        """The same center and radius bytes as the pair-then-triple loop."""
        rng = np.random.default_rng(100 + n)
        for case in range(500):
            pts = rng.normal(size=(n, 2)) * 10.0 ** rng.uniform(-3, 2)
            if case % 4 == 1 and n > 1:
                pts[-1] = pts[0]                                  # coincident points
            elif case % 4 == 2:
                pts = np.round(pts, 2)                            # ties on a 1 cm grid
            elif case % 4 == 3 and n > 2:
                pts[2] = pts[0] + 0.37 * (pts[1] - pts[0])        # a collinear triple
            want, got = loop_enclosing_circle(pts), min_enclosing_circle(pts)
            assert got[0].tobytes() == want[0].tobytes()
            assert type(got[1]) is float and got[1] == want[1]

    @given(st.integers(1, 8), st.integers(1, 12), st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_stack_matches_the_loop(self, n, m, seed):
        """Each set of a stack gets the center and radius bytes of the loop,
        and NaN where the loop finds no circle."""
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(m, n, 2)) * 10.0 ** rng.uniform(-3, 2, (m, 1, 1))
        for row, case in zip(pts, rng.integers(0, 5, m)):
            if case == 1 and n > 1:
                row[-1] = row[0]                                  # coincident points
            elif case == 2:
                row[:] = np.round(row, 2)                         # ties on a 1 cm grid
            elif case == 3 and n > 2:
                row[2] = row[0] + 0.37 * (row[1] - row[0])        # a collinear triple
            elif case == 4:
                row[rng.integers(n)] = (np.nan, 0.0)              # no circle
        centers, radii = min_enclosing_circle(pts)
        assert centers.shape == (m, 2) and radii.shape == (m,)
        for row, center, radius in zip(pts, centers, radii):
            try:
                with np.errstate(invalid="ignore"):
                    want = loop_enclosing_circle(row)
            except DegenerateFormation:
                assert np.isnan(center).all() and np.isnan(radius)
            else:
                assert center.tobytes() == want[0].tobytes() and radius == want[1]
        diameters = circumscribed_diameter(pts)
        assert diameters.tobytes() == (2.0 * radii).tobytes()

    def test_formation_diameter(self, triangle_layout):
        f = equilateral_formation(triangle_layout, 1.2)
        assert circumscribed_diameter(f) == circumscribed_diameter(f.robot_positions)
        assert type(circumscribed_diameter(f)) is float

    def test_collinear_triple_has_no_circumcircle(self):
        # no diameter circle holds (1, 1.5), and the triple on y = 0 has d = 0 exactly
        pts = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 0.0], [1.0, 1.5]])
        with np.errstate(all="raise"):
            center, radius = min_enclosing_circle(pts)
        want = loop_enclosing_circle(pts)
        assert center.tobytes() == want[0].tobytes() and radius == want[1]

    @pytest.mark.parametrize("pts", [np.zeros((0, 2)), [[np.nan, 0.0], [1.0, 1.0], [2.0, 0.0]],
                                     [[0.0, 0.0], [np.inf, 1.0]]])
    def test_no_enclosing_circle(self, pts):
        pts = np.asarray(pts, dtype=float)
        for fn in (loop_enclosing_circle, min_enclosing_circle):
            with pytest.raises(DegenerateFormation), np.errstate(invalid="ignore"):
                fn(pts)

    def test_equilateral_triangle(self):
        pts = regular_polygon(3, 1.2 / np.sqrt(3))
        assert circumscribed_diameter(pts) == pytest.approx(2 * 1.2 / np.sqrt(3), abs=1e-12)
        assert circumscribed_diameter(pts) == pytest.approx(1.38564, abs=1e-5)

    def test_two_points(self):
        pts = np.array([[0.0, 0.0], [0.7, 0.4]])
        assert circumscribed_diameter(pts) == pytest.approx(np.hypot(0.7, 0.4), abs=1e-12)

    def test_square_diagonal(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        assert circumscribed_diameter(pts) == pytest.approx(np.sqrt(2.0), abs=1e-12)

    def test_containment_property(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            pts = rng.uniform(-3, 3, size=(int(rng.integers(2, 11)), 2))
            center, radius = min_enclosing_circle(pts)
            d = np.linalg.norm(pts - center, axis=1)
            assert np.all(d <= radius + 1e-9)
            # at least two points on the boundary determine the circle
            assert np.sum(d >= radius - 1e-7) >= 2

    def test_interior_point_ignored(self):
        pts = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 0.1]])
        _, radius = min_enclosing_circle(pts)
        assert radius == pytest.approx(1.0, abs=1e-12)


class TestPolygonValidation:
    def test_clockwise_rejected(self):
        pts = regular_polygon(3, 1.0)[::-1]
        with pytest.raises(NonConvexResult):
            SheetLayout(pts, 0.79)

    def test_nonconvex_rejected(self):
        pts = np.array([[0, 0], [2, 0], [1, 0.1], [1, 2.0]], dtype=float)
        with pytest.raises(NonConvexResult):
            SheetLayout(pts, 0.79)

    def test_collinear_rejected(self):
        pts = np.array([[0, 0], [1, 0], [2, 1e-12], [0, 1]], dtype=float)
        with pytest.raises(NonConvexResult):
            SheetLayout(pts, 0.79)

    def test_formation_count_must_match(self):
        layout = equilateral_layout()
        with pytest.raises(ValueError):
            Formation(regular_polygon(4, 0.5), layout)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field, build", [
        ("robot_positions",
         lambda bad: Formation([[bad, 0.0], [1.0, 0.0], [0.5, 0.8]], equilateral_layout())),
        ("holding_height", lambda bad: equilateral_layout(z_r=bad)),
        ("height", lambda bad: ObstacleSpec((0.0, 0.0), 0.1, bad)),
        ("delta_r", lambda bad: SafetyParams(bad, 0.04)),
    ])
    def test_non_finite_rejected(self, field, build, bad):
        with pytest.raises(ValidationError) as err:
            build(bad)
        assert err.value.field == field

    @pytest.mark.parametrize("field, build", [
        ("delta_r", lambda: SafetyParams(0, 0.04)),
        ("z_safe", lambda: SafetyParams(0.05, -0.01)),
        ("radius", lambda: ObstacleSpec((0.0, 0.0), -1, 0.1)),
        ("height", lambda: ObstacleSpec((0.0, 0.0), 0.1, -0.1)),
        ("robot_positions",
         lambda: Formation(regular_polygon(4, 0.5), equilateral_layout())),
        ("holding_height", lambda: equilateral_layout(z_r=0.0)),
        ("l4", lambda: CostWeights(l4=-1.0)),
    ])
    def test_out_of_range_rejected(self, field, build):
        with pytest.raises(SheetPlanError) as err:
            build()
        assert isinstance(err.value, ValidationError)
        assert isinstance(err.value, ValueError)     # `except ValueError` still catches it
        assert err.value.field == field

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
    @pytest.mark.parametrize("field, build", [
        ("delta_r", lambda x: SafetyParams(x, 0.04)),
        ("z_safe", lambda x: SafetyParams(0.05, x)),
        ("holding_height", lambda x: equilateral_layout(z_r=x)),
        *[(f"l{k}", lambda x, k=k: CostWeights(**{f"l{k}": x})) for k in range(1, 6)],
        ("corridor_width", lambda x: Corridor([[0.0, 0.0], [6.0, 0.0]], [x])),
        *[pytest.param(key, lambda x, key=key: dataclasses.replace(
            load_scenario(CORRIDOR), **{key: x}), id=f"Scenario-{key}")
          for key in ("speed", "omega", "dt")],
        # plan_local checks its numbers before it reads the solution
        *[pytest.param(key, lambda x, key=key: plan_local(
            None, None, 2.0, **{"dt": 0.1, "v": 0.1, key: x}), id=f"plan_local-{key}")
          for key in ("dt", "v", "omega")],
        ("grid_resolution", lambda x: oracle_equilibrium(
            equilateral_formation(equilateral_layout(), 1.0), x)),
        ("w_convex", lambda x: optimize_formation(
            equilateral_formation(equilateral_layout(), 1.0), ObstacleSpec((0, 0), 0.1, 0.05), x)),
    ])
    def test_positive_and_finite_rejected(self, field, build, bad):
        with pytest.raises(ValidationError) as err:
            build(bad)
        assert err.value.field == field

    @pytest.mark.parametrize("field, call", [
        ("taut_flags", lambda f: direct_kinematics(f, [1, 1])),
        ("phis", lambda f: inverse_kinematics(f.layout, CONTACT, 0.3, [0.0, 2.0])),
        ("contact", lambda f: inverse_kinematics(f.layout, (5.0, 5.0), 0.3, PHIS)),
        ("object_height", lambda f: inverse_kinematics(f.layout, CONTACT, 0.79, PHIS)),
        ("w_convex", lambda f: optimize_formation(f, ObstacleSpec((0, 0), 0.1, 0.05), 0.0)),
        ("w_convex", lambda f: optimize_formation(f, ObstacleSpec((0, 0), 0.1, 0.05), np.nan)),
        ("approach", lambda f: select_sides(f, (0.0, 0.0), (1.0, 0.0))),
        ("depart", lambda f: select_sides(f, (1.0, 0.0), (0.0, 0.0))),
        *[("grid_resolution", lambda f, g=g: oracle_equilibrium(f, g))
          for g in (0.0, -1e-3, np.nan, np.inf, -np.inf)],
        *[pytest.param(field, call, id=f"{field}-nonfinite") for field, call in (
            ("contact", lambda f: inverse_kinematics(f.layout, (np.nan, 0.0), 0.3, PHIS)),
            ("object_height", lambda f: inverse_kinematics(f.layout, CONTACT, -np.inf, PHIS)),
            ("phis", lambda f: inverse_kinematics(f.layout, CONTACT, 0.3, PHIS + [np.nan, 0, 0])),
            ("anchor", lambda f: inverse_kinematics(f.layout, CONTACT, 0.3, PHIS, (np.nan, 0.0))),
        )],
    ])
    def test_bad_arguments_rejected(self, field, call):
        carry = equilateral_formation(equilateral_layout(), 1.0)
        with pytest.raises(SheetPlanError) as err:
            call(carry)
        assert isinstance(err.value, ValidationError)
        assert isinstance(err.value, ValueError)
        assert err.value.field == field

    def test_robot_count_limit(self):
        assert SheetLayout(regular_polygon(8, 1.0), 0.79).n == 8
        with pytest.raises(ValidationError) as err:
            SheetLayout(regular_polygon(9, 1.0), 0.79)
        assert err.value.field == "holding_points"

    def test_point_in_polygon_boundary(self):
        poly = regular_polygon(4, 1.0)
        assert point_in_polygon(poly[0], poly, tol=1e-9)
        assert not point_in_polygon(np.array([2.0, 2.0]), poly)
        assert not point_in_polygon([np.nan, 0.0], poly)
        with pytest.raises(NonConvexResult):
            check_convex_ccw([[np.nan, 0.0], [1.0, 0.0], [0.0, 1.0]])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_huge_coordinates_raise_no_warning(self, triangle_layout):
        # sides and cross products that overflow read as infinite (a convex
        # ccw triangle) or NaN (not convex), with no numpy warning on the way
        huge = Formation([[0.0, 0.0], [1e300, 0.0], [0.0, 1e300]], triangle_layout)
        assert np.array_equal(huge.robot_positions[1], [1e300, 0.0])
        with pytest.raises(NonConvexResult):
            Formation([[0.0, 0.0], [1.7e308, 0.0], [-1.7e308, 1e-300]], triangle_layout)


class TestPairAndPolygonArithmetic:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_pair_distances_match_per_pair_norm(self, n):
        """The same bytes as one 1-D `np.linalg.norm` per pair."""
        rng = np.random.default_rng(n)
        pts = rng.normal(size=(200, n, 2)) * rng.choice([1e-6, 1.0, 1e3], (200, 1, 1))
        pts[::4, -1] = pts[::4, 0]                   # coincident points
        pairs = list(itertools.combinations(range(n), 2))
        want = np.array([[np.linalg.norm(p[i] - p[j]) for i, j in pairs] for p in pts])
        assert pair_index(n).T.tolist() == [list(ij) for ij in pairs]
        assert pair_distances(pts).tobytes() == want.tobytes()
        for p, w in zip(pts, want):
            assert pair_distances(p).tobytes() == w.tobytes()

    @pytest.mark.parametrize("n", range(0, 9))
    def test_triple_index_is_combinations(self, n):
        triples = triple_index(n)
        assert triples.shape == (3, len(list(itertools.combinations(range(n), 3))))
        assert triples.T.tolist() == [list(t) for t in itertools.combinations(range(n), 3)]
        assert triple_index(n) is triples and not triples.flags.writeable
        with pytest.raises(ValueError):
            triples[0, :1] = 0

    def test_points_in_polygon_forms_agree(self):
        rng = np.random.default_rng(7)
        polys = np.array([regular_polygon(5, s, center=c, phase=a) for s, c, a in zip(
            rng.uniform(0.2, 1.5, 300), rng.normal(0, 0.3, (300, 2)), rng.uniform(0, 7, 300))])
        pts = rng.uniform(-1.5, 1.5, (300, 2))
        pts[:10] = polys[np.arange(10), np.arange(10) % 5]     # on a vertex
        pts[10] = (np.nan, 0.0)
        for tol in (1e-9, 0.0, -1e-9):
            each = points_in_polygon(pts, polys, tol)
            one = [points_in_polygon(p[None], poly, tol)[0] for p, poly in zip(pts, polys)]
            assert each.tolist() == one
            assert [point_in_polygon(p, poly, tol) for p, poly in zip(pts, polys)] == one
            assert (each[:10] == (tol >= 0)).all() and not each[10]
        assert 0 < each.sum() < len(pts) - 11


class TestIndicators:
    def test_spec_values(self, triangle_layout):
        f = equilateral_formation(triangle_layout, 1.2)
        safety = SafetyParams(delta_r=0.05, z_safe=0.04)
        ind = indicators(f, 0.179, safety)
        assert ind.W == pytest.approx(1.48564, abs=1e-5)
        assert ind.L_min == pytest.approx(1.2, abs=1e-12)
        assert ind.d_obsmax == pytest.approx(1.1, abs=1e-12)
        assert ind.z_obsmax == pytest.approx(0.139, abs=1e-12)
        # exact identities
        assert ind.W == ind.D + 2 * safety.delta_r
        assert ind.d_obsmax == ind.L_min - 2 * safety.delta_r

    def test_zero_margin_degeneracy(self, triangle_layout):
        f = equilateral_formation(triangle_layout, 1.2)
        safety = SafetyParams(delta_r=1e-300, z_safe=0.04)
        ind = indicators(f, 0.179, safety)
        assert ind.W == pytest.approx(ind.D, abs=1e-12)
        assert ind.d_obsmax == pytest.approx(ind.L_min, abs=1e-12)

    def test_boundary_height(self, triangle_layout):
        f = equilateral_formation(triangle_layout, 1.2)
        ind = indicators(f, 0.04, SafetyParams(delta_r=0.05, z_safe=0.04))
        assert ind.z_obsmax == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_stack_matches_each(self, n):
        # a stack of formations gets each formation's own indicator bits
        rng = np.random.default_rng(40 + n)
        layout = SheetLayout(regular_polygon(n, 1.0), 0.79)
        safety = SafetyParams(delta_r=0.05, z_safe=0.04)
        robots = regular_polygon(n, 0.8) * rng.uniform(0.5, 1.0, (20, 1, 1)) \
            + rng.normal(0.0, 0.02, (20, n, 2))
        heights = rng.uniform(0.05, 0.6, 20)
        stack = indicators(robots, heights, safety)
        for k, (r, z) in enumerate(zip(robots, heights)):
            one = indicators(Formation(r, layout), z, safety)
            for name in ("W", "D", "L_min", "d_obsmax", "z_obsmax"):
                assert getattr(stack, name)[k] == getattr(one, name)
            assert type(one.L_min) is float and type(one.D) is float

    def test_invalid_height(self, triangle_layout):
        f = equilateral_formation(triangle_layout, 1.2)
        with pytest.raises(InvalidHeight):
            indicators(f, 0.79, SafetyParams())

    def test_scaling_property(self, triangle_layout):
        rng = np.random.default_rng(5)
        safety = SafetyParams(delta_r=0.05, z_safe=0.04)
        for _ in range(50):
            pts = regular_polygon(3, 0.4) + rng.normal(0, 0.05, (3, 2))
            try:
                f = Formation(pts, triangle_layout)
            except NonConvexResult:
                continue
            k = float(rng.uniform(0.5, 1.4))
            g = Formation(pts * k, triangle_layout) if k * np.max(np.abs(pts)) < 2 else None
            if g is None:
                continue
            ia = indicators(f, 0.2, safety)
            ib = indicators(g, 0.2, safety)
            assert ib.D == pytest.approx(k * ia.D, rel=1e-9)
            assert ib.L_min == pytest.approx(k * ia.L_min, rel=1e-9)
            assert ib.W == pytest.approx(k * ia.D + 2 * safety.delta_r, rel=1e-9)
            assert ib.d_obsmax == pytest.approx(k * ia.L_min - 2 * safety.delta_r, rel=1e-9)
