"""Frames, enclosing circles and planning indicators."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sheetplan import (
    DegenerateFormation,
    Formation,
    InvalidHeight,
    NonConvexResult,
    ObstacleSpec,
    SafetyParams,
    SheetLayout,
    ValidationError,
    circumscribed_diameter,
    indicators,
    min_enclosing_circle,
    to_local_frame,
)
from sheetplan.geometry import point_in_polygon

from conftest import equilateral_formation, equilateral_layout, regular_polygon


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

    def test_orientation_preserved(self):
        pts = regular_polygon(4, 1.0)
        lc = to_local_frame(pts).local_coords
        area = 0.5 * np.sum(
            lc[:, 0] * np.roll(lc[:, 1], -1) - np.roll(lc[:, 0], -1) * lc[:, 1]
        )
        assert area > 0


class TestMinEnclosingCircle:
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

    def test_point_in_polygon_boundary(self):
        poly = regular_polygon(4, 1.0)
        assert point_in_polygon(poly[0], poly, tol=1e-9)
        assert not point_in_polygon(np.array([2.0, 2.0]), poly)


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
