"""Inverse kinematics and its round trip through the equilibrium solver."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sheetplan import (
    CableTooShort,
    InelasticityViolated,
    NonConvexResult,
    ObjectOutsideFormation,
    inverse_kinematics,
    solve_equilibrium,
)
from sheetplan.equilibrium import FEAS_TOL, cable_distances

from conftest import draw_consistent_target, draw_kkt_command, equilateral_layout


class TestInverseKinematics:
    def test_symmetric_triangle_round_trip(self, triangle_layout):
        # the side-1.2 carry seen from the other direction
        centroid = triangle_layout.holding_points.mean(axis=0)
        z_o = 0.79 - np.sqrt((1.6**2 - 1.2**2) / 3.0)
        phis = np.deg2rad([90.0, 210.0, 330.0])
        f = inverse_kinematics(triangle_layout, centroid, z_o, phis)
        sides = [
            np.linalg.norm(f.robot_positions[i] - f.robot_positions[(i + 1) % 3])
            for i in range(3)
        ]
        assert np.allclose(sides, 1.2, atol=1e-9)
        eq = solve_equilibrium(f)
        assert eq.z == pytest.approx(z_o, abs=1e-9)

    def test_deepest_hang_puts_robot_overhead(self, triangle_layout):
        # hang depth equal to the shortest cable: that robot sits directly
        # above the object
        centroid = triangle_layout.holding_points.mean(axis=0)
        contact = centroid + np.array([0.2, 0.0])
        lengths = triangle_layout.cable_lengths(contact)
        z_o = 0.79 - np.min(lengths)
        phis = np.deg2rad([90.0, 210.0, 330.0])
        try:
            f = inverse_kinematics(triangle_layout, contact, z_o, phis)
        except (NonConvexResult, ObjectOutsideFormation):
            pytest.skip("deep-hang construction degenerate for this geometry")
        k = int(np.argmin(lengths))
        assert np.linalg.norm(f.robot_positions[k] - np.zeros(2)) < 1e-9

    def test_cable_too_short(self, triangle_layout):
        centroid = triangle_layout.holding_points.mean(axis=0)
        with pytest.raises(CableTooShort):
            inverse_kinematics(
                triangle_layout, centroid, -0.5, np.deg2rad([90, 210, 330])
            )

    def test_nonconvex_phis(self, triangle_layout):
        centroid = triangle_layout.holding_points.mean(axis=0)
        # clockwise ordering produces a negatively oriented polygon
        with pytest.raises((NonConvexResult, ObjectOutsideFormation)):
            inverse_kinematics(
                triangle_layout, centroid, 0.179, np.deg2rad([90, 330, 210])
            )

    def test_half_plane_phis_rejected(self, triangle_layout):
        centroid = triangle_layout.holding_points.mean(axis=0)
        # all bearings within a half plane: the anchor cannot balance
        with pytest.raises((NonConvexResult, ObjectOutsideFormation)):
            inverse_kinematics(
                triangle_layout, centroid, 0.4, np.deg2rad([0.0, 60.0, 120.0])
            )

    def test_inelasticity_violated(self):
        layout = equilateral_layout()
        centroid = layout.holding_points.mean(axis=0)
        # nearly flat: requested height close to the holding plane forces the
        # robots out to the full sheet span
        with pytest.raises(InelasticityViolated):
            inverse_kinematics(
                layout, centroid, 0.79 - 1e-9, np.deg2rad([90, 210, 330])
            )

    def test_all_cables_taut_by_construction(self):
        rng = np.random.default_rng(17)
        for n in (3, 4, 5):
            layout, f, eq, phis = draw_consistent_target(rng, n)
            built = inverse_kinematics(layout, eq.sheet_contact, eq.z, phis,
                                       anchor=eq.horizontal)
            l, d = cable_distances(built, solve_equilibrium(built))
            assert np.max(np.abs(l - d)) < 1e-7

    def test_round_trip_consistent_targets(self):
        rng = np.random.default_rng(18)
        worst = 0.0
        for _ in range(30):
            n = int(rng.integers(3, 7))
            layout, f, eq, phis = draw_consistent_target(rng, n)
            built = inverse_kinematics(layout, eq.sheet_contact, eq.z, phis,
                                       anchor=eq.horizontal)
            eq2 = solve_equilibrium(built)
            worst = max(
                worst,
                float(np.linalg.norm(eq2.sheet_contact - eq.sheet_contact)),
                abs(eq2.z - eq.z),
            )
        assert worst < 1e-6

    @given(st.integers(3, 8), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_kkt_commands_round_trip(self, n, seed):
        # commands drawn without a solve: inverse kinematics builds the
        # all-taut state and the solve returns it, the contact within the
        # FEAS_TOL / 0.01 that the draw's conditioning allows
        layout, contact, height, phis, f = draw_kkt_command(np.random.default_rng(seed), n)
        eq = solve_equilibrium(f)
        assert eq.taut_count == n
        assert np.linalg.norm(eq.sheet_contact - contact) <= FEAS_TOL / 0.01
        assert abs(eq.z - height) <= 1e-9

    def test_inconsistent_target_drifts(self, triangle_layout):
        # an arbitrary (contact, height, bearings) triple satisfies the taut
        # equalities but is not an equilibrium: the solved object position
        # must drift away from the request (this is why round-trip suites
        # sample from the consistent family)
        f = inverse_kinematics(
            triangle_layout, np.array([0.05, 0.08]), 0.25,
            np.deg2rad([80.0, 200.0, 340.0]),
        )
        eq = solve_equilibrium(f)
        drift = np.linalg.norm(eq.sheet_contact - [0.05, 0.08])
        assert drift > 1e-2
