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
    SheetLayout,
    SheetPlanError,
    ValidationError,
    inverse_kinematics,
    solve_equilibrium,
)
from sheetplan.equilibrium import (
    FEAS_TOL,
    IK_ANCHOR_OUTSIDE,
    IK_INELASTIC,
    IK_NONCONVEX,
    IK_NONFINITE,
    IK_OFF_SHEET,
    IK_TOO_HIGH,
    IK_TOO_SHORT,
    cable_distances,
    inverse_kinematics_stack,
)

from conftest import (
    IK_ROW_KINDS,
    _convex_ccw,
    draw_consistent_target,
    draw_kkt_command,
    equilateral_layout,
    ik_row,
    reference_inverse_kinematics,
)


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

    @given(st.integers(3, 8), st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_solve_inverse_solve_round_trip(self, n, seed):
        # a drawn all-taut formation, rebuilt from its solved contact, height
        # and bearings, returns its robots; a solve pins five cables, so at
        # n >= 6 the others keep a taut residual |l - d| (up to about 7e-8 m),
        # which a rebuilt radius scales by l / radius, below 2 on these draws
        layout, _, _, _, f = draw_kkt_command(np.random.default_rng(seed), n)
        eq = solve_equilibrium(f)
        l, d = cable_distances(f, eq)
        r, q = f.robot_positions, eq.horizontal
        rebuilt = inverse_kinematics(layout, eq.sheet_contact, eq.z,
                                     np.arctan2(r[:, 1] - q[1], r[:, 0] - q[0]), anchor=q)
        assert np.max(np.abs(rebuilt.robot_positions - r)) <= 1e-9 + 2 * np.max(np.abs(l - d))
        if n <= 5:
            assert np.max(np.abs(rebuilt.robot_positions - r)) <= 1e-9
        again = solve_equilibrium(rebuilt)
        assert again.taut_indices == eq.taut_indices == tuple(range(n))
        assert abs(again.z - eq.z) <= 1e-9


def jittered_layout(rng, n):
    while True:
        ang = 2 * np.pi / n * (np.arange(n) + rng.uniform(-0.2, 0.2, n))
        v = rng.uniform(0.7, 1.0, n)[:, None] * np.column_stack([np.cos(ang), np.sin(ang)])
        if _convex_ccw(v):
            return SheetLayout(v, 0.79)


def reference_code(layout, row):
    """(rejection code, error) of one command by the reference one-point
    inverse kinematics; the code is 0 and the error its formation when it
    builds."""
    try:
        return 0, reference_inverse_kinematics(layout, *row)
    except ValidationError as err:
        return {"must be finite": IK_NONFINITE,
                "must lie strictly inside the sheet polygon": IK_OFF_SHEET,
                "must be below the holding height": IK_TOO_HIGH,
                }[str(err).split(": ", 1)[1]], err
    except SheetPlanError as err:
        return {CableTooShort: IK_TOO_SHORT, InelasticityViolated: IK_INELASTIC,
                NonConvexResult: IK_NONCONVEX, ObjectOutsideFormation: IK_ANCHOR_OUTSIDE,
                }[type(err)], err


class TestStackedInverseKinematics:
    @given(st.integers(3, 8), st.integers(0, 2**32 - 1),
           st.lists(st.sampled_from(IK_ROW_KINDS), min_size=1, max_size=14))
    @settings(max_examples=60, deadline=None)
    def test_rows_match_one_point_calls(self, n, seed, kinds):
        """Each row builds the bytes of the reference one-point code, or is
        rejected with the code of the check that raised there, and the
        one-point `inverse_kinematics` raises the same class."""
        rng = np.random.default_rng(seed)
        layout = jittered_layout(rng, n)
        rows = [ik_row(rng, layout, kind) for kind in kinds]
        contacts, heights, phis, anchors = map(np.array, zip(*rows))
        robots, code = inverse_kinematics_stack(layout, contacts, heights, phis, anchors)
        assert robots.shape == (len(rows), n, 2) and code.shape == (len(rows),)
        for row, built, got in zip(rows, robots, code):
            want, result = reference_code(layout, row)
            assert got == want
            if want:
                with pytest.raises(type(result)) as err:
                    inverse_kinematics(layout, *row)
                assert type(err.value) is type(result)
                assert getattr(err.value, "field", None) == getattr(result, "field", None)
            else:
                assert built.tobytes() == result.robot_positions.tobytes()
                one = inverse_kinematics(layout, *row)
                assert one.robot_positions.tobytes() == result.robot_positions.tobytes()

    def test_rows_reach_every_code(self):
        # the row kinds of the property test hit every check
        rng = np.random.default_rng(3)
        codes = set()
        for n in range(3, 9):
            layout = jittered_layout(rng, n)
            rows = [ik_row(rng, layout, kind) for kind in IK_ROW_KINDS * 8]
            codes |= set(inverse_kinematics_stack(layout, *map(np.array, zip(*rows)))[1].tolist())
        assert codes == set(range(8))

    def test_one_anchor_for_every_row(self, triangle_layout):
        rows = [ik_row(np.random.default_rng(k), triangle_layout, "plain") for k in range(6)]
        contacts, heights, phis, _ = map(np.array, zip(*rows))
        shared = inverse_kinematics_stack(triangle_layout, contacts, heights, phis, (0.1, -0.2))
        each = inverse_kinematics_stack(triangle_layout, contacts, heights, phis,
                                        np.tile([0.1, -0.2], (6, 1)))
        assert shared[0].tobytes() == each[0].tobytes()
        assert shared[1].tolist() == each[1].tolist()
