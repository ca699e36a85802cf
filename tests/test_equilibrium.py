"""Equilibrium solvers: known taut sets, discovery, oracle agreement."""
import hashlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sheetplan import (
    ContactOutsideHull,
    Formation,
    InconsistentRedundancy,
    InfeasibleFormation,
    SheetLayout,
    SingularSystem,
    TooFewTaut,
    direct_kinematics,
    oracle_equilibrium,
    solve_equilibrium,
)
from sheetplan.equilibrium import FEAS_TOL, TAUT_TOL, _select_best, _solve_plan, cable_distances
from sheetplan.geometry import rotation
from sheetplan import kernels

from conftest import (
    draw_consistent_target,
    draw_folded_case,
    draw_transport_case,
    equilateral_formation,
    regular_polygon,
)

Z_R = 0.79
# sha256 of what `solve_equilibrium` returns on `_digest_cases()`: world
# position, sheet contact, taut flags, boundary_contact and flat, recorded
# before the candidates became one table per team size
SOLVE_DIGEST = "cef1e4834f8005a4d970e7a3f92363f258682efd2eecbeb1ffbdfa1faea6f201"


def residuals(formation, eq):
    """(worst cable-inequality violation, worst taut-equality residual)."""
    l, d = cable_distances(formation, eq)
    ineq = float(np.max(d - l))
    taut = [abs(d[c.index] - l[c.index]) for c in eq.cables if c.taut]
    return ineq, max(taut) if taut else 0.0


class TestTriangle:
    def test_symmetric_side_1_2(self, triangle_layout):
        f = equilateral_formation(triangle_layout, 1.2)
        eq = direct_kinematics(f, [1, 1, 1])
        # symmetry forces the contact to the sheet centroid; the drop is
        # sqrt(l^2 - s^2/3) with l = 1.6/sqrt(3)
        expected = Z_R - np.sqrt((1.6**2 - 1.2**2) / 3.0)
        assert eq.z == pytest.approx(expected, abs=1e-12)
        assert eq.z == pytest.approx(0.179, abs=1e-3)
        assert np.allclose(eq.sheet_contact, triangle_layout.holding_points.mean(axis=0),
                           atol=1e-9)
        assert eq.taut_count == 3

    def test_paper_crossing_height(self, triangle_layout):
        f = equilateral_formation(triangle_layout, 1.04)
        eq = direct_kinematics(f, [1, 1, 1])
        assert eq.z == pytest.approx(0.088, abs=5e-3)   # measured: 9.0 cm

    def test_flat_limit(self, triangle_layout):
        f = equilateral_formation(triangle_layout, 1.6)
        eq = direct_kinematics(f, [1, 1, 1])
        assert eq.z == pytest.approx(Z_R, abs=1e-12)
        assert eq.flat

    def test_hessian_assertion_fires_for_anisotropic_stretch(self):
        # thin sheet triangle contracted in x but stretched toward the pair
        # limit in y: the hang-energy Hessian goes indefinite and the
        # known-taut-set solver must refuse rather than return a saddle
        v = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 0.3]])
        layout = SheetLayout(v, Z_R)
        c = v.mean(axis=0)
        f = Formation(c + (v - c) @ np.diag([0.5, 1.2]).T, layout)
        with pytest.raises(SingularSystem):
            direct_kinematics(f, [1, 1, 1])
        # discovery still matches brute force via the boundary families
        eq = solve_equilibrium(f)
        orc = oracle_equilibrium(f, 1e-3)
        assert eq.z == pytest.approx(orc.z, abs=2e-3)
        assert eq.boundary_contact

    def test_matches_oracle_randomly(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            layout, f = draw_transport_case(rng, 3, slack_pull=False)
            try:
                eq = direct_kinematics(f, [1, 1, 1])
            except (ContactOutsideHull, SingularSystem):
                # taut-interior hypothesis wrong: discovery must still agree
                eq = solve_equilibrium(f)
            orc = oracle_equilibrium(f, 1e-3)
            assert eq.z == pytest.approx(orc.z, abs=2e-3)


class TestQuadrilateral:
    def test_symmetric_square(self):
        layout = SheetLayout(regular_polygon(4, 1.6 / np.sqrt(2), phase=np.pi / 4), Z_R)
        f = Formation(regular_polygon(4, 1.4 / np.sqrt(2), phase=np.pi / 4), layout)
        eq = direct_kinematics(f, [1, 1, 1, 1])
        # center contact, drop sqrt((1.6/sqrt2)^2 - (1.4/sqrt2)^2)
        assert eq.z == pytest.approx(0.79 - np.sqrt(1.28 - 0.98), abs=1e-9)
        assert eq.z == pytest.approx(0.24228, abs=1e-5)
        assert np.allclose(eq.sheet_contact, [0.0, 0.0], atol=1e-9)

    def test_flat_limit(self):
        layout = SheetLayout(regular_polygon(4, 1.6 / np.sqrt(2), phase=np.pi / 4), Z_R)
        f = Formation(layout.holding_points.copy(), layout)
        eq = direct_kinematics(f, [1, 1, 1, 1])
        assert eq.z == pytest.approx(Z_R, abs=1e-12)
        assert eq.flat

    def test_kkt_residuals(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            layout, f = draw_transport_case(rng, 4, slack_pull=False)
            try:
                eq = direct_kinematics(f, [1, 1, 1, 1])
            except Exception:
                continue
            _, taut_res = residuals(f, eq)
            assert taut_res < 1e-8


class TestPentagon:
    def test_symmetric(self):
        layout = SheetLayout(regular_polygon(5, 0.9), Z_R)
        f = Formation(regular_polygon(5, 0.6), layout)
        eq = direct_kinematics(f, [1, 1, 1, 1, 1])
        assert eq.z == pytest.approx(Z_R - np.sqrt(0.81 - 0.36), abs=1e-9)
        assert eq.z == pytest.approx(0.11918, abs=1e-5)
        assert np.allclose(eq.sheet_contact, [0.0, 0.0], atol=1e-9)

    def test_flat_limit(self):
        layout = SheetLayout(regular_polygon(5, 0.9), Z_R)
        f = Formation(layout.holding_points.copy(), layout)
        eq = direct_kinematics(f, [1, 1, 1, 1, 1])
        assert eq.z == pytest.approx(Z_R, abs=1e-12)

    def test_residual_tolerance(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            layout, f = draw_transport_case(rng, 5, slack_pull=False)
            eq = solve_equilibrium(f)
            if eq.taut_count != 5 or eq.boundary_contact:
                continue
            pent = direct_kinematics(f, [1, 1, 1, 1, 1])
            _, taut_res = residuals(f, pent)
            assert taut_res < 1e-9

    def test_redundant_consistent_hexagon(self):
        layout = SheetLayout(regular_polygon(6, 0.9), Z_R)
        f = Formation(regular_polygon(6, 0.6), layout)
        eq = direct_kinematics(f, [1, 1, 1, 1, 1, 1])
        assert eq.z == pytest.approx(Z_R - np.sqrt(0.81 - 0.36), abs=1e-7)
        assert eq.taut_count == 6

    def test_inconsistent_redundancy(self):
        layout = SheetLayout(regular_polygon(6, 0.9), Z_R)
        pts = regular_polygon(6, 0.6)
        pts[5] *= 1.02          # cable 5 can no longer be taut with the rest
        f = Formation(pts, layout)
        with pytest.raises(InconsistentRedundancy):
            direct_kinematics(f, [1, 1, 1, 1, 1, 1])


class TestDirectKinematics:
    def test_dispatch_triangle(self, triangle_layout):
        # the all-taut flags of the symmetric triangle give the same contact
        # as taut-set discovery
        f = equilateral_formation(triangle_layout, 1.2)
        a = direct_kinematics(f, [1, 1, 1])
        b = solve_equilibrium(f)
        assert b.taut_count == 3
        assert np.allclose(a.world_position, b.world_position, atol=1e-12)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_asymmetric_matches_oracle(self, n):
        # on interior all-taut cases the known-taut-set solve reproduces
        # discovery (to round-off) and the brute-force oracle; random carries
        # of five or more robots almost never keep every cable taut, so
        # those cases are built by inverse kinematics instead
        rng = np.random.default_rng(8)
        checked = 0
        while checked < 8:
            if n <= 4:
                layout, f = draw_transport_case(rng, n, slack_pull=False)
            else:
                layout, f, _, _ = draw_consistent_target(rng, n)
            eq = solve_equilibrium(f)
            if eq.taut_count != n or eq.boundary_contact:
                continue
            dk = direct_kinematics(f, [c.taut for c in eq.cables])
            orc = oracle_equilibrium(f, 1e-3)
            assert dk.z == pytest.approx(orc.z, abs=2e-3)
            assert dk.z == pytest.approx(eq.z, abs=1e-10)
            checked += 1

    def test_triangle_subformation_of_five(self):
        # alternating taut triple of a five-robot team: the slack robots'
        # flags drop them, leaving the three-robot team on holding points
        # 0, 2, 4
        layout = SheetLayout(regular_polygon(5, 1.0), Z_R)
        r = 0.62 * layout.holding_points
        for i in (1, 3):
            r[i] = 0.45 * layout.holding_points[i]
        f = Formation(r, layout)
        a = direct_kinematics(f, [1, 0, 1, 0, 1])
        keep = [0, 2, 4]
        sub = Formation(r[keep], SheetLayout(layout.holding_points[keep], Z_R))
        b = direct_kinematics(sub, [1, 1, 1])
        assert np.allclose(a.world_position, b.world_position, atol=1e-12)

    def test_too_few_taut(self):
        layout = SheetLayout(regular_polygon(5, 1.0), Z_R)
        f = Formation(0.7 * layout.holding_points, layout)
        with pytest.raises(TooFewTaut):
            direct_kinematics(f, [1, 1, 0, 0, 0])

    def test_infeasible_formation(self, triangle_layout):
        f = equilateral_formation(triangle_layout, 1.7)   # wider than the sheet
        with pytest.raises(InfeasibleFormation):
            direct_kinematics(f, [1, 1, 1])


class TestSolveEquilibrium:
    def test_symmetric_all_taut(self, triangle_layout):
        f = equilateral_formation(triangle_layout, 1.2)
        eq = solve_equilibrium(f)
        assert eq.taut_count == 3
        assert eq.z == pytest.approx(0.1789899, abs=1e-6)

    def test_slack_cable_discovery(self):
        # five holding points; robots 1 and 3 pulled far enough inward that
        # their cables hang slack while the 0/2/4 triangle carries the load
        layout = SheetLayout(regular_polygon(5, 1.0), Z_R)
        r = np.zeros((5, 2))
        for i in (0, 2, 4):
            r[i] = 0.62 * layout.holding_points[i]
        for i in (1, 3):
            r[i] = 0.45 * layout.holding_points[i]
        f = Formation(r, layout)
        eq = solve_equilibrium(f)
        assert eq.taut_indices == (0, 2, 4)
        assert eq.taut_count == 3
        l, d = cable_distances(f, eq)
        for i in (1, 3):
            assert d[i] < l[i] - 1e-3        # strictly slack
        orc = oracle_equilibrium(f, 1e-3)
        assert eq.z == pytest.approx(orc.z, abs=2e-3)

    def test_symmetric_pentagon_all_taut(self):
        layout = SheetLayout(regular_polygon(5, 0.9), Z_R)
        f = Formation(regular_polygon(5, 0.6), layout)
        eq = solve_equilibrium(f)
        assert eq.taut_count == 5
        assert eq.z == pytest.approx(Z_R - np.sqrt(0.45), abs=1e-9)

    def test_infeasible(self, triangle_layout):
        f = equilateral_formation(triangle_layout, 1.7)
        with pytest.raises(InfeasibleFormation):
            solve_equilibrium(f)

    def test_translation_invariance(self):
        rng = np.random.default_rng(32)
        for _ in range(10):
            n = int(rng.integers(3, 7))
            layout, f = draw_transport_case(rng, n)
            eq = solve_equilibrium(f)
            shift = rng.uniform(-5, 5, 2)
            eq2 = solve_equilibrium(f.translated(shift))
            assert np.allclose(eq2.horizontal, eq.horizontal + shift, atol=1e-12)
            assert eq2.z == pytest.approx(eq.z, abs=1e-12)
            assert np.allclose(eq2.sheet_contact, eq.sheet_contact, atol=1e-12)

    @given(st.integers(0, 2**32 - 1), st.integers(3, 6))
    @settings(max_examples=20, deadline=None)
    def test_rigid_motion_and_relabelling_invariance(self, seed, n):
        rng = np.random.default_rng(seed)
        layout, f, _, _ = draw_consistent_target(rng, n)
        eq = solve_equilibrium(f)
        # rotate and translate the robots: the sheet frame is unchanged
        rot = rotation(rng.uniform(-np.pi, np.pi))
        shift = rng.uniform(-5, 5, 2)
        moved = solve_equilibrium(Formation(f.robot_positions @ rot.T + shift, layout))
        assert abs(moved.z - eq.z) <= 1e-9
        assert np.max(np.abs(moved.sheet_contact - eq.sheet_contact)) <= 1e-9
        assert np.max(np.abs(moved.horizontal - (rot @ eq.horizontal + shift))) <= 1e-9
        assert moved.taut_indices == eq.taut_indices
        # relabel holding points and robots cyclically: index i becomes i + k
        k = int(rng.integers(1, n))
        relabelled = SheetLayout(np.roll(layout.holding_points, k, axis=0), layout.holding_height)
        rolled = solve_equilibrium(Formation(np.roll(f.robot_positions, k, axis=0), relabelled))
        assert abs(rolled.z - eq.z) <= 1e-9
        assert np.max(np.abs(rolled.sheet_contact - eq.sheet_contact)) <= 1e-9
        assert np.max(np.abs(rolled.horizontal - eq.horizontal)) <= 1e-9
        assert rolled.taut_indices == tuple(sorted((i + k) % n for i in eq.taut_indices))

    def test_constraint_satisfaction(self):
        rng = np.random.default_rng(33)
        for _ in range(40):
            n = int(rng.integers(3, 7))
            layout, f = draw_transport_case(rng, n)
            eq = solve_equilibrium(f)
            ineq, taut_res = residuals(f, eq)
            assert ineq <= FEAS_TOL
            if not eq.boundary_contact:
                assert taut_res <= 10 * TAUT_TOL

    def test_energy_local_minimality(self):
        rng = np.random.default_rng(34)
        v_dirs = [np.array([np.cos(a), np.sin(a)]) for a in np.linspace(0, 2 * np.pi, 9)[:-1]]
        for _ in range(15):
            n = int(rng.integers(3, 7))
            layout, f = draw_transport_case(rng, n)
            eq = solve_equilibrium(f)
            if eq.boundary_contact:
                continue
            for d in v_dirs:
                u = eq.sheet_contact + 1e-4 * d
                rho = np.linalg.norm(layout.holding_points - u, axis=1)
                _, z = kernels.lowest_point(f.robot_positions, Z_R, rho)
                assert z >= eq.z - 1e-8

    def test_oracle_flat_limit(self, triangle_layout):
        f = equilateral_formation(triangle_layout, 1.6)
        orc = oracle_equilibrium(f, 1e-3)
        assert orc.z == pytest.approx(Z_R, abs=1e-3)

    def test_boundary_contact_case(self):
        # obtuse sheet triangle, uniformly contracted: the unconstrained
        # minimum sits at the circumcenter, outside the sheet, so the
        # contact pins to the long edge
        v = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 0.25]])
        layout = SheetLayout(v, 1.29)
        c = v.mean(axis=0)
        f = Formation(c + 0.8 * (v - c), layout)
        eq = solve_equilibrium(f)
        assert eq.boundary_contact
        assert eq.sheet_contact[1] == pytest.approx(0.0, abs=1e-9)   # on edge 0-1
        orc = oracle_equilibrium(f, 1e-3)
        assert eq.z == pytest.approx(orc.z, abs=2e-3)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_folded_edge_matches_oracle(self, n):
        # the boundary-contact regime that acceptance criterion 2 leaves out:
        # one folded sheet edge makes the load hang from the fold line or
        # pinned to the sheet boundary
        rng = np.random.default_rng(60 + n)
        draws = 12
        boundary = 0
        for _ in range(draws):
            layout, f = draw_folded_case(rng, n)
            eq = solve_equilibrium(f)
            boundary += eq.boundary_contact
            l, d = cable_distances(f, eq)
            assert np.all(d <= l + FEAS_TOL)
            orc = oracle_equilibrium(f, 1e-3)
            assert abs(eq.z - orc.z) <= 2e-3
        assert boundary > draws // 2

    @pytest.mark.parametrize("n", [7, 8])
    def test_large_teams_match_oracle(self, n):
        # the most robots a sheet may have; only these teams have taut
        # subsets of seven or eight cables (difference systems of six or
        # seven rows)
        rng = np.random.default_rng(70 + n)
        for _ in range(4):
            layout, f = draw_transport_case(rng, n, max_tries=5000)
            eq = solve_equilibrium(f)
            orc = oracle_equilibrium(f, 1e-3)
            assert abs(eq.z - orc.z) <= 2e-3


def _digest_cases():
    """Seeded transport and folded-edge formations, three of each per n = 3..8."""
    rng = np.random.default_rng(91)
    for n in range(3, 9):
        for _ in range(3):
            yield draw_transport_case(rng, n, max_tries=5000)[1]
            yield draw_folded_case(rng, n, max_tries=5000)[1]


def old_select(z, sets, valid):
    """The selection rule as a key: lowest, then most taut cables, then the
    first taut set in index order; the first such row on a full tie."""
    return min(valid, key=lambda k: (z[k], -len(sets[k]), sets[k]), default=None)


class TestCandidateTable:
    def test_solve_digest(self):
        h = hashlib.sha256()
        for f in _digest_cases():
            eq = solve_equilibrium(f)
            h.update(eq.world_position.tobytes())
            h.update(eq.sheet_contact.tobytes())
            h.update(bytes([*(c.taut for c in eq.cables), eq.boundary_contact, eq.flat]))
            assert type(eq.boundary_contact) is bool and type(eq.flat) is bool
        assert h.hexdigest() == SOLVE_DIGEST

    @given(st.integers(3, 8), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_selection_matches_old_rule(self, n, seed):
        # robots on their holding points with every contact at the sheet
        # centroid: each cable stays within FEAS_TOL of its geodesic for a
        # hang of up to 3e-4 m, so only `ok` and the kernel decide validity
        rng = np.random.default_rng(seed)
        sets, _, _, _, _, rank = _solve_plan(n)
        v = r = regular_polygon(n, 1.0)
        rows = len(sets)
        u = np.tile(v.mean(axis=0), (rows, 1))
        q = np.tile(r.mean(axis=0), (rows, 1))
        z = Z_R - 1e-4 * rng.integers(0, 4, rows)      # four heights: forced ties
        ok = rng.random(rows) < 0.7
        energy = rng.random(rows) < 0.5

        def kernel(centers, z_r, rho):
            # the lowest point agrees with the candidate height on `energy` rows
            kept = np.flatnonzero(ok)
            assert len(rho) == len(kept)       # every `ok` row passed the cable checks
            return np.zeros((len(kept), 2)), z[kept] + np.where(energy[kept], 0.0, 1.0)

        with mock.patch.object(kernels, "lowest_point_grid", kernel):
            best = _select_best(v, Z_R, r, z, u, q, ok, rank)
        assert best == old_select(z, sets, np.flatnonzero(ok & energy))
