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
    NoConvergence,
    NoEquilibrium,
    SheetLayout,
    SingularSystem,
    TooFewTaut,
    direct_kinematics,
    load_scenario,
    oracle_equilibrium,
    run_pipeline,
    solve_equilibrium,
)
from sheetplan.equilibrium import (
    ENERGY_TOL,
    FEAS_TOL,
    SLACK_BAND,
    TAUT_TOL,
    _cables,
    _edge_floors,
    _edge_samples,
    _equilibrium,
    _pair_floors,
    _scan_contacts,
    _select_best,
    _sheet_terms,
    _shortest_floors,
    _solve_plan,
    _stationary_points,
    _triple_floors,
    cable_distances,
    solve_equilibria,
)
from sheetplan.geometry import (
    cable_lengths,
    dot,
    pair_distances,
    pair_index,
    points_in_polygon,
    polygon_sides,
    rotation,
)
from sheetplan import equilibrium, kernels
from sheetplan.cli import main as cli_main

from conftest import (
    CORRIDOR,
    draw_consistent_target,
    draw_folded_case,
    draw_ridge_case,
    draw_transport_case,
    equilateral_formation,
    equilateral_layout,
    reference_lowest_point,
    regular_polygon,
    winning_row,
)

Z_R = 0.79
# sha256 of what `solve_equilibrium` returns on `_digest_cases()`: world
# position, sheet contact, taut flags, boundary_contact and flat, recorded
# before the candidates became one table per team size
SOLVE_DIGEST = "cef1e4834f8005a4d970e7a3f92363f258682efd2eecbeb1ffbdfa1faea6f201"
# sha256 of the `_state_bytes` of `oracle_equilibrium` on `_oracle_cases()`
# at 1 mm, recorded before the oracle's scans skipped contacts
ORACLE_DIGEST = "84c2f28d9de519968044e355f625292bbaf1f94752f62acd63154e13c50102e2"


def residuals(formation, eq):
    """(worst cable-inequality violation, worst taut-equality residual)."""
    l, d = cable_distances(formation, eq)
    ineq = float(np.max(d - l))
    return ineq, float(np.abs(d - l)[eq.taut].max(initial=0.0))


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
            dk = direct_kinematics(f, eq.taut)
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

    def test_taut_residual_above_tolerance(self, triangle_layout):
        # a stationary point 1e-8 m off in height misses its taut cables by
        # more than TAUT_TOL
        def nudged(*args):
            *entries, z, ok = _stationary_points(*args)
            return *entries, z + 1e-8, ok

        f = equilateral_formation(triangle_layout, 1.2)
        with mock.patch.object(equilibrium, "_stationary_points", nudged), \
                pytest.raises(NoConvergence, match="taut residual"):
            direct_kinematics(f, [1, 1, 1])


class TestSolveEquilibrium:
    def test_symmetric_all_taut(self, triangle_layout):
        f = equilateral_formation(triangle_layout, 1.2)
        eq = solve_equilibrium(f)
        assert eq.taut_count == 3
        assert eq.z == pytest.approx(0.1789899, abs=1e-6)

    def test_equality_is_identity(self, triangle_layout):
        # array fields have no single truth value: == and hash must not ask for one
        f = equilateral_formation(triangle_layout, 1.2)
        eq = solve_equilibrium(f)
        assert (solve_equilibrium(f) == solve_equilibrium(f)) is False
        assert eq == eq and len({eq, eq, solve_equilibrium(f)}) == 2

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

    def test_no_validated_candidate(self, triangle_layout, tmp_path, capsys):
        # a kernel that finds no lowest point validates no row: the one-
        # formation solve and `sheetplan kinematics` (exit 1) name
        # NoEquilibrium, and in a stack that formation is absent while its
        # neighbours keep the bits of their own solves
        def no_lowest(centers, z_r, rho):
            return None, np.full(len(rho), np.inf)

        lowest = kernels.lowest_point_grid

        def no_lowest_for_f(centers, z_r, rho):
            q, z = lowest(centers, z_r, rho)
            # each row's team, or the one team shared by every row
            own = centers.points if centers.run is None else centers.points[centers.run]
            return q, np.where(np.all(own == centers_f, axis=(1, 2)), np.inf, z)

        f = equilateral_formation(triangle_layout, 1.2)
        path = tmp_path / "formation.txt"
        path.write_text("\n".join([f"sheet_height = {Z_R}"]
                                  + [f"sheet_point = {x!r} {y!r}"
                                     for x, y in triangle_layout.holding_points.tolist()]
                                  + [f"robot = {x!r} {y!r}"
                                     for x, y in f.robot_positions.tolist()]))
        centers_f = f.robot_positions - f.robot_positions[0]
        others = [equilateral_formation(triangle_layout, side) for side in (1.0, 1.1)]
        one = [_state_bytes(solve_equilibrium(g)) for g in others]
        with mock.patch.object(kernels, "lowest_point_grid", no_lowest_for_f):
            assert _stacked([others[0], f, others[1]]) == [one[0], None, one[1]]
        with mock.patch.object(kernels, "lowest_point_grid", no_lowest):
            assert _stacked([f]) == [None]
            with pytest.raises(NoEquilibrium):
                solve_equilibrium(f)
            assert cli_main(["kinematics", "--formation", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: no candidate equilibrium validated")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_huge_coordinates_are_infeasible(self, triangle_layout):
        # the robot pair distances overflow a float's square: the pair reads
        # as infinitely far apart, with no overflow warning on the way
        f = Formation([[0.0, 0.0], [1e300, 0.0], [0.0, 1.0]], triangle_layout)
        for solve in (solve_equilibrium, oracle_equilibrium,
                      lambda f: direct_kinematics(f, [1, 1, 1])):
            with pytest.raises(InfeasibleFormation, match="by inf m"):
                solve(f)
        assert _stacked([f]) == [None]

    def test_translation_invariance(self):
        rng = np.random.default_rng(32)
        for _ in range(10):
            n = int(rng.integers(3, 7))
            layout, f = draw_transport_case(rng, n)
            eq = solve_equilibrium(f)
            shift = rng.uniform(-5, 5, 2)
            eq2 = solve_equilibrium(Formation(f.robot_positions + shift, f.layout))
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
        # mirror the sheet and the team (x -> -x), in reversed order to stay
        # counterclockwise: index i becomes n - 1 - i
        flip = np.array([-1.0, 1.0])
        mirrored = solve_equilibrium(Formation(
            (f.robot_positions * flip)[::-1],
            SheetLayout((layout.holding_points * flip)[::-1], layout.holding_height)))
        assert abs(mirrored.z - eq.z) <= 1e-9
        assert np.max(np.abs(mirrored.sheet_contact - eq.sheet_contact * flip)) <= 1e-9
        assert np.max(np.abs(mirrored.horizontal - eq.horizontal * flip)) <= 1e-9
        assert mirrored.taut_indices == tuple(sorted(n - 1 - i for i in eq.taut_indices))
        # scale the sheet, the team and the holding height alike
        scaled = solve_equilibrium(Formation(
            2.5 * f.robot_positions,
            SheetLayout(2.5 * layout.holding_points, 2.5 * layout.holding_height)))
        assert abs(scaled.z - 2.5 * eq.z) <= 1e-9
        assert np.max(np.abs(scaled.sheet_contact - 2.5 * eq.sheet_contact)) <= 1e-9
        assert np.max(np.abs(scaled.horizontal - 2.5 * eq.horizontal)) <= 1e-9
        assert scaled.taut_indices == eq.taut_indices

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
                _, z = reference_lowest_point(f.robot_positions, Z_R, rho)
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


def _state_bytes(eq):
    """What SOLVE_DIGEST hashes of one equilibrium."""
    return (eq.world_position.tobytes() + eq.sheet_contact.tobytes()
            + eq.taut.tobytes() + bytes([eq.boundary_contact, eq.flat]))


def _stacked(formations):
    """`solve_equilibria` of a nonempty list of formations on one layout:
    each one's `_state_bytes`, or None where it is absent from the result."""
    layout = formations[0].layout
    assert all(f.layout is layout for f in formations)
    at, *rows = solve_equilibria(layout, np.array([f.robot_positions for f in formations]))
    assert np.all(np.diff(at) > 0)             # in stack order
    got = [None] * len(formations)
    for k, u, q, z, l, taut, boundary in zip(at.tolist(), *rows):
        got[k] = _state_bytes(_equilibrium(u, q, z, layout.holding_height, l, taut,
                                           bool(boundary)))
    return got


def _scaled(formation, factor):
    """The formation scaled about its centroid: past the sheet spacing at 3."""
    r = formation.robot_positions
    return Formation(r.mean(axis=0) + factor * (r - r.mean(axis=0)), formation.layout)


def _stretched(formation):
    """The formation scaled about its centroid past the sheet spacing."""
    return _scaled(formation, 3.0)


def _moved(formation, rng):
    """The formation turned and shifted rigidly, at random."""
    turn = rotation(rng.uniform(0.0, 2 * np.pi))
    return Formation(formation.robot_positions @ turn.T + rng.uniform(-5.0, 5.0, 2),
                     formation.layout)


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
            h.update(eq.taut.tobytes() + bytes([eq.boundary_contact, eq.flat]))
            assert type(eq.boundary_contact) is bool and type(eq.flat) is bool
        assert h.hexdigest() == SOLVE_DIGEST

    @given(st.integers(3, 8), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_selection_matches_old_rule(self, n, seed):
        # robots on their holding points with every contact within a
        # nanometre of the sheet centroid, each row at its own offset: each
        # cable stays within FEAS_TOL of its geodesic for a hang of up to
        # 3e-4 m (about 5e-8 m to spare), so only `ok` and the kernel decide
        # validity, and a row's radii tell which row it is
        rng = np.random.default_rng(seed)
        sets = _solve_plan(n)[0]
        v = r = regular_polygon(n, 1.0)
        rows = len(sets)
        u = v.mean(axis=0) + rng.uniform(-5e-10, 5e-10, (rows, 2))
        q = np.tile(r.mean(axis=0), (rows, 1))
        z = Z_R - 1e-4 * rng.integers(0, 4, rows)      # four heights: forced ties
        ok = rng.random(rows) < 0.7
        energy = rng.random(rows) < rng.choice([0.0, 0.1, 0.5])    # 0: every round runs
        radii, calls = cable_lengths(v, u), []

        def kernel(centers, z_r, rho):
            # the lowest point agrees with the candidate height on `energy` rows
            sent, k = np.nonzero(np.all(rho[:, None] == radii, axis=2))
            assert np.array_equal(sent, np.arange(len(rho))) and np.all(ok[k])
            calls.append(k)
            # one formation: its team, robot 0 at the origin, shared by every row
            assert centers.run is None and np.array_equal(centers.points, (r - r[0])[None])
            assert z_r == Z_R
            return np.zeros((len(k), 2)), z[k] + np.where(energy[k], 0.0, 1.0)

        with mock.patch.object(kernels, "lowest_point_grid", kernel):
            (best,), _, _ = _select_best(_sheet_terms(SheetLayout(v, Z_R)), r[None], z[None],
                                         u[None], q[None], ok[None])
        expected = old_select(z, sets, np.flatnonzero(ok & energy))
        assert best == (-1 if expected is None else expected)
        # no row twice, and rounds of 1, 2, 4, ... rows: a log of the rows
        sent = np.concatenate(calls or [[]])
        assert len(np.unique(sent)) == len(sent)
        assert len(calls) <= np.ceil(np.log2(np.count_nonzero(ok) + 1))


class TestFlatSheet:
    @pytest.mark.parametrize("v", [
        regular_polygon(3, 1.6 / np.sqrt(3)),
        1.6 * np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]),
    ], ids=["equilateral", "square"])
    def test_sheet_shaped_team_hangs_flat(self, v):
        # the sheet itself moved rigidly, near the origin and 40 m from it:
        # every pair is fully stretched, so the object sits at the holding
        # height with every cable taut, as direct kinematics puts it
        layout = SheetLayout(v, Z_R)
        rng, twin_rng = np.random.default_rng(len(v)), np.random.default_rng(10 + len(v))
        for offset in (0.0, 2.0, 40.0):
            for angle in rng.uniform(0.0, 2 * np.pi, 30):
                shift = rng.uniform(-offset, offset, 2)
                f = Formation(v @ rotation(angle).T + shift, layout)
                eq = solve_equilibrium(f)
                assert eq.flat and eq.z == Z_R and eq.taut_count == len(v)
                dk = direct_kinematics(f, [1] * len(v))
                assert _state_bytes(eq) == _state_bytes(dk)
                assert eq.geodesic_lengths.tobytes() == dk.geodesic_lengths.tobytes()
            # stacked, each team keeps the bits of its own solve: its flat
            # candidates land in its own rows of the candidate table
            shifts = twin_rng.uniform(-offset, offset, (8, 2))
            teams = [Formation(v @ rotation(angle).T + shift, layout)
                     for angle, shift in zip(twin_rng.uniform(0.0, 2 * np.pi, 8), shifts)]
            assert _stacked(teams) == [_state_bytes(solve_equilibrium(f)) for f in teams]


class TestSheetTerms:
    def test_terms_follow_their_layout(self):
        # each digest case solved on its layout A twice (a build, then a
        # read), again after a solve of the case before it (layout B, whose
        # build replaces A's), and on a fresh layout with A's points: every
        # solve keeps the bits of the digest
        cases = list(_digest_cases())
        h, before = hashlib.sha256(), cases[-1]
        for f in cases:
            first = _state_bytes(solve_equilibrium(f))
            again = _state_bytes(solve_equilibrium(f))
            solve_equilibrium(before)
            after = _state_bytes(solve_equilibrium(f))
            twin = Formation(f.robot_positions, SheetLayout(f.layout.holding_points, Z_R))
            assert first == again == after == _state_bytes(solve_equilibrium(twin))
            h.update(first)
            before = f
        assert h.hexdigest() == SOLVE_DIGEST

    def test_one_build_per_layout(self):
        # every solve of a `corridor` run (timeline samples, the final
        # placement, the optimizer's polls) reads the terms of the
        # scenario's one layout, built once at its first solve; the edge
        # systems' part is built at most once more
        reads, builds, systems = [], [], []
        terms, build, sheet_systems = (equilibrium._sheet_terms, equilibrium._SheetTerms,
                                       equilibrium._sheet_systems)

        def spy(calls, fn):
            def record(*args):
                calls.append(args[0])
                return fn(*args)
            return record

        scenario = load_scenario(CORRIDOR)
        with mock.patch.object(equilibrium, "_sheet_terms", spy(reads, terms)), \
                mock.patch.object(equilibrium, "_SheetTerms", spy(builds, build)), \
                mock.patch.object(equilibrium, "_sheet_systems", spy(systems, sheet_systems)):
            run_pipeline(scenario)
        assert builds == [scenario.initial_formation.layout]
        assert len(reads) > 600 and all(layout is builds[0] for layout in reads)
        assert len(systems) <= 2

    def test_edge_terms_built_on_first_use(self):
        # a solve that skips every edge builds no edge terms; the first solve
        # on the sheet that needs an edge builds them
        rng = np.random.default_rng(23)
        while True:
            need = draw_folded_case(rng, 4, 5000, (0.4, 0.5))[1]
            v = need.layout.holding_points
            layout = SheetLayout(v, Z_R)
            skip = Formation(v.mean(axis=0) + 0.7 * (v - v.mean(axis=0)), layout)
            if not _skips_every_edge(need) and _skips_every_edge(skip):
                break
        sheet = _sheet_terms(layout)
        assert "edges" not in vars(sheet)
        solve_equilibrium(Formation(need.robot_positions, layout))
        assert "edges" in vars(sheet)

    def test_terms_of_the_last_layout_only(self):
        # only the last layout's terms are kept: solves on it read them, and
        # a solve on another layout rebuilds them, also on going back
        a, b = (SheetLayout(regular_polygon(n, 1.0), Z_R) for n in (4, 5))
        built, build = [], equilibrium._SheetTerms

        def spy(layout):
            built.append(layout)
            return build(layout)

        with mock.patch.object(equilibrium, "_SheetTerms", spy):
            for layout in (a, a, b, b, a):
                solve_equilibrium(Formation(0.6 * layout.holding_points, layout))
            assert _sheet_terms(a) is _sheet_terms(a)
        assert built == [a, b, a]


class TestStackedSolve:
    def test_stack_matches_one_at_a_time(self):
        # each digest case stacked on its layout with its stretched twin
        # (absent), copies shrunk about its centroid and rigidly moved ones,
        # in both orders: every row carries the bytes of its own solve
        rng = np.random.default_rng(8)
        stacked = []
        for f in _digest_cases():
            rows = [f, _stretched(f), _scaled(f, 0.97), _moved(f, rng),
                    _scaled(_moved(f, rng), 0.9)]
            one = [None if g is rows[1] else _state_bytes(solve_equilibrium(g)) for g in rows]
            got = _stacked(rows)
            assert got == one and got[1] is None
            assert _stacked(rows[::-1]) == one[::-1]
            stacked.append(got[0])
        assert hashlib.sha256(b"".join(stacked)).hexdigest() == SOLVE_DIGEST

    def test_cables_of_the_returned_state(self):
        # the selection hands down the winner's cables: alone and stacked
        # with a stretched twin (absent) and moved, shrunk copies, every
        # returned state's lengths and taut flags are the bits of a fresh
        # `cable_distances` of that state and its SLACK_BAND test
        def check(formation, eq):
            l, d = cable_distances(formation, eq)
            assert eq.geodesic_lengths.tobytes() == l.tobytes()
            assert eq.taut.tobytes() == (d >= l - SLACK_BAND).tobytes()

        rng = np.random.default_rng(9)
        for f in _digest_cases():
            check(f, solve_equilibrium(f))
            rows = [f, _stretched(f), _moved(f, rng), _scaled(_moved(f, rng), 0.9)]
            at, *states = solve_equilibria(f.layout, np.array([g.robot_positions for g in rows]))
            assert at.tolist() == [0, 2, 3]
            for k, u, q, z, l, taut, boundary in zip(at.tolist(), *states):
                check(rows[k], _equilibrium(u, q, z, f.holding_height, l, taut, bool(boundary)))

    def test_failing_rows_are_absent(self):
        rng = np.random.default_rng(5)
        _, f = draw_transport_case(rng, 4)
        bad = _stretched(f)
        with pytest.raises(InfeasibleFormation, match="robot pair exceeds sheet spacing by"):
            solve_equilibrium(bad)
        assert _stacked([bad, f, bad]) == [None, _state_bytes(solve_equilibrium(f)), None]
        assert _stacked([bad, bad]) == [None, None]
        # the empty stack: every array empty, with its row shape
        empty = solve_equilibria(f.layout, np.zeros((0, 4, 2)))
        assert [x.shape for x in empty] == [(0,), (0, 2), (0, 2), (0,), (0, 4), (0, 4), (0,)]

    def test_kernel_gets_one_set_per_formation(self):
        # a one-formation solve hands the kernel one shared set of centers
        # (its team, robot 0 at the origin) and the scalar holding height; a
        # stack hands it the teams of its formations, one set each, and maps
        # every row to its formation's set
        _, f = draw_transport_case(np.random.default_rng(6), 5)
        stack = [f, _scaled(f, 0.95), _scaled(f, 0.9)]
        lowest, calls = kernels.lowest_point_grid, []

        def spy(centers, z_r, rho):
            calls.append((centers, z_r, rho))
            return lowest(centers, z_r, rho)

        with mock.patch.object(kernels, "lowest_point_grid", spy):
            one = [solve_equilibrium(g) for g in stack]
            assert len(calls) == len(stack)     # every edge skipped: one selection each
            for (centers, z_r, _), g in zip(calls, stack):
                r = g.robot_positions
                assert centers.run is None and np.array_equal(centers.points, (r - r[0])[None])
                assert np.ndim(z_r) == 0 and z_r == g.holding_height
            del calls[:]
            _stacked(stack)
        ((centers, z_r, rho),) = calls
        teams = np.array([g.robot_positions for g in stack])
        assert np.array_equal(centers.points, teams - teams[:, :1])
        assert np.ndim(z_r) == 0 and z_r == f.holding_height
        assert len(centers.run) == len(rho) and np.all(np.diff(centers.run) >= 0)
        for k, eq in enumerate(one):
            # the winning row of each formation (its radii are the winner's
            # cable lengths) is mapped to that formation's set
            won = np.flatnonzero(np.all(rho == eq.geodesic_lengths, axis=1))
            assert len(won) and np.all(centers.run[won] == k)

    def test_phase_two_in_a_mixed_stack(self):
        # on one sheet, teams whose every edge is skipped stacked with teams
        # that solve some edges again: only the latter reach the second
        # selection, and each row keeps the bits of its own solve. A folded
        # draw that needs its edges gives the sheet, and the sheet shrunk
        # about its centroid a team that skips them; with a rigidly moved
        # copy of each
        rng = np.random.default_rng(23)
        for n in range(3, 9):
            skip = None
            while skip is None:
                need = draw_folded_case(rng, n, 5000, (0.4, 0.5))[1]
                v = need.layout.holding_points
                team = Formation(v.mean(axis=0) + 0.7 * (v - v.mean(axis=0)), need.layout)
                if not _skips_every_edge(need) and _skips_every_edge(team):
                    skip = team
            mixed = [need, skip, _moved(need, rng), _moved(skip, rng)]
            one = [_state_bytes(solve_equilibrium(f)) for f in mixed]
            for order in (slice(None), slice(None, None, -1)):
                sizes = []
                select = equilibrium._select_best

                def spy(*args):
                    sizes.append(len(args[5]))
                    return select(*args)

                with mock.patch.object(equilibrium, "_select_best", spy):
                    got = _stacked(mixed[order])
                assert sizes == [4, 2]
                assert got == one[order]

    def test_ridge_hang(self):
        rng = np.random.default_rng(21)
        cases = [draw_ridge_case(rng)[1] for _ in range(4)]
        for f in cases:
            row, interior = winning_row(f)
            assert interior <= row < interior + 6          # a ridge row won
            eq = solve_equilibrium(f)
            assert eq.boundary_contact
            v, r = f.layout.holding_points, f.robot_positions
            i, j = (0, 2) if row - interior == 1 else (1, 3)   # the two diagonals
            assert row - interior in (1, 4)
            assert eq.sheet_contact.tobytes() == (0.5 * (v[i] + v[j])).tobytes()
            assert eq.horizontal.tobytes() == (0.5 * (r[i] + r[j])).tobytes()
            # stacked on its layout with a rigidly moved copy and its stretched
            # twin, in both orders, it keeps the bytes of its own solve
            rows = [f, _moved(f, rng), _stretched(f)]
            one = [_state_bytes(solve_equilibrium(g)) for g in rows[:2]] + [None]
            assert _stacked(rows) == one
            assert _stacked(rows[::-1]) == one[::-1]


def _floors(formation):
    """`_edge_floors` of one formation, one per sheet edge."""
    return _edge_floors(_sheet_terms(formation.layout), formation.robot_positions[None])[0]


def _skips_every_edge(formation):
    """Whether the solve of `formation` skips every sheet edge."""
    return bool(np.all(_floors(formation) > solve_equilibrium(formation).z))


def _every_system(sheet, z_r, r):
    """`_stationary_points` of every system of `sheet` for the teams `r`,
    as (K, S) tables of contacts, object positions, heights and minima."""
    every = np.ones((len(r), sum(len(sel) for sel, *_ in sheet[3])), dtype=bool)
    f, s, *solved = _stationary_points(sheet, z_r, r, every)
    tables = [np.zeros(every.shape + x.shape[1:], x.dtype) for x in solved]
    for table, x in zip(tables, solved):
        table[f, s] = x
    return tables


def full_table(formation):
    """The one-phase solve, kept as the reference of the edge skip rule.

    Every system of the candidate table is solved and filtered, the ridge
    rows are inserted, and each row is validated as `_select_best` does.
    Returns the table's contacts, object positions and heights, the mask of
    validated rows, and the row that one `_select_best` call over the whole
    table picks. The draws have no fully stretched pair, so no row hangs flat.
    """
    v, r = formation.layout.holding_points, formation.robot_positions[None]
    z_r = formation.holding_height
    n = formation.n
    sheet = _sheet_terms(formation.layout)
    hulls, ends = _solve_plan(n)[2:4]
    ni, ne = len(hulls), ends.shape[1]
    u, q, z, ok = (np.concatenate(x, axis=1) for x in zip(
        _every_system(sheet.interior, z_r, r), _every_system(sheet.edges[0], z_r, r)))
    a, ab = v[ends[0]], v[ends[1]] - v[ends[0]]
    s = dot(u[:, ni:] - a, ab) / dot(ab, ab)
    ok &= np.concatenate([points_in_polygon(u[:, :ni], v[hulls]),
                          (s >= -1e-9) & (s <= 1 + 1e-9)], axis=1)
    lv, lr = pair_distances(v), pair_distances(r)
    assert np.all(lr < lv - 1e-9)
    i, j = pair_index(n)
    fold = ~(lr >= lv - 1e-12)
    ridge = (0.5 * (v[i] + v[j])[None], 0.5 * (r[:, i] + r[:, j]),
             z_r - 0.5 * np.sqrt(np.where(fold, lv * lv - lr * lr, 0.0)), fold)
    u, q, z, ok = (np.concatenate([x[:, :ni], rows, x[:, ni:]], axis=1)
                   for x, rows in zip((u, q, z, ok), ridge))
    best = _select_best(sheet, r, z, u, q, ok)[0][0]
    u, q, z, ok = u[0], q[0], z[0], ok[0]
    rho, d = _cables(v, z_r, r[0], u, q, z)
    valid = ok & points_in_polygon(u, v) & ~np.any(d > rho + FEAS_TOL, axis=1)
    _, z_low = kernels.lowest_point_grid(r[0], z_r, rho[valid])
    valid[valid] = np.abs(z_low - z[valid]) <= ENERGY_TOL
    return u, q, z, valid, best


def _skip_cases(rng, n):
    """Transport, folded and wide-folded (boundary) draws, and a ridge hang at n = 4."""
    yield draw_transport_case(rng, n, max_tries=5000)[1]
    yield draw_folded_case(rng, n, max_tries=5000)[1]
    yield draw_folded_case(rng, n, max_tries=5000, gap=(0.4, 0.5))[1]
    if n == 4:
        yield draw_ridge_case(rng)[1]


class TestEdgeSkip:
    def test_skipping_solve_equals_full_table(self):
        # soundness of the skip rule: no validated edge row lies below its
        # edge's floor, so skipping an edge whose floor lies above the
        # phase-1 winner cannot change the pick, to the bit
        seen = []

        @given(st.integers(3, 8), st.integers(0, 2**32 - 1))
        @settings(max_examples=30, deadline=None)
        def check(n, seed):
            for f in _skip_cases(np.random.default_rng(seed), n):
                u, q, z, valid, best = full_table(f)
                ends = _solve_plan(n)[3]
                edge = len(z) - ends.shape[1]
                floors = _floors(f)
                assert np.all(z[edge:][valid[edge:]] >= floors[ends[0]][valid[edge:]])
                assert winning_row(f)[0] == best
                eq = solve_equilibrium(f)
                assert eq.sheet_contact.tobytes() == u[best].tobytes()
                assert eq.world_position.tobytes() == np.array([*q[best], z[best]]).tobytes()
                seen.append((best >= edge, bool(np.all(floors > z[best]))))

        check()
        assert any(won for won, _ in seen)                # an edge row won
        assert any(skipped for _, skipped in seen)        # a solve skipped every edge

    @pytest.mark.parametrize("n, seed", [(3, 2042), (5, 309)])
    def test_phase_one_winner_competes_again(self, n, seed):
        # folded draws whose interior winner hangs within 1e-6 m of an
        # edge's floor and beats that edge's best row by under 1e-8 m: the
        # edge is solved again, and the phase-1 winner must stay in the
        # second selection to keep the pick
        f = draw_folded_case(np.random.default_rng(seed), n)[1]
        u, q, z, valid, best = full_table(f)
        edge = len(z) - _solve_plan(n)[3].shape[1]
        assert best < edge and np.any(valid[edge:])
        assert np.any(_floors(f) <= z[best])
        sizes = []
        select = equilibrium._select_best

        def spy(*args):
            sizes.append(int(np.count_nonzero(args[5])))
            won = select(*args)
            assert won[0][0] == best
            return won

        with mock.patch.object(equilibrium, "_select_best", spy):
            eq = solve_equilibrium(f)
        assert len(sizes) == 2 and sizes[1] > 1
        assert eq.sheet_contact.tobytes() == u[best].tobytes()
        assert eq.world_position.tobytes() == np.array([*q[best], z[best]]).tobytes()


def _oracle_cases():
    """Seeded formations, per n = 3..8 an all-taut target, a transport draw
    (slack cables) and a folded-edge draw (a fold line or a boundary
    contact), then the sheet-shaped triangle (the flat limit)."""
    rng = np.random.default_rng(92)
    for n in range(3, 9):
        yield draw_consistent_target(rng, n)[1]
        yield draw_transport_case(rng, n, max_tries=5000)[1]
        yield draw_folded_case(rng, n, max_tries=5000)[1]
    yield equilateral_formation(equilateral_layout(), 1.6)


def _lens_rows(rng, centers, rows):
    """Radii (rows, n) about `centers`: random ones (small radii leave the
    balls disjoint), ball 0's bottom inside ball 1, and a pair whose radii
    barely span the pair's distance (a lens of almost no depth)."""
    n = len(centers)
    span = np.linalg.norm(centers[-1] - centers[0])
    rho = span * rng.uniform(0.02, 2.0, (rows, n)) + 1e-3
    third = rows // 3
    rho[:third, 1] = np.hypot(np.linalg.norm(centers[1] - centers[0]), rho[:third, 0])
    rho[:third, 1] *= rng.uniform(1.0, 1.1, third)
    share = rng.uniform(0.0, 1.0, third)
    stretch = 1.0 + rng.uniform(-1e-6, 1e-6, third)
    rho[rows - third:, 0] = share * span * stretch
    rho[rows - third:, -1] = (1 - share) * span * stretch
    return rho


def _linspace_samples(v, side, step):
    """The edge samples' first form: one np.linspace per side, round the
    whole perimeter."""
    want = []
    for a, s in zip(v, side):
        ts = np.linspace(0.0, 1.0, max(int(np.ceil(np.linalg.norm(s) / step)) + 1, 2))
        want.append(a + ts[:, None] * s)
    return np.concatenate(want)


def _in_window(pts, center, half):
    off = np.abs(pts - center)
    return pts[(off[:, 0] <= half + 1e-12) & (off[:, 1] <= half + 1e-12)]


def _looped_pair_floors(r, z_r, rho):
    """`_pair_floors`' first form: one pass per robot over its lower pairs."""
    a = rho + FEAS_TOL
    e = r - r[:, None]
    d2 = dot(e, e)
    a2 = np.square(a)
    depth2 = a2.copy()
    for j in range(1, len(r)):
        ai, aj, dd = a2[:, :j], a2[:, j:j + 1], d2[j, :j]
        w = np.fmax(np.fmin(0.5 + (aj - ai) / (2.0 * dd), 1.0), 0.0)
        np.fmin(depth2[:, :j], aj + w * (ai - aj) - w * (1.0 - w) * dd, out=depth2[:, :j])
    scale = abs(z_r) + a.max() + np.sqrt(d2.max())
    return equilibrium._floor(z_r, np.min(depth2, axis=1), scale)


class TestOracle:
    def test_oracle_digest(self):
        h = hashlib.sha256()
        for f in _oracle_cases():
            h.update(_state_bytes(oracle_equilibrium(f, 1e-3)))
        assert h.hexdigest() == ORACLE_DIGEST

    def test_scans_send_few_rows(self):
        # on `_oracle_cases()` the scans hold 61,900 contacts, all of which
        # went to the kernel before the floors; 15,350 of them (24.8%) did
        # with the shortest cable and pair floors, 6,940 (11.2%) do with the
        # triple floors too. Every contact of a scan meets the first floor
        # stage, the shortest cable's.
        sent, held = [], []
        kernel, floors = kernels.lowest_point_grid, equilibrium._shortest_floors

        def count_sent(centers, z_r, rho):
            sent.append(len(rho))
            return kernel(centers, z_r, rho)

        def count_held(r, z_r, rho):
            held.append(len(rho))
            return floors(r, z_r, rho)

        with mock.patch.object(kernels, "lowest_point_grid", count_sent), \
                mock.patch.object(equilibrium, "_shortest_floors", count_held):
            for f in _oracle_cases():
                oracle_equilibrium(f, 1e-3)
        assert sum(held) == 61900
        assert sum(sent) < sum(held) / 8

    @pytest.mark.parametrize("n", range(3, 9))
    def test_pair_floors_match_robot_loop(self, n):
        # the same bytes as the loop over each robot's lower pairs: one row,
        # a scan's worth and more rows than one block holds (2,730 at n = 3),
        # teams near the origin and 1e3 m from it
        rng = np.random.default_rng(60 + n)
        step = kernels.BLOCK // (n * (n - 1) // 2)
        for rows in (1, 76, 3000):
            centers = rng.normal(0.0, 10.0 ** rng.uniform(-1, 1), (n, 2))
            for shift in (0.0, 1e3):
                r = centers + np.round(shift * rotation(rng.uniform(0, 7))[0])
                rho = _lens_rows(rng, r, 3000)[rng.permutation(3000)[:rows]]
                z_r = rng.uniform(-2.0, 2.0)
                got = _pair_floors(r, z_r, rho)
                assert got.tobytes() == _looped_pair_floors(r, z_r, rho).tobytes()
            assert (rows > step) == (rows == 3000)

    def test_floors_below_kernel(self):
        # no lowest point of the kernel lies below its row's floor: random
        # centers at n = 2..8 with near-coincident pairs,
        # disjoint balls, a ball's bottom inside another and lenses of
        # almost no depth, at both floors (the shortest cable's and the pair
        # lens's)
        seen = np.zeros(2, dtype=int)       # rows without and with a lowest point

        @given(st.integers(2, 8), st.integers(0, 2**32 - 1))
        @settings(max_examples=200, deadline=None)
        def check(n, seed):
            rng = np.random.default_rng(seed)
            centers = rng.normal(0.0, 10.0 ** rng.uniform(-2, 1), (n, 2))
            if rng.random() < 0.5:
                centers[1] = centers[0] + 1e-9 * rng.normal(size=2)
            z_r = rng.uniform(-2.0, 2.0)
            rho = np.vstack([_lens_rows(rng, centers, rows) for rows in (1, 2, 30)])
            _, z = kernels.lowest_point_grid(centers, z_r, rho)
            for floors in (_shortest_floors, _pair_floors):
                assert np.all(z >= floors(centers, z_r, rho))
            seen[:] += np.bincount(np.isfinite(z), minlength=2)

        check()
        assert np.all(seen > 0)

    def test_triple_floors_below_kernel(self):
        # no lowest point of the kernel lies below the triple floor: random
        # centers at n = 3..8, some 1e3 m from the origin, whose first taut
        # triple is collinear, near-collinear or has two near-coincident
        # centers, or whose three other centers repeat it with radii FEAS_TOL
        # longer (the kernel then accepts a point on the floor's spheres);
        # radii random, or on three spheres that cross above a point inside
        # the triple's triangle (the floor's weights then sum to 1 only up to
        # rounding) or outside it (they are clipped), the other balls larger
        seen = np.zeros(3, dtype=int)   # rows: outside crossings, lowest points, floors within 1e-9

        @given(st.integers(3, 8), st.integers(0, 2**32 - 1))
        @settings(max_examples=200, deadline=None)
        def check(n, seed):
            rng = np.random.default_rng(seed)
            size = 10.0 ** rng.uniform(-2, 1)
            centers = rng.normal(0.0, size, (n, 2))
            taut = np.sort(rng.choice(n, rng.integers(3, n + 1), replace=False))
            tri, other = taut[:3], np.setdiff1d(np.arange(n), taut[:3])
            kind = rng.integers(5 if n >= 6 else 4)
            if kind == 1:       # exactly collinear: a zero Gram determinant
                centers[tri] = np.floor(centers[tri[0]]) + np.array([[0, 0], [1, 0], [3, 0]])
            elif kind == 2:
                a, b = centers[tri[:2]]
                centers[tri[2]] = a + rng.uniform(-2, 2) * (b - a) + 1e-9 * size * rng.normal(size=2)
            elif kind == 3:
                centers[tri[1]] = centers[tri[0]] + 1e-9 * size * rng.normal(size=2)
            elif kind == 4:
                centers[other[:3]] = centers[tri]
            centers += np.round(rng.choice([0.0, 1e3]) * rotation(rng.uniform(0, 7))[0])
            z_r = rng.uniform(-2.0, 2.0)
            w = np.vstack([rng.dirichlet(np.ones(3), 10), rng.uniform(-1.0, 2.0, (10, 3))])
            w /= w.sum(axis=1, keepdims=True)
            d = (w @ centers[tri])[:, None] - centers     # from each center to the crossing
            depth = size * rng.uniform(0.0, 2.0, (20, 1))
            crossing = np.sqrt(dot(d, d) + depth**2) * np.where(
                np.isin(np.arange(n), tri), 1.0, rng.uniform(1.0, 2.0, (20, n)))
            if kind == 4:
                crossing[:, other[:3]] = crossing[:, tri] + FEAS_TOL
            rho = np.vstack([_lens_rows(rng, centers, 30), crossing])
            _, z = kernels.lowest_point_grid(centers, z_r, rho)
            floors = _triple_floors(centers, z_r, rho, taut)
            assert np.all(z >= floors)
            seen[:] += (np.sum(np.isfinite(z[30:]) & np.any(w < 0, axis=1)), np.sum(np.isfinite(z)),
                        np.sum(z - floors < 1e-9))

        check()
        assert np.all(seen > 0)

    def test_two_taut_incumbent_skips_the_triples(self):
        # on the first oracle case the first scan's incumbent, one of its few
        # grid contacts, hangs from two taut cables: that scan keeps the rows
        # its other floors leave, and only the refined scans (three taut
        # cables) run the triple stage
        taut, triples, mask = [], [], equilibrium._taut
        f = next(_oracle_cases())

        def count_taut(l, d):
            taut.append(mask(l, d))
            return taut[-1]

        def count_triples(r, z_r, rho, idx):
            triples.append(len(idx))
            return _triple_floors(r, z_r, rho, idx)

        with mock.patch.object(equilibrium, "_taut", count_taut), \
                mock.patch.object(equilibrium, "_triple_floors", count_triples):
            orc = oracle_equilibrium(f, 1e-3)
        assert [int(m.sum()) for m in taut] == [2, 3, 3, 3]     # three scans, then the result
        assert triples == [3, 3]
        assert orc.z == pytest.approx(solve_equilibrium(f).z, abs=2e-3)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n", range(3, 9))
    def test_edge_samples_match_linspace_loop(self, n):
        # the same bytes as one np.linspace per side kept to the window, the
        # samples' first form: on random convex sheets, some 1e3 m from the
        # origin, in windows over the whole sheet, across an edge, about a
        # vertex and wholly inside (no samples), and on an axis-aligned
        # rectangle, whose sides each have a zero coordinate, with no warning
        rng = np.random.default_rng(n)
        for trial in range(40):
            size = 10.0 ** rng.uniform(-1, 1)
            if trial % 4:
                angles = np.sort(rng.uniform(0.0, 2 * np.pi, n))
                v = size * np.column_stack([np.cos(angles), np.sin(angles)])
            else:
                v = size * np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.6], [0.0, 0.6]])
            v += np.round(rng.choice([0.0, 1e3]) * rotation(rng.uniform(0, 7))[0])
            side = polygon_sides(v)
            length = np.sqrt(dot(side, side))
            lo, hi = v.min(axis=0), v.max(axis=0)
            k = rng.integers(len(v))
            mid = v.mean(axis=0)
            inner = np.min((side[:, 0] * (mid[1] - v[:, 1]) - side[:, 1] * (mid[0] - v[:, 0])) / length)
            near = 0.05 * size * rng.uniform(0.2, 1.0)
            windows = [(0.5 * (lo + hi), 0.5 * float(max(hi - lo)), "whole"),
                       (v[k] + rng.uniform(0.2, 0.8) * side[k], near, "edge"),
                       (v[k] + near * rng.uniform(-0.5, 0.5, 2), near, "vertex"),
                       (mid, 0.5 * inner, "inside")]
            if trial % 4 == 0:      # a window whose top lies on the top side
                windows.append((np.array([lo[0] + 0.3 * size, hi[1] - near]), near, "edge"))
            for center, half, kind in windows:
                step = 2 * half / rng.choice([20, 40, 200])
                every = _linspace_samples(v, side, step)
                want = _in_window(every, center, half)
                got = _edge_samples(v, side, length, step, center, half)
                assert got.tobytes() == want.tobytes()
                # the window is what it says
                assert (len(want) == len(every)) == (kind == "whole")
                assert (len(want) == 0) == (kind == "inside")
            assert (side == 0).any() == (trial % 4 == 0)
        # the top side's fixed y lies exactly on a bound of the window widened
        # by one step (0/0 in the range of its samples), the right side's x
        # on the window's edge
        v = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.5], [0.0, 0.5]])
        side = polygon_sides(v)
        center, half = np.array([0.875, 0.25]), 0.125
        got = _edge_samples(v, side, np.sqrt(dot(side, side)), half, center, half)
        assert got.tobytes() == _in_window(_linspace_samples(v, side, half), center, half).tobytes()
        assert len(got) > 0

    @pytest.mark.parametrize("n", range(3, 9))
    def test_grid_matches_pointwise(self, n):
        # the same contacts in the same order and the same radii, byte for
        # byte, as one `points_in_polygon` and `cable_lengths` over the
        # meshgrid's points and the whole perimeter's edge samples kept to
        # the window, the scan's first form: on random convex sheets, some
        # 1e3 m from the origin, over the whole sheet (a first scan) and
        # refined windows wholly inside and about a point just off an edge,
        # where the polygon test's cross product is -1e-9, its tolerance
        rng = np.random.default_rng(n)
        for _ in range(20):
            angles = np.sort(rng.uniform(0.0, 2 * np.pi, n))
            v = 10.0 ** rng.uniform(-1, 1) * np.column_stack([np.cos(angles), np.sin(angles)])
            v += np.round(rng.choice([0.0, 1e3]) * rotation(rng.uniform(0, 7))[0])
            side = polygon_sides(v)
            length = np.sqrt(dot(side, side))
            lo, hi = v.min(axis=0), v.max(axis=0)
            extent = float(max(hi - lo))
            k = rng.integers(n)
            mid = v.mean(axis=0)
            inner = np.min((side[:, 0] * (mid[1] - v[:, 1]) - side[:, 1] * (mid[0] - v[:, 0])) / length)
            windows = [(0.5 * (lo + hi), 0.5 * extent, 41 + 40 * (n % 2), "whole"),
                       (v[k] + 0.5 * side[k] + 1e-9 / length[k]**2 * side[k, ::-1] * [1, -1],
                        0.05 * extent, 21, "edge"),
                       (mid, 0.5 * inner, 21, "inside")]
            for center, half, npts, kind in windows:
                xs = np.linspace(center[0] - half, center[0] + half, npts)
                ys = np.linspace(center[1] - half, center[1] + half, npts)
                gx, gy = np.meshgrid(xs, ys)
                pts = np.column_stack([gx.ravel(), gy.ravel()])
                inside = points_in_polygon(pts, v)
                pts = pts[inside]
                epts = _linspace_samples(v, side, 2 * half / (npts - 1))
                pts = np.concatenate([pts, _in_window(epts, center, half)])
                got = _scan_contacts(v, side, length, center, half, npts)
                assert got[0].tobytes() == pts.tobytes()
                assert got[1].tobytes() == cable_lengths(v, pts).tobytes()
                assert inside.all() == (kind == "inside")      # the window is what it says
                assert inside.any()

    def test_fully_pruned_refine_scan(self, triangle_layout):
        # a first scan whose pick is sunk 1 m below every contact's floor
        # leaves the refined scans nothing to send: they find no row, and
        # the sunk pick stands
        sizes, kernel = [], kernels.lowest_point_grid

        def sunk(centers, z_r, rho):
            q, z = kernel(centers, z_r, rho)
            sizes.append(len(rho))
            return q, (z - 1.0 if len(sizes) == 2 else z)    # the first scan's second call

        f = equilateral_formation(triangle_layout, 1.2)
        with mock.patch.object(kernels, "lowest_point_grid", sunk):
            orc = oracle_equilibrium(f, 1e-3)
        assert sizes[2:] == [0, 0]
        assert orc.z == pytest.approx(solve_equilibrium(f).z - 1.0, abs=2e-3)
