import math
import tracemalloc

import numpy as np
import pytest

from gbbmlab import (
    DIRICHLET,
    Field,
    Grid,
    GridError,
    GroundState,
    closed_form_identities,
    coefficients,
    critical_speed,
    gamma_direction,
    hessian_apply,
    inner,
    kappa_closed_form,
    make_grid,
    modulation_pairing,
    negativity_form,
    negativity_table,
    norm_l2,
    quadrature,
)
from gbbmlab import structure
from gbbmlab.cli import DEFAULTS
from gbbmlab.ground_state import trigamma
from gbbmlab.structure import _cubic_image, kept_windows, node_windows, table_points
from reference_paths import second_difference_4

L50 = 50.0 * math.pi

PRINTED_TABLE = {
    4.1: -1024.83,
    4.5: -362.82,
    5.0: -292.10,
    6.0: -274.60,
    6.5: -276.36,
    10.0: -303.22,
    30.0: -445.07,
    50.0: -609.47,
    70.0: -790.46,
    100.0: -1083.61,
}


@pytest.fixture(scope="module")
def table_grid_p5(gs5):
    n = table_points(gs5.p, gs5.c, L50, 8192)
    return make_grid(L50, n, DIRICHLET)


class TestCoefficients:
    @pytest.mark.parametrize("p", [4.1, 5.0, 10.0, 30.0, 100.0])
    def test_d_negative_at_critical_speed(self, p):
        gs = GroundState(p, critical_speed(p))
        n = table_points(p, gs.c, L50, 8192)
        grid = make_grid(L50, n, DIRICHLET)
        _, D = coefficients(gs.sample(grid))
        assert D < 0.0

    def test_refinement_invariance(self, gs5):
        g1 = make_grid(L50, 8192, DIRICHLET)
        g2 = make_grid(L50, 16384, DIRICHLET)
        B1, D1 = coefficients(gs5.sample(g1))
        B2, D2 = coefficients(gs5.sample(g2))
        assert B1 == pytest.approx(B2, rel=1e-9)
        assert D1 == pytest.approx(D2, rel=1e-9)

    def test_d_unwinds_to_norm(self, gs5, dirichlet_8192):
        p, c = gs5.p, gs5.c
        _, D = coefficients(gs5.sample(dirichlet_8192))
        n2 = quadrature(Field(dirichlet_8192, gs5.profile(dirichlet_8192).values ** 2))
        assert D * (-2.0 * (p + 4.0) / (4.0 * p * c + 4.0 * c - 3.0 * p)) == pytest.approx(
            n2, rel=1e-13
        )


class TestTrigamma:
    def test_special_values(self):
        assert abs(trigamma(1.0) - math.pi ** 2 / 6.0) < 1e-14
        assert abs(trigamma(0.5) - math.pi ** 2 / 2.0) < 1e-14

    @pytest.mark.parametrize("z", [0.02, 0.3, 0.4878, 2.5, 11.7, 12.0, 12.5, 30.0, 1e3])
    def test_recurrence(self, z):
        # z = 2/p runs from 0.02 (p = 100) to 0.49 (p = 4.1) in the table
        scale = max(1.0, trigamma(z))
        assert abs(trigamma(z) - trigamma(z + 1.0) - 1.0 / z ** 2) < 1e-14 * scale


class TestClosedFormB:
    @pytest.mark.parametrize("p, c", [
        (4.1, critical_speed(4.1)),
        (5.0, critical_speed(5.0)),
        (10.0, critical_speed(10.0)),
        (100.0, critical_speed(100.0)),
        (7.0, 1.25),
    ])
    def test_matches_quadrature_on_table_grid(self, p, c):
        # the independent path: 3/2 ||x phi||^2 + 9/2 ||x phi_x||^2 - 3 ||phi||^2
        gs = GroundState(p, c)
        grid = make_grid(L50, table_points(p, c, L50, 8192), DIRICHLET)
        prof = gs.sample(grid)
        x = grid.nodes
        quad = (
            1.5 * quadrature(Field(grid, (x * prof.phi) ** 2))
            + 4.5 * quadrature(Field(grid, (x * prof.phi_x) ** 2))
            - 3.0 * quadrature(Field(grid, prof.phi ** 2))
        )
        assert abs(gs.B - quad) <= 1e-12 * abs(quad)


class TestWindows:
    @pytest.mark.parametrize("count", [17, (1 << 14) + 1, (1 << 20) + 1])
    def test_layout_covers_nodes_once(self, count):
        windows = node_windows(count)
        assert windows[0][0] == 0 and windows[-1][1] == count
        assert all(hi == lo for (_, hi), (lo, _) in zip(windows, windows[1:]))
        assert all(5 <= hi - lo <= structure.WINDOW_NODES for lo, hi in windows)

    def test_window_arrays_match_whole_grid(self):
        # the slow reference path: whole-grid builders and hessian_apply. The
        # kept windows match their nodes bitwise, and on every skipped node of
        # the half line Gamma, kappa and hessian(Gamma) lie under the module
        # docstring's bound 10^(-ROW_TAIL_DECADES/2) 2^{2/p} A M_T. The table's
        # own p = 30 grid keeps one window, so this grid is four times finer
        p = 30.0
        gs = GroundState(p, critical_speed(p))
        grid = make_grid(L50, 1 << 18, DIRICHLET)
        half = grid.points // 2 + 1
        prof = gs.sample(grid)
        gamma = gamma_direction(prof)
        whole = (gamma.values, kappa_closed_form(prof).values, hessian_apply(gs, gamma).values)
        weight = (prof.phi * (1.0 + np.abs(prof.x)) ** 3)[:half]
        del prof, gamma
        windows = list(structure._row_windows(gs, grid))
        assert len(windows) > 1
        first = windows[0][0]
        assert first > 0
        for lo, *arrays in windows:
            for ref, part in zip(whole, arrays):
                assert np.array_equal(part, ref[lo:lo + part.size])
        assert windows[-1][0] + windows[-1][1].size == half
        assert all(lo + w.size == nxt for (lo, w, *_), (nxt, *_) in zip(windows, windows[1:]))
        envelope = 10.0 ** (-structure.ROW_TAIL_DECADES / 2) * 2.0 ** (2.0 / p) * gs.amplitude
        for ref in whole:
            m_t = np.max(np.abs(ref[:half]) / weight)
            assert np.max(np.abs(ref[:first])) <= envelope * m_t

    @pytest.mark.parametrize("p", [5.0, 30.0])
    def test_windowed_matches_single_window(self, p, monkeypatch):
        gs = GroundState(p, critical_speed(p))
        grid = make_grid(L50, table_points(p, gs.c, L50, 8192), DIRICHLET)
        monkeypatch.setattr(structure, "WINDOW_NODES", 4096)
        assert len(node_windows(grid.node_count)) > 1
        windowed = negativity_form(gs, grid)
        monkeypatch.setattr(structure, "WINDOW_NODES", grid.node_count)
        assert len(node_windows(grid.node_count)) == 1
        single = negativity_form(gs, grid)
        for w, s in zip(windowed, single):
            assert w == pytest.approx(s, rel=1e-12)

    def test_p100_row_peak_memory(self):
        # the p = 100 row spans 2^20 + 1 nodes, 8 MB per array of full grid length
        gs = GroundState(100.0, critical_speed(100.0))
        tracemalloc.start()
        try:
            negativity_form(gs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    def test_rejects_periodic_grid(self, gs5, periodic_8192):
        with pytest.raises(GridError):
            negativity_form(gs5, periodic_8192)

    def test_rejects_odd_dirichlet_grid(self, gs5):
        # built past make_grid, an odd grid is not mirror-symmetric, so the
        # half-line sum would be wrong
        grid = Grid(L50, 16385, DIRICHLET)
        assert not np.array_equal(grid.nodes, -grid.nodes[::-1])
        with pytest.raises(GridError):
            negativity_form(gs5, grid)


class TestRowCut:
    """The row's tail cut against the full stream of the half line."""

    @pytest.mark.parametrize("p, window_nodes", [
        (5.0, 1 << 10),  # p = 5 fits one default window, the centre's, always kept
        (30.0, structure.WINDOW_NODES),
        (100.0, structure.WINDOW_NODES),
        (200.0, structure.WINDOW_NODES),
    ])
    def test_matches_full_stream_bitwise(self, p, window_nodes, monkeypatch):
        gs = GroundState(p, critical_speed(p))
        grid = make_grid(L50, table_points(p, gs.c, L50, 8192), DIRICHLET)
        monkeypatch.setattr(structure, "WINDOW_NODES", window_nodes)
        assert len(kept_windows(gs, grid)) < len(node_windows(grid.node_count // 2 + 1))
        cut = negativity_form(gs, grid)
        monkeypatch.setattr(structure, "ROW_TAIL_DECADES", math.inf)
        assert kept_windows(gs, grid) == node_windows(grid.node_count // 2 + 1)
        assert negativity_form(gs, grid) == cut

    @pytest.mark.parametrize("p", [4.1, 4.5])
    def test_slow_decay_skips_no_window(self, p, monkeypatch):
        # the cut lies beyond L = 50 pi, so even small windows are all kept
        gs = GroundState(p, critical_speed(p))
        grid = make_grid(L50, table_points(p, gs.c, L50, 8192), DIRICHLET)
        assert structure.row_cut(gs, L50) > L50
        monkeypatch.setattr(structure, "WINDOW_NODES", 1 << 10)
        windows = node_windows(grid.node_count // 2 + 1)
        assert len(windows) > 1
        assert kept_windows(gs, grid) == windows

    def test_p100_streams_at_most_two_fifths(self):
        # on 2^20 nodes, so that the cut is measured in windows of 1/17 of the
        # half line, not in the table grid's fifths
        gs = GroundState(100.0, critical_speed(100.0))
        grid = make_grid(L50, 1 << 20, DIRICHLET)
        streamed = sum(hi - lo for lo, hi in kept_windows(gs, grid))
        assert streamed <= 0.4 * (grid.node_count // 2 + 1)


class TestHalfLineRow:
    @pytest.fixture(scope="class", params=[4.1, 5.0, 30.0, 100.0])
    def whole_row(self, request):
        # the slow reference path: the pairings rebuilt on the whole grid
        p = request.param
        gs = GroundState(p, critical_speed(p))
        grid = make_grid(L50, table_points(p, gs.c, L50, 8192), DIRICHLET)
        prof = gs.sample(grid)
        gamma = gamma_direction(prof)
        kap = kappa_closed_form(prof)
        kop = hessian_apply(gs, gamma)
        return gs, grid, gamma, kap, kop

    def test_matches_whole_grid_pairings(self, whole_row):
        gs, grid, gamma, kap, kop = whole_row
        closed, operator, sup = negativity_form(gs, grid)
        assert closed == pytest.approx(inner(kap, gamma), rel=1e-12)
        assert operator == pytest.approx(inner(kop, gamma), rel=1e-9)
        scale = np.max(np.abs(kap.values))
        assert sup == pytest.approx(np.max(np.abs(kap.values - kop.values)) / scale, rel=1e-3)

    def test_row_is_even(self, whole_row):
        # the parity the half-line reduction rests on
        _, _, gamma, kap, kop = whole_row
        assert np.array_equal(gamma.values, gamma.values[::-1])
        assert np.array_equal(kap.values, kap.values[::-1])
        kv = kop.values
        assert np.max(np.abs(kv - kv[::-1])) <= 1e-10 * np.max(np.abs(kv))


class TestGammaDirection:
    def test_even(self, gs5, dirichlet_8192):
        vals = gamma_direction(gs5.sample(dirichlet_8192)).values
        assert np.array_equal(vals, vals[::-1])

    def test_value_at_origin(self, gs5, dirichlet_8192):
        B, _ = coefficients(gs5.sample(dirichlet_8192))
        c = gs5.c
        i0 = np.argmin(np.abs(dirichlet_8192.nodes))
        psi0 = gs5.sample(dirichlet_8192).psi[i0]
        phi0 = gs5.profile(dirichlet_8192).values[i0]
        gamma0 = gamma_direction(gs5.sample(dirichlet_8192)).values[i0]
        assert gamma0 == pytest.approx(B * (c * c * psi0 + c * phi0), rel=1e-12)

    def test_boundary_decay(self, gs5, dirichlet_8192):
        vals = gamma_direction(gs5.sample(dirichlet_8192)).values
        assert abs(vals[0]) < 1e-12 * np.max(np.abs(vals))
        assert abs(vals[-1]) < 1e-12 * np.max(np.abs(vals))


class TestKappa:
    def test_dual_path_sup(self, gs5, table_grid_p5):
        assert negativity_form(gs5, table_grid_p5)[2] < 1e-6

    def test_even(self, gs5, dirichlet_8192):
        vals = kappa_closed_form(gs5.sample(dirichlet_8192)).values
        assert np.array_equal(vals, vals[::-1])

    def test_reassembly_coefficients(self, gs5, dirichlet_8192):
        # subtracting all closed-form pieces except the x phi_x one isolates
        # its coefficient, which must be 18 c D
        p, c = gs5.p, gs5.c
        B, D = coefficients(gs5.sample(dirichlet_8192))
        x = dirichlet_8192.nodes
        phi = gs5.profile(dirichlet_8192).values
        dphi = gs5.profile_dx(dirichlet_8192).values
        ddphi = gs5.profile_dxx(dirichlet_8192).values
        kap = kappa_closed_form(gs5.sample(dirichlet_8192)).values
        rest = (
            (B * (p + 1.0) * c * c - B * p * c + 6.0 * c * D) * phi
            + B * (1.0 - p) * c * c * ddphi
            + (6.0 * c - 3.0 * p * c) * D * x * x * ddphi
            + 3.0 * p * (c - 1.0) * D * x * x * phi
        )
        i = np.argmax(np.abs(x * dphi))
        assert (kap - rest)[i] / (x * dphi)[i] == pytest.approx(18.0 * c * D, rel=1e-12)

    def test_orthogonal_to_translation_mode(self, gs5, dirichlet_8192):
        kap = kappa_closed_form(gs5.sample(dirichlet_8192))
        dphi = gs5.profile_dx(dirichlet_8192)
        assert abs(inner(kap, dphi)) < 1e-9 * norm_l2(kap) * norm_l2(dphi)

    def test_bilinear_symmetry_on_structural_directions(self, gs5, periodic_8192):
        x = periodic_8192.nodes
        psi = Field(periodic_8192, gs5.sample(periodic_8192).psi)
        xdphi = Field(periodic_8192, x * gs5.profile_dx(periodic_8192).values)
        a = inner(psi, hessian_apply(gs5, xdphi))
        b = inner(hessian_apply(gs5, psi), xdphi)
        assert a == pytest.approx(b, rel=1e-8)


class TestNegativityForm:
    @pytest.mark.parametrize("p", [4.1, 6.0, 100.0])
    def test_matches_printed_value(self, p):
        gs = GroundState(p, critical_speed(p))
        v_closed, v_op, sup = negativity_form(gs)
        assert v_closed == pytest.approx(PRINTED_TABLE[p], rel=0.01)
        assert abs(v_op - v_closed) / abs(v_closed) < 1e-6
        assert sup < 1e-6

    def test_resolution_floor_grows_with_p(self):
        c100 = critical_speed(100.0)
        c5 = critical_speed(5.0)
        assert table_points(100.0, c100, L50, 8192) > table_points(5.0, c5, L50, 8192)


@pytest.fixture(scope="module")
def full_table_report():
    return negativity_table(sorted(PRINTED_TABLE))


class TestNegativityTable:
    @pytest.fixture
    def report(self, full_table_report):
        return full_table_report

    def test_reproduces_printed_values(self, report):
        for row in report.rows:
            assert row.form_value == pytest.approx(PRINTED_TABLE[row.p], rel=0.01)

    def test_all_negative(self, report):
        assert report.all_negative()

    def test_monotone_beyond_p10(self, report):
        tail = [r.form_value for r in report.rows if r.p >= 10.0]
        assert all(a > b for a, b in zip(tail, tail[1:]))

    def test_resolution_independence(self, report):
        finer = negativity_table([5.0, 30.0], n_request=16384)
        for row in finer.rows:
            ref = next(r for r in report.rows if r.p == row.p)
            assert row.form_value == pytest.approx(ref.form_value, rel=1e-6)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            negativity_table([])
        with pytest.raises(ValueError):
            negativity_table([3.0])

    def test_matches_fourth_order_rows(self, report, monkeypatch):
        # the slow reference: the same rows at kh <= 0.02 with the 4th-order
        # second difference on the operator path
        assert [r.p for r in report.rows] == [float(p) for p in DEFAULTS["p_list"].split(",")]
        monkeypatch.setattr(structure, "_fd_derivative", lambda v, h, order: second_difference_4(v, h))
        monkeypatch.setattr(structure, "TABLE_KH_LIMIT", 0.02)
        reference = negativity_table(r.p for r in report.rows)
        assert sum(r.points for r in report.rows) < sum(r.points for r in reference.rows) / 3
        for row, ref in zip(report.rows, reference.rows):
            assert row.form_value == pytest.approx(ref.form_value, rel=1e-13)
            assert row.operator_value == pytest.approx(ref.operator_value, rel=2e-7)

    def test_dual_errors_below_1e_8(self, report):
        for row in report.rows:
            assert row.dual_sup_error <= 1e-8
            assert row.dual_scalar_error <= 1e-8

    def test_dual_path_guard_trips_on_coarse_grid(self, gs5):
        # forcing a coarse grid breaks the 1e-6 consistency contract at large p
        coarse = make_grid(L50, 4096, DIRICHLET)
        assert negativity_form(GroundState(100.0, critical_speed(100.0)), coarse)[2] > 1e-6


class TestModulationPairing:
    def test_identity_off_critical(self):
        gs = GroundState(5.0, 1.3)
        grid = make_grid(L50, 8192, DIRICHLET)
        fd, closed = modulation_pairing(gs, grid)
        assert closed != 0.0
        assert fd == pytest.approx(closed, rel=1e-6)

    def test_vanishes_at_critical_speed(self, gs5, dirichlet_8192):
        fd, closed = modulation_pairing(gs5, dirichlet_8192)
        kap = kappa_closed_form(gs5.sample(dirichlet_8192))
        dcphi = gs5.profile_dc(dirichlet_8192)
        scale = norm_l2(kap) * norm_l2(dcphi)
        assert abs(closed) < 1e-12 * scale
        assert abs(fd) < 1e-5 * scale

    def test_proportional_to_momentum_slope(self):
        # the pairing equals c^2 B(c) d_c Q(phi_c) at any speed
        p = 7.0
        for c in (1.25, 1.6):
            gs = GroundState(p, c)
            grid = make_grid(L50, 8192, DIRICHLET)
            _, closed = modulation_pairing(gs, grid)
            B, _ = coefficients(gs.sample(grid))
            dq = closed_form_identities(gs, grid)["dc_momentum"].closed_form
            assert closed == pytest.approx(c * c * B * dq, rel=1e-12)


class TestCubicPairImage:
    def test_matches_hessian_application(self, gs5, table_grid_p5):
        x = table_grid_p5.nodes
        phi = gs5.profile(table_grid_p5).values
        dphi = gs5.profile_dx(table_grid_p5).values
        direction = Field(table_grid_p5, 3.0 * x * x * phi + x ** 3 * dphi)
        img_op = hessian_apply(gs5, direction)
        img_cf = _cubic_image(gs5.sample(table_grid_p5))
        scale = np.max(np.abs(img_cf))
        assert np.max(np.abs(img_op.values - img_cf)) < 1e-6 * scale
