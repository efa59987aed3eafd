import math
import tracemalloc

import numpy as np
import pytest

from gbbmlab import (
    Field,
    GroundState,
    SampledProfile,
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
from gbbmlab.grid import DEFAULT_HALF_WIDTH, DEFAULT_POINTS
from gbbmlab.functionals import hessian_values
from gbbmlab.ground_state import trigamma
from gbbmlab.structure import _cubic_image, _gamma, _kappa, row_cut, row_map
from reference_paths import table_points, uniform_row, whole_difference_8

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
    return make_grid(L50, table_points(gs5.p, gs5.c, L50))


class TestCoefficients:
    @pytest.mark.parametrize("p", [4.1, 5.0, 10.0, 30.0, 100.0])
    def test_d_negative_at_critical_speed(self, p):
        gs = GroundState(p, critical_speed(p))
        grid = make_grid(L50, table_points(p, gs.c, L50))
        _, D = coefficients(gs.sample(grid))
        assert D < 0.0

    def test_refinement_invariance(self, gs5):
        g1 = make_grid(L50, 8192)
        g2 = make_grid(L50, 16384)
        B1, D1 = coefficients(gs5.sample(g1))
        B2, D2 = coefficients(gs5.sample(g2))
        assert B1 == pytest.approx(B2, rel=1e-9)
        assert D1 == pytest.approx(D2, rel=1e-9)

    def test_d_unwinds_to_norm(self, gs5, periodic_8192):
        p, c = gs5.p, gs5.c
        _, D = coefficients(gs5.sample(periodic_8192))
        n2 = quadrature(Field(periodic_8192, gs5.profile(periodic_8192).values ** 2))
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
        grid = make_grid(L50, table_points(p, c, L50))
        prof = gs.sample(grid)
        x = grid.nodes
        quad = (
            1.5 * quadrature(Field(grid, (x * prof.phi) ** 2))
            + 4.5 * quadrature(Field(grid, (x * prof.phi_x) ** 2))
            - 3.0 * quadrature(Field(grid, prof.phi ** 2))
        )
        assert abs(gs.B - quad) <= 1e-12 * abs(quad)


def mapped_row(gs, L=L50, n_cap=8192):
    """(s, x, x'(s), Gamma, kappa) on the nodes of a table row."""
    a, ds, m = row_map(gs, L, n_cap)
    s = np.arange(m + 1) * ds
    prof = SampledProfile(gs, a * np.sinh(s))
    return s, prof.x, a * np.cosh(s), _gamma(prof), _kappa(prof)


class TestRowMap:
    @pytest.mark.parametrize("p", [4.1, 5.0, 30.0, 100.0, 1e4])
    def test_local_steps(self, p):
        # k h = ROW_CORE_STEP at the centre and tau h = ROW_TAIL_STEP at x_max,
        # with h = sqrt(a^2 + x^2) ds, up to rounding ds down to end on x_max
        gs = GroundState(p, critical_speed(p))
        a, ds, m = row_map(gs, L50, 1 << 30)
        x_max = min(row_cut(gs, L50), L50)
        assert a * math.sinh(m * ds) == pytest.approx(x_max, rel=1e-14)
        core, tail = gs.decay_rate * a * ds, gs.tail_rate * math.hypot(a, x_max) * ds
        assert structure.ROW_CORE_STEP * (1.0 - 1.0 / m) < core <= structure.ROW_CORE_STEP
        assert tail / core == pytest.approx(structure.ROW_TAIL_STEP / structure.ROW_CORE_STEP)

    def test_points_cap_the_row(self, gs5):
        a, ds, m = row_map(gs5, L50, 8192)
        assert 16 < 2 * m < 8192
        assert row_map(gs5, L50, 2 * m) == (a, ds, m)
        a2, ds2, m2 = row_map(gs5, L50, 1024)
        assert (a2, m2) == (a, 512) and ds2 == pytest.approx(ds * m / 512)

    def test_rejects_an_unresolving_box(self, gs5):
        with pytest.raises(ValueError, match="leaves tail"):
            row_map(gs5, 10.0, 8192)

    def test_p100_row_peak_memory(self):
        # 2489 nodes (measured peak 0.36 MB); a uniform grid's 2^18 + 1 nodes,
        # streamed in windows, peaked under 16 MB
        gs = GroundState(100.0, critical_speed(100.0))
        tracemalloc.start()
        try:
            negativity_form(gs, DEFAULT_HALF_WIDTH, DEFAULT_POINTS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6


class TestRowCut:
    """The row's extent against the module docstring's tail bound."""

    @pytest.mark.parametrize("p", [10.0, 30.0, 100.0, 200.0])
    def test_no_term_beyond_the_cut(self, p):
        # sampled on 2001 nodes of [X, L], every term Gamma, kappa and
        # hessian(Gamma) lies under 10^(-ROW_TAIL_DECADES/2) 2^{2/p} A M_T, and
        # every product under 10^-ROW_TAIL_DECADES of the row's |<kappa, Gamma>|
        gs = GroundState(p, critical_speed(p))
        cut = row_cut(gs, L50)
        assert cut < L50
        s, x, xp, gamma, kap = mapped_row(gs)
        assert x[-1] == pytest.approx(cut, rel=1e-14)
        row = negativity_form(gs, DEFAULT_HALF_WIDTH, DEFAULT_POINTS)
        grid = make_grid(L50, table_points(p, gs.c, L50))
        prof = gs.sample(grid)
        g = gamma_direction(prof)
        # the Hessian with finite differences, whose rounding stays local: with
        # the box's spectral Gamma_xx it reads about 1e-12 of its peak beyond
        # the cut at p = 100 and 200, the finite differences' 4e-18 and 2e-18
        hess = hessian_values(gs, g.values, whole_difference_8(g.values, grid.h, 2), prof.phi_p)
        terms = (g.values, kappa_closed_form(prof).values, hess)
        beyond = np.abs(grid.nodes) >= cut
        weight = prof.phi * (1.0 + np.abs(grid.nodes)) ** 3
        envelope = 10.0 ** (-structure.ROW_TAIL_DECADES / 2) * 2.0 ** (2.0 / p) * gs.amplitude
        for t in terms:
            assert np.max(np.abs(t[beyond])) <= envelope * np.max(np.abs(t) / weight)
        for t in terms[1:]:
            product = np.abs(t * terms[0])[beyond]
            assert np.max(product) <= 10.0 ** -structure.ROW_TAIL_DECADES * abs(row.form_value)

    @pytest.mark.parametrize("p", [4.1, 4.5])
    def test_slow_decay_runs_to_the_box(self, p):
        # the cut lies beyond L = 50 pi, so the row ends on L
        gs = GroundState(p, critical_speed(p))
        assert row_cut(gs, L50) > L50
        x = mapped_row(gs)[1]
        assert x[-1] == pytest.approx(L50, rel=1e-14)


class TestHalfLineRow:
    @pytest.fixture(scope="class", params=[4.1, 5.0, 30.0, 100.0])
    def row(self, request):
        p = request.param
        gs = GroundState(p, critical_speed(p))
        return gs, negativity_form(gs, DEFAULT_HALF_WIDTH, DEFAULT_POINTS)

    def test_half_line_sums_have_exact_parity(self, row):
        # the row's terms at -x equal those at x bitwise, and the half-line
        # pairing equals the trapezoid sum over the mirrored row [-x_max, x_max]
        gs, r = row
        s, x, xp, gamma, kap = mapped_row(gs)
        mirrored = SampledProfile(gs, -x)
        assert np.array_equal(_gamma(mirrored), gamma)
        assert np.array_equal(_kappa(mirrored), kap)
        w = np.concatenate((xp[:0:-1], xp))
        w[[0, -1]] *= 0.5
        whole = np.concatenate((kap[:0:-1] * gamma[:0:-1], kap * gamma))
        ds = s[1]
        # to rounding, on the sum of |kappa Gamma|: the p = 4.1 row cancels 2457-fold
        assert abs(r.form_value - ds * (w @ whole)) <= 1e-14 * ds * (w @ np.abs(whole))

    @pytest.mark.parametrize("p", [4.1, 5.0, 10.0])
    def test_operator_path_is_eighth_order(self, p, monkeypatch):
        # doubling both steps raises the dual sup error 2^8-fold (measured: 242,
        # 251 and 252; at the default steps p >= 10 sits near its rounding
        # floor). The p = 4.1 row runs to x_max = L, and one-sided stencils
        # there made it 2nd order (10.6-fold)
        gs = GroundState(p, critical_speed(p))
        fine = negativity_form(gs, DEFAULT_HALF_WIDTH, DEFAULT_POINTS).dual_sup_error
        monkeypatch.setattr(structure, "ROW_CORE_STEP", 2.0 * structure.ROW_CORE_STEP)
        monkeypatch.setattr(structure, "ROW_TAIL_STEP", 2.0 * structure.ROW_TAIL_STEP)
        coarse = negativity_form(gs, DEFAULT_HALF_WIDTH, DEFAULT_POINTS).dual_sup_error
        assert coarse >= 200.0 * fine


class TestGammaDirection:
    def test_even(self, gs5, periodic_8192):
        vals = gamma_direction(gs5.sample(periodic_8192)).values
        assert np.array_equal(vals[1:], vals[:0:-1])

    def test_value_at_origin(self, gs5, periodic_8192):
        B, _ = coefficients(gs5.sample(periodic_8192))
        c = gs5.c
        i0 = np.argmin(np.abs(periodic_8192.nodes))
        psi0 = gs5.sample(periodic_8192).psi[i0]
        phi0 = gs5.profile(periodic_8192).values[i0]
        gamma0 = gamma_direction(gs5.sample(periodic_8192)).values[i0]
        assert gamma0 == pytest.approx(B * (c * c * psi0 + c * phi0), rel=1e-12)

    def test_boundary_decay(self, gs5, periodic_8192):
        vals = gamma_direction(gs5.sample(periodic_8192)).values
        assert abs(vals[0]) < 1e-12 * np.max(np.abs(vals))
        assert abs(vals[-1]) < 1e-12 * np.max(np.abs(vals))


class TestKappa:
    def test_dual_path_sup(self, gs5):
        assert negativity_form(gs5, DEFAULT_HALF_WIDTH, DEFAULT_POINTS).dual_sup_error < 1e-6

    def test_even(self, gs5, periodic_8192):
        vals = kappa_closed_form(gs5.sample(periodic_8192)).values
        assert np.array_equal(vals[1:], vals[:0:-1])

    def test_reassembly_coefficients(self, gs5, periodic_8192):
        # subtracting all closed-form pieces except the x phi_x one isolates
        # its coefficient, which must be 18 c D
        p, c = gs5.p, gs5.c
        B, D = coefficients(gs5.sample(periodic_8192))
        x = periodic_8192.nodes
        phi = gs5.profile(periodic_8192).values
        dphi = gs5.profile_dx(periodic_8192).values
        ddphi = gs5.profile_dxx(periodic_8192).values
        kap = kappa_closed_form(gs5.sample(periodic_8192)).values
        rest = (
            (B * (p + 1.0) * c * c - B * p * c + 6.0 * c * D) * phi
            + B * (1.0 - p) * c * c * ddphi
            + (6.0 * c - 3.0 * p * c) * D * x * x * ddphi
            + 3.0 * p * (c - 1.0) * D * x * x * phi
        )
        i = np.argmax(np.abs(x * dphi))
        assert (kap - rest)[i] / (x * dphi)[i] == pytest.approx(18.0 * c * D, rel=1e-12)

    def test_orthogonal_to_translation_mode(self, gs5, periodic_8192):
        kap = kappa_closed_form(gs5.sample(periodic_8192))
        dphi = gs5.profile_dx(periodic_8192)
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
        row = negativity_form(gs, DEFAULT_HALF_WIDTH, DEFAULT_POINTS)
        assert (row.p, row.c0) == (p, gs.c)
        assert row.form_value == pytest.approx(PRINTED_TABLE[p], rel=0.01)
        assert row.dual_scalar_error < 1e-6
        assert row.dual_sup_error < 1e-6

    def test_row_size_grows_with_p(self):
        # m = asinh(x_max / a) / ds intervals on the half line, about ln p
        points = [negativity_form(GroundState(p, critical_speed(p)), DEFAULT_HALF_WIDTH,
                                  DEFAULT_POINTS).points
                  for p in (5.0, 100.0, 1e4)]
        assert points[0] < points[1] < points[2] < 2 * points[1]


@pytest.fixture(scope="module")
def full_table_report():
    return negativity_table(sorted(PRINTED_TABLE), DEFAULT_HALF_WIDTH, DEFAULT_POINTS)


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
        # rows capped at 1024 intervals, 2.4 to 4.9 times coarser
        coarser = negativity_table([5.0, 30.0, 100.0], DEFAULT_HALF_WIDTH, 1024)
        for row in coarser.rows:
            ref = next(r for r in report.rows if r.p == row.p)
            assert row.points == 1024 < ref.points
            assert row.form_value == pytest.approx(ref.form_value, rel=1e-9)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            negativity_table([], DEFAULT_HALF_WIDTH, DEFAULT_POINTS)
        with pytest.raises(ValueError):
            negativity_table([3.0], DEFAULT_HALF_WIDTH, DEFAULT_POINTS)

    def test_matches_uniform_rows(self, report):
        # the slow reference: each row on a whole uniform grid at k h <= 0.1,
        # 2^14 to 2^18 intervals, 8th-order on the operator path (measured:
        # form values within 5.6e-12, at p = 4.1, and 20 times the points)
        assert [r.p for r in report.rows] == [float(p) for p in DEFAULTS["p_list"].split(",")]
        uniform_points = 0
        for row in report.rows:
            closed, operator, sup, n = uniform_row(GroundState(row.p, row.c0), L50)
            uniform_points += n
            assert row.form_value == pytest.approx(closed, rel=1e-11)
            assert row.operator_value == pytest.approx(operator, rel=2e-9)
        assert sum(r.points for r in report.rows) < uniform_points / 15

    def test_dual_errors_below_1e_9(self, report):
        # a uniform grid at k h <= 0.1 reached 5.7e-9 sup (p = 50) and 1.7e-9
        # scalar (p = 4.1); the rows measure at most 4.1e-11 and 3.2e-10
        for row in report.rows:
            assert row.dual_sup_error <= 1e-9
            assert row.dual_scalar_error <= 1e-9

    def test_row_to_the_box_reads_ghost_nodes(self, report):
        # the p = 4.1 row runs to x_max = L; its stencils read Gamma's closed
        # form past L, where one-sided ones left 9.2e-10 at x = L (measured
        # now: 4.1e-11, the core's level)
        row = next(r for r in report.rows if r.p == 4.1)
        assert row_cut(GroundState(row.p, row.c0), L50) > L50
        assert row.dual_sup_error <= 1e-10

    def test_dual_path_guard_trips_on_a_coarse_row(self):
        # capping the p = 100 row at 512 intervals breaks the 1e-6 contract
        gs = GroundState(100.0, critical_speed(100.0))
        assert negativity_form(gs, DEFAULT_HALF_WIDTH, 512).dual_sup_error > 1e-6
        with pytest.raises(structure.DualPathError):
            negativity_table([100.0], DEFAULT_HALF_WIDTH, 512)


class TestModulationPairing:
    def test_identity_off_critical(self):
        gs = GroundState(5.0, 1.3)
        grid = make_grid(L50, 8192)
        fd, closed = modulation_pairing(gs, grid)
        assert closed != 0.0
        assert fd == pytest.approx(closed, rel=1e-6)

    def test_vanishes_at_critical_speed(self, gs5, periodic_8192):
        fd, closed = modulation_pairing(gs5, periodic_8192)
        kap = kappa_closed_form(gs5.sample(periodic_8192))
        dcphi = gs5.profile_dc(periodic_8192)
        scale = norm_l2(kap) * norm_l2(dcphi)
        assert abs(closed) < 1e-12 * scale
        assert abs(fd) < 1e-5 * scale

    def test_proportional_to_momentum_slope(self):
        # the pairing equals c^2 B(c) d_c Q(phi_c) at any speed
        p = 7.0
        for c in (1.25, 1.6):
            gs = GroundState(p, c)
            grid = make_grid(L50, 8192)
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
