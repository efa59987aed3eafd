import math

import numpy as np
import pytest

from gbbmlab import (
    Field,
    GroundState,
    bound_states,
    closed_form_identities,
    critical_speed,
    derivative,
    make_grid,
    momentum,
)

L50 = 50.0 * math.pi


class TestCriticalSpeed:
    def test_value_p5(self):
        # closed form evaluated in extended precision
        assert critical_speed(5.0) == pytest.approx(1.1147572655570152, abs=1e-12)

    @pytest.mark.parametrize("p", [4.1, 10.0, 100.0])
    def test_defining_polynomial(self, p):
        c = critical_speed(p)
        resid = 8.0 * (p + 2.0) * c * c - 8.0 * p * c - p * p
        assert abs(resid) < 1e-10 * max(1.0, p * p)

    def test_rejects_subcritical_exponent(self):
        with pytest.raises(ValueError):
            critical_speed(4.0)

    def test_exceeds_one(self):
        for p in (4.01, 7.3, 55.0):
            assert critical_speed(p) > 1.0


class TestProfile:
    def test_peak_value(self, gs5, periodic_8192):
        phi = gs5.profile(periodic_8192)
        i0 = np.argmin(np.abs(periodic_8192.nodes))
        expected = (0.5 * (gs5.c - 1.0) * (gs5.p + 2.0)) ** (1.0 / gs5.p)
        assert phi.values[i0] == pytest.approx(expected, rel=1e-14)

    def test_even(self, gs5, periodic_8192):
        vals = gs5.profile(periodic_8192).values
        assert np.array_equal(vals[1:], vals[:0:-1])

    def test_elliptic_equation_residual(self, gs5, periodic_8192):
        p, c = gs5.p, gs5.c
        phi = gs5.profile(periodic_8192)
        phixx = derivative(phi, 2).values
        resid = -c * phixx + (c - 1.0) * phi.values - phi.values ** (p + 1.0)
        assert np.max(np.abs(resid)) < 1e-8 * np.max(np.abs(phi.values))

    @pytest.mark.parametrize(
        "p,c",
        [(4.5, None), (7.0, 1.3), (10.0, None), (2.0, 1.5)],
    )
    def test_elliptic_residual_sweep(self, p, c, periodic_8192):
        gs = GroundState(p, critical_speed(p) if c is None else c)
        phi = gs.profile(periodic_8192)
        phixx = derivative(phi, 2).values
        resid = -gs.c * phixx + (gs.c - 1.0) * phi.values - phi.values ** (p + 1.0)
        assert np.max(np.abs(resid)) < 1e-8 * np.max(np.abs(phi.values))

    def test_scaled_profile_equation(self, gs5, periodic_8192):
        p = gs5.p
        # psi_omega = c^{-1/p} phi_c solves -psi'' + (1 - omega^2) psi - psi^{p+1} = 0
        psi = Field(periodic_8192, gs5.c ** (-1.0 / p) * gs5.sample(periodic_8192).phi)
        psixx = derivative(psi, 2).values
        resid = -psixx + (1.0 - gs5.omega ** 2) * psi.values - psi.values ** (p + 1.0)
        assert np.max(np.abs(resid)) < 1e-8 * np.max(np.abs(psi.values))

    def test_power_p_consistency(self, gs5, periodic_8192):
        phi = gs5.profile(periodic_8192).values
        powp = gs5.profile_pow_p(periodic_8192).values
        assert np.max(np.abs(powp - phi ** gs5.p)) < 1e-12 * np.max(powp)

    def test_tail_log_slope(self, gs5):
        grid = make_grid(L50, 8192)
        x = grid.nodes
        phi = gs5.profile(grid).values
        sel = (x > L50 / 2) & (x < 3 * L50 / 4)
        slope = np.polyfit(x[sel], np.log(phi[sel]), 1)[0]
        assert slope == pytest.approx(-gs5.tail_rate, rel=0.01)

    def test_stable_far_tail_large_p(self):
        # log-space evaluation: no overflow cliff even at p=100
        p = 100.0
        gs = GroundState(p, critical_speed(p))
        grid = make_grid(L50, 16384)
        phi = gs.profile(grid).values
        mid = phi[np.abs(grid.nodes - 20.0) < 1.0]
        assert np.all(mid > 0)

    def test_rejects_narrow_grid(self, gs5):
        with pytest.raises(Exception):
            gs5.profile(make_grid(5.0, 64))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            GroundState(5.0, 0.9)
        with pytest.raises(ValueError):
            GroundState(-1.0, 1.5)


class TestDerivatives:
    def test_dx_vanishes_at_origin(self, gs5, periodic_8192):
        dphi = gs5.profile_dx(periodic_8192).values
        i0 = np.argmin(np.abs(periodic_8192.nodes))
        assert abs(dphi[i0]) < 1e-14

    def test_dx_matches_spectral(self, gs5, periodic_8192):
        dphi = gs5.profile_dx(periodic_8192)
        num = derivative(gs5.profile(periodic_8192), 1)
        assert np.max(np.abs(num.values - dphi.values)) < 1e-8 * np.max(np.abs(dphi.values))

    def test_dxx_at_origin(self, gs5, periodic_8192):
        p, c = gs5.p, gs5.c
        i0 = np.argmin(np.abs(periodic_8192.nodes))
        phi0 = gs5.profile(periodic_8192).values[i0]
        ddphi0 = gs5.profile_dxx(periodic_8192).values[i0]
        assert ddphi0 == pytest.approx(-(c - 1.0) / c * (p / 2.0) * phi0, rel=1e-12)

    def test_dxx_matches_spectral(self, gs5, periodic_8192):
        ddphi = gs5.profile_dxx(periodic_8192)
        num = derivative(gs5.profile(periodic_8192), 2)
        scale = np.max(np.abs(ddphi.values))
        assert np.max(np.abs(num.values - ddphi.values)) < 1e-8 * scale

    def test_dc_matches_finite_difference(self, gs5, periodic_8192):
        p, c = gs5.p, gs5.c
        dc = 1e-6 * c
        fd = (
            GroundState(p, c + dc).profile(periodic_8192).values
            - GroundState(p, c - dc).profile(periodic_8192).values
        ) / (2.0 * dc)
        ana = gs5.profile_dc(periodic_8192).values
        assert np.max(np.abs(fd - ana)) < 1e-7 * np.max(np.abs(ana))

    def test_dc_dx_matches_finite_difference(self, gs5, periodic_8192):
        p, c = gs5.p, gs5.c
        dc = 1e-6 * c
        fd = (
            GroundState(p, c + dc).profile_dx(periodic_8192).values
            - GroundState(p, c - dc).profile_dx(periodic_8192).values
        ) / (2.0 * dc)
        ana = gs5.profile_dc_dx(periodic_8192).values
        assert np.max(np.abs(fd - ana)) < 1e-6 * np.max(np.abs(ana))

    @pytest.mark.parametrize("p", [4.5, 5.0, 10.0])
    @pytest.mark.parametrize("c", [1.05, None, 1.3], ids=["1.05", "c0", "1.3"])
    def test_dc2_matches_finite_difference(self, p, c, periodic_8192):
        # central difference of the closed-form d_c phi with step 1e-4 (c - 1):
        # its O(dc^2) error is 1e-8 relative here, and shrinks 100-fold with
        # the step down to 1e-5 (c - 1)
        c = critical_speed(p) if c is None else c
        dc = 1e-4 * (c - 1.0)
        fd = (
            GroundState(p, c + dc).sample(periodic_8192).dc_phi
            - GroundState(p, c - dc).sample(periodic_8192).dc_phi
        ) / (2.0 * dc)
        ana = GroundState(p, c).sample(periodic_8192).dc2_phi
        assert np.max(np.abs(fd - ana)) < 3e-8 * np.max(np.abs(ana))


class TestPsiDirection:
    def test_value_at_origin(self, gs5, periodic_8192):
        i0 = np.argmin(np.abs(periodic_8192.nodes))
        phi0 = gs5.profile(periodic_8192).values[i0]
        psi0 = gs5.sample(periodic_8192).psi[i0]
        assert psi0 == pytest.approx(phi0 / (gs5.p * (gs5.c - 1.0)), rel=1e-13)

    def test_even(self, gs5, periodic_8192):
        vals = gs5.sample(periodic_8192).psi
        assert np.array_equal(vals[1:], vals[:0:-1])

    def test_reading_psi_leaves_dc_phi_unchanged(self, gs5, periodic_8192):
        # d_c phi and its factor g are cached on the bundle; psi scales a copy of g
        prof = gs5.sample(periodic_8192)
        psi = prof.psi
        fresh = gs5.sample(periodic_8192)
        assert prof.dc_phi is prof.dc_phi
        assert np.array_equal(prof.dc_phi, fresh.dc_phi)
        assert np.array_equal(prof.dc_phi_x, fresh.dc_phi_x)
        assert np.array_equal(prof.psi, psi)

    def test_preimage_of_profile(self, gs5, periodic_8192):
        # hessian image of Psi reproduces the profile
        from gbbmlab import hessian_apply

        img = hessian_apply(gs5, Field(periodic_8192, gs5.sample(periodic_8192).psi))
        phi = gs5.profile(periodic_8192)
        err = np.max(np.abs(img.values - phi.values))
        assert err < 1e-6 * np.max(np.abs(phi.values))


class TestGroundMode:
    @pytest.mark.parametrize("N", [1500, 8192])
    def test_even_to_the_bit(self, gs5, N):
        vals = gs5.sample(make_grid(L50, N)).ground_mode
        assert np.array_equal(vals[1:], vals[:0:-1])

    @pytest.mark.parametrize("p", [4.5, 5.0, 10.0])
    def test_power_of_the_profile(self, p, periodic_8192):
        # sech^{1+2/p}(kx) = (phi_c / A)^{(p+2)/2}
        gs = GroundState(p, critical_speed(p))
        prof = gs.sample(periodic_8192)
        ref = (prof.phi / gs.amplitude) ** (0.5 * (p + 2.0))
        assert np.max(np.abs(prof.ground_mode - ref)) <= 1e-14

    @pytest.mark.parametrize("p", [4.5, 5.0, 10.0])
    def test_eigenfunction_of_the_weinstein_operator(self, p, periodic_8192):
        # -g'' + (c-1)/c g - (p+1) phi_c^p / c g = lambda_0 g, spectral g''
        gs = GroundState(p, critical_speed(p))
        prof = gs.sample(periodic_8192)
        g = prof.ground_mode
        gxx = derivative(Field(periodic_8192, g), 2).values
        lg = -gxx + (gs.c - 1.0) / gs.c * g - (p + 1.0) * prof.phi_p / gs.c * g
        ground = bound_states(gs).ground
        assert np.max(np.abs(lg - ground * g)) <= 1e-9 * abs(ground)


class TestIdentities:
    @pytest.mark.parametrize("p", [4.1, 5.0, 10.0])
    def test_all_identities_tight(self, p, periodic_8192):
        gs = GroundState(p, critical_speed(p))
        report = closed_form_identities(gs, periodic_8192)
        assert report.max_rel_error() < 1e-8

    def test_momentum_slope_vanishes_at_critical_speed(self, gs5, periodic_8192):
        report = closed_form_identities(gs5, periodic_8192)
        rec = report["dc_momentum"]
        n2 = report["l2_norm_sq"].quadrature
        assert abs(rec.closed_form) < 1e-12 * n2
        assert abs(rec.quadrature) < 1e-10 * n2

    def test_momentum_slope_fd(self, gs5, periodic_8192):
        # central difference of Q(phi_c) in c, absolute step 1e-4
        p, c = gs5.p, gs5.c
        dc = 1e-4
        qp = momentum(GroundState(p, c + dc).profile(periodic_8192))
        qm = momentum(GroundState(p, c - dc).profile(periodic_8192))
        q0 = momentum(gs5.profile(periodic_8192))
        assert abs((qp - qm) / (2.0 * dc)) < 1e-6 * q0

    def test_slope_ratio_p5(self, gs5, periodic_8192):
        report = closed_form_identities(gs5, periodic_8192)
        n2 = report["l2_norm_sq"].quadrature
        dn2 = report["dx_norm_sq"].quadrature
        c = gs5.c
        assert dn2 / n2 == pytest.approx(5.0 * (c - 1.0) / (9.0 * c), rel=1e-10)

    def test_closed_forms_do_not_depend_on_the_grid(self, gs5, periodic_8192):
        # the closed side uses the closed-form ||phi_c||^2, never the quadrature
        fine = closed_form_identities(gs5, periodic_8192)
        coarse = closed_form_identities(gs5, make_grid(L50, 512))
        assert [r.closed_form for r in fine.records] == [
            r.closed_form for r in coarse.records
        ]
        assert coarse["l2_norm_sq"].quadrature != fine["l2_norm_sq"].quadrature

    def test_identities_off_critical_speed(self, periodic_8192):
        gs = GroundState(5.0, 1.4)
        report = closed_form_identities(gs, periodic_8192)
        assert report.max_rel_error() < 1e-8
        assert report["dc_momentum"].closed_form != pytest.approx(0.0, abs=1e-6)
