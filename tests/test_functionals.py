import math

import numpy as np
import pytest

from gbbmlab import (
    Field,
    GroundState,
    closed_form_identities,
    energy,
    hessian_apply,
    inner,
    make_grid,
    momentum,
    norm_l2,
    translate,
)
from gbbmlab.functionals import _energy_density, _flow, _flow_symbol, _nonlinear
from conftest import decaying_random_field
from reference_paths import action, evolution_rhs, float_power_nonlinearity, gradients


def fd_order(errors, epsilons):
    errs = np.asarray(errors)
    eps = np.asarray(epsilons)
    return np.log(errs[:-1] / errs[1:]) / np.log(eps[:-1] / eps[1:])


def passes_quadratic_convergence(errors, epsilons, scale):
    """Order >= 1.9, or errors already at the roundoff floor (exact FD).

    Q is quadratic, so its central difference is exact up to roundoff and the
    observed order carries no information; the floor branch covers that.
    """
    errs = np.asarray(errors)
    if np.all(errs < 1e-11 * scale):
        return True
    return bool(np.all(fd_order(errs, epsilons) >= 1.9))


class TestValues:
    def test_zero_field(self, periodic_4096):
        z = Field(periodic_4096, np.zeros(periodic_4096.points))
        assert energy(z, 5.0) == 0.0
        assert momentum(z) == 0.0

    def test_energy_even_functional(self, gs5, periodic_4096, rng):
        u = decaying_random_field(periodic_4096, rng)
        assert energy(u, gs5.p) == pytest.approx(energy(Field(u.grid, -u.values), gs5.p), rel=1e-14)

    def test_energy_ground_state_closed_form(self, gs5, periodic_8192):
        p, c = gs5.p, gs5.c
        E = energy(gs5.profile(periodic_8192), p)
        rep = {r.name: r for r in closed_form_identities(gs5, periodic_8192)}
        n2 = rep["l2_norm_sq"].quadrature
        assert E == pytest.approx((4.0 * c + p) / (2.0 * (p + 4.0)) * n2, rel=1e-8)

    def test_action_combination(self, gs5, periodic_4096, rng):
        u = decaying_random_field(periodic_4096, rng)
        fv = action(u, gs5.p, gs5.c)
        assert fv.S_c == pytest.approx(fv.E - gs5.c * fv.Q, abs=1e-14)

    def test_momentum_translation_invariant(self, gs5, periodic_4096):
        phi = gs5.profile(periodic_4096)
        shifted = translate(phi, 7.7)
        assert momentum(shifted) == pytest.approx(momentum(phi), rel=1e-12)


class TestGradients:
    def test_ground_state_is_critical_point(self, gs5, periodic_8192):
        phi = gs5.profile(periodic_8192)
        _, _, s_grad = gradients(phi, gs5.p, gs5.c)
        assert np.max(np.abs(s_grad.values)) < 1e-8 * np.max(np.abs(phi.values))

    def test_gradients_vanish_at_zero(self, periodic_4096):
        z = Field(periodic_4096, np.zeros(periodic_4096.points))
        e_grad, q_grad, _ = gradients(z, 5.0, 1.2)
        assert np.all(e_grad.values == 0.0)
        assert np.all(q_grad.values == 0.0)

    def test_momentum_chain_rule_off_critical(self, periodic_8192):
        # <Q'(phi_c), d_c phi_c> equals the closed-form momentum slope
        p, c = 5.0, 1.3
        gs = GroundState(p, c)
        _, q_grad, _ = gradients(gs.profile(periodic_8192), p, c)
        lhs = inner(q_grad, gs.profile_dc(periodic_8192))
        rep = {r.name: r for r in closed_form_identities(gs, periodic_8192)}
        assert lhs == pytest.approx(rep["dc_momentum"].closed_form, rel=1e-5)

    @pytest.mark.parametrize("which", ["energy", "momentum", "action"])
    def test_directional_derivative_order(self, gs5, periodic_4096, rng, which):
        p, c = gs5.p, gs5.c
        u = gs5.profile(periodic_4096)
        v = decaying_random_field(periodic_4096, rng, scale=2.0)
        e_grad, q_grad, s_grad = gradients(u, p, c)
        grad = {"energy": e_grad, "momentum": q_grad, "action": s_grad}[which]

        def F(w):
            fv = action(w, p, c)
            return {"energy": fv.E, "momentum": fv.Q, "action": fv.S_c}[which]

        exact = inner(grad, v)
        eps = [1e-2, 1e-3, 1e-4]
        errs = []
        for e in eps:
            up = Field(u.grid, u.values + e * v.values)
            um = Field(u.grid, u.values - e * v.values)
            errs.append(abs((F(up) - F(um)) / (2.0 * e) - exact))
        assert passes_quadratic_convergence(errs, eps, max(abs(exact), 1.0))


class TestHessian:
    def test_kernel_direction(self, gs5, periodic_8192):
        img = hessian_apply(gs5, gs5.profile_dx(periodic_8192))
        scale = np.max(np.abs(2.0 * gs5.c * gs5.profile_dxx(periodic_8192).values))
        assert np.max(np.abs(img.values)) < 1e-7 * scale

    def test_scaling_direction(self, gs5, periodic_8192):
        x = periodic_8192.nodes
        f = Field(periodic_8192, x * gs5.profile_dx(periodic_8192).values)
        img = hessian_apply(gs5, f)
        target = 2.0 * gs5.c * gs5.profile_dxx(periodic_8192).values
        assert np.max(np.abs(img.values - target)) < 1e-6 * np.max(np.abs(target))

    def test_profile_image(self, gs5, periodic_8192):
        p, c = gs5.p, gs5.c
        img = hessian_apply(gs5, gs5.profile(periodic_8192))
        target = (
            -p * c * gs5.profile_dxx(periodic_8192).values
            + p * (c - 1.0) * gs5.profile(periodic_8192).values
        )
        assert np.max(np.abs(img.values - target)) < 1e-6 * np.max(np.abs(target))

    def test_psi_preimage(self, gs5, periodic_8192):
        img = hessian_apply(gs5, Field(periodic_8192, gs5.sample(periodic_8192).psi))
        phi = gs5.profile(periodic_8192).values
        assert np.max(np.abs(img.values - phi)) < 1e-6 * np.max(np.abs(phi))

    def test_bilinear_symmetry(self, gs5, periodic_4096, rng):
        f = decaying_random_field(periodic_4096, rng)
        g = decaying_random_field(periodic_4096, rng)
        a = inner(hessian_apply(gs5, f), g)
        b = inner(hessian_apply(gs5, g), f)
        assert a == pytest.approx(b, abs=1e-10 * max(1.0, abs(a)))

    def test_consistency_with_gradient(self, gs5, periodic_4096, rng):
        # direction large enough that the eps^2 term dominates the 1/eps
        # amplification of spectral-derivative roundoff at eps = 1e-4
        p, c = gs5.p, gs5.c
        phi = gs5.profile(periodic_4096)
        v = decaying_random_field(periodic_4096, rng, scale=4.0)
        img = hessian_apply(gs5, v)
        eps = [1e-2, 1e-3, 1e-4]
        errs = []
        for e in eps:
            up = Field(phi.grid, phi.values + e * v.values)
            um = Field(phi.grid, phi.values - e * v.values)
            fd = (gradients(up, p, c)[2].values - gradients(um, p, c)[2].values) / (2.0 * e)
            errs.append(norm_l2(Field(phi.grid, fd - img.values)))
        assert passes_quadratic_convergence(errs, eps, norm_l2(img))


class TestEvolutionField:
    def test_zero_fixed_point(self, periodic_4096):
        z = Field(periodic_4096, np.zeros(periodic_4096.points))
        assert np.all(evolution_rhs(z, 5.0).values == 0.0)

    def test_traveling_wave_relation(self, gs5, periodic_8192):
        rhs = evolution_rhs(gs5.profile(periodic_8192), gs5.p)
        target = -gs5.c * gs5.profile_dx(periodic_8192).values
        assert np.max(np.abs(rhs.values - target)) < 1e-7 * np.max(np.abs(target))

    def test_conservation_generators(self, gs5, periodic_4096, rng):
        u = Field(
            periodic_4096,
            gs5.profile(periodic_4096).values
            + 0.1 * decaying_random_field(periodic_4096, rng).values,
        )
        rhs = evolution_rhs(u, gs5.p, dealias=False)
        e_grad, q_grad, _ = gradients(u, gs5.p, gs5.c)
        scale = norm_l2(rhs) * max(norm_l2(e_grad), norm_l2(q_grad))
        assert abs(inner(rhs, e_grad)) < 1e-9 * scale
        assert abs(inner(rhs, q_grad)) < 1e-9 * scale


    @pytest.mark.parametrize("N", [2048, 8192])
    def test_band_slice_is_the_masked_flow(self, gs5, rng, N):
        # multiplying only the bins below the 2/3 cutoff and letting irfft
        # zero-pad is bitwise the 0/1 mask on every bin
        g = make_grid(50.0 * math.pi, N)
        v = gs5.profile(g).values + 0.1 * decaying_random_field(g, rng).values
        mask = np.where(np.arange(N // 2 + 1) < g.dealias_cut, 1.0, 0.0)
        wh = np.fft.rfft(v + _nonlinear(v, gs5.p)) * mask
        masked = np.fft.irfft(_flow_symbol(g) * wh, n=N)
        assert np.array_equal(_flow(v, g, gs5.p), masked)


class TestNonlinearity:
    @pytest.mark.parametrize("p", [5.0, 6.0])
    def test_integer_path_matches_float_power(self, p):
        u = np.random.default_rng(5).normal(size=8192)  # sign-changing
        ref = float_power_nonlinearity(u, p)
        assert np.all(np.abs(_nonlinear(u, p) - ref) <= 1e-15 * np.abs(ref))

    @pytest.mark.parametrize("p, power", [
        (4.0, lambda u: u * ((u * u) * (u * u))),
        (5.0, lambda u: (np.abs(u) * u) * ((u * u) * (u * u))),
        (6.0, lambda u: (u * (u * u)) * ((u * u) * (u * u))),
    ])
    def test_integer_path_is_repeated_squaring(self, p, power):
        # u |u|^(p mod 2) times (u^2)^(p // 2) by squaring, in that order, bit for bit
        u = np.random.default_rng(5).normal(size=8192)
        assert np.array_equal(_nonlinear(u, p), power(u))

    @pytest.mark.parametrize("p", [4.1, 4.5, 6.5])
    def test_fractional_path_is_the_float_power(self, p):
        # |u|^p times u: within 2 ulp of sign(u) |u|^(p+1), exactly 0 at u = 0
        u = np.random.default_rng(5).normal(size=8192)
        u[::97] = 0.0
        ref = float_power_nonlinearity(u, p)
        out = _nonlinear(u, p)
        assert np.all(np.abs(out - ref) <= 4.5e-16 * np.abs(ref))
        dens_ref = 0.5 * u * u + u * ref / (p + 2.0)
        dens = _energy_density(u, p)
        assert np.all(np.abs(dens - dens_ref) <= 4.5e-16 * dens_ref)
        zeros = u == 0.0
        assert not np.any(out[zeros]) and not np.any(dens[zeros])

    def test_negative_integer_p_takes_the_float_power(self):
        u = np.random.default_rng(5).normal(size=8192)
        ref = float_power_nonlinearity(u, -2.0)
        assert np.all(np.abs(_nonlinear(u, -2.0) - ref) <= 4.5e-16 * np.abs(ref))

    @pytest.mark.parametrize("p", [5.0, 4.5])
    def test_energy_density_matches_float_power(self, p):
        # v |v|^p v by the shared kernel against |v|^(p+2) by the float power
        u = np.random.default_rng(5).normal(size=8192)
        ref = 0.5 * u * u + np.abs(u) ** (p + 2.0) / (p + 2.0)
        assert np.all(np.abs(_energy_density(u, p) - ref) <= 1e-14 * ref)
