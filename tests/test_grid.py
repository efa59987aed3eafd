import math

import numpy as np
import pytest

from gbbmlab import (
    Field,
    GridError,
    derivative,
    helmholtz_inverse,
    inner,
    make_grid,
    norm_h1,
    quadrature,
)
from gbbmlab.functionals import _flow_symbol
from gbbmlab.grid import _derivative_symbol, _fd_derivative, _h1_weights
from conftest import smooth_random_field
from reference_paths import first_difference_4, second_difference_4

L50 = 50.0 * math.pi


def test_make_grid_spacing():
    g = make_grid(L50, 4096)
    assert g.h == pytest.approx(100.0 * math.pi / 4096, rel=1e-15)
    assert g.nodes.size == 4096
    assert g.nodes[0] == pytest.approx(-L50)


@pytest.mark.parametrize("L,N", [(10.0, 16), (L50, 4096)], ids=["16", "4096"])
def test_make_grid_nodes(L, N):
    # x_j = (j - N/2) h, j = 0..N-1: x = -L is a node and its periodic image
    # x = L is not; x_{N/2} = 0 and the nodes around it mirror bitwise
    g = make_grid(L, N)
    x, c = g.nodes, N // 2
    assert x.size == N
    assert x[c] == 0.0
    assert np.array_equal(x[c + 1:], -x[c - 1:0:-1])
    assert np.allclose(np.diff(x), g.h, rtol=1e-12, atol=0.0)
    assert x[0] == pytest.approx(-L, rel=1e-15)
    assert x[-1] == pytest.approx(L - g.h, rel=1e-15)


def test_grid_reports_its_node_count_and_box():
    # the two read-only properties a profile trace records
    g = make_grid(10.0, 64)
    assert g.boundary == "periodic"
    assert g.node_count == g.points == g.nodes.size


@pytest.mark.parametrize("cached", [
    _flow_symbol, _h1_weights, lambda g: _derivative_symbol(g, 1),
    lambda g: _derivative_symbol(g, 2),
], ids=["flow_symbol", "h1_weights", "derivative_symbol_1", "derivative_symbol_2"])
def test_shared_caches_are_read_only(cached):
    # every later call on the grid gets the same array: a write to it raises
    # instead of corrupting them
    g = make_grid(10.0, 64)
    a = cached(g)
    assert cached(g) is a
    with pytest.raises(ValueError, match="read-only"):
        a *= 2.0
    with pytest.raises(ValueError, match="read-only"):
        a[0] = 0.0


@pytest.mark.parametrize("L,N", [(10.0, 15), (10.0, 14), (-1.0, 64), (0.0, 64)])
def test_make_grid_rejects(L, N):
    with pytest.raises(GridError):
        make_grid(L, N)


def test_field_validation():
    g = make_grid(10.0, 64)
    with pytest.raises(GridError):
        Field(g, np.ones(63))
    bad = np.ones(64)
    bad[3] = np.nan
    with pytest.raises(GridError):
        Field(g, bad)


def test_ensure_resolves():
    g = make_grid(10.0, 64)
    g.ensure_resolves(2.0)  # tail e^-20 = 2.1e-9 <= RESOLVE_TOL = 1e-6
    with pytest.raises(GridError):
        g.ensure_resolves(0.1)  # tail e^-1


def test_quadrature_constant():
    g = make_grid(10.0, 256)
    f = Field(g, np.ones(g.points))
    assert quadrature(f) == pytest.approx(20.0, abs=1e-12)


def test_quadrature_sech_squared():
    # antiderivative tanh evaluated at +-L
    g = make_grid(L50, 8192)
    f = Field(g, 1.0 / np.cosh(g.nodes) ** 2)
    assert quadrature(f) == pytest.approx(2.0 * math.tanh(L50), abs=1e-12)


def test_quadrature_is_spectral_on_periodic_integrands():
    # the plain sum times h is the trapezoid rule of a 2L-periodic integrand,
    # geometrically convergent: the integral of exp(sin(pi x / L)) over the
    # box is 2 L I_0(1) to rounding already at N = 32
    from scipy.special import i0

    for N in (32, 64, 256):
        g = make_grid(L50, N)
        f = Field(g, np.exp(np.sin(math.pi * g.nodes / g.half_width)))
        assert quadrature(f) == pytest.approx(2.0 * L50 * i0(1.0), rel=1e-14)


def test_quadrature_ground_state_norm(gs5, periodic_8192):
    from gbbmlab import normalized_profile_norm_sq

    phi = gs5.profile(periodic_8192)
    quad = quadrature(Field(periodic_8192, phi.values ** 2))
    c, p = gs5.c, gs5.p
    closed = c ** 0.5 * (c - 1.0) ** (2.0 / p - 0.5) * normalized_profile_norm_sq(p)
    assert quad == pytest.approx(closed, rel=1e-8)


def test_quadrature_linearity(rng):
    g = make_grid(20.0, 512)
    f = smooth_random_field(g, rng)
    h = smooth_random_field(g, rng)
    a, b = rng.normal(), rng.normal()
    lhs = quadrature(Field(g, a * f.values + b * h.values))
    rhs = a * quadrature(f) + b * quadrature(h)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_derivative_sine_mode():
    g = make_grid(L50, 256)
    k = math.pi / g.half_width
    f = Field(g, np.sin(k * g.nodes))
    df = derivative(f, 1)
    assert np.max(np.abs(df.values - k * np.cos(k * g.nodes))) < 1e-10


def test_derivative_constant():
    g = make_grid(10.0, 128)
    df = derivative(Field(g, np.full(g.points, 3.7)), 1)
    assert np.max(np.abs(df.values)) < 1e-12


def test_derivative_matches_analytic_profile(gs5):
    g = make_grid(L50, 8192)
    phi = gs5.profile(g)
    dphi = gs5.profile_dx(g)
    num = derivative(phi, 1)
    assert np.max(np.abs(num.values - dphi.values)) < 1e-8 * np.max(np.abs(dphi.values))


@pytest.mark.parametrize("order", [2])
def test_higher_derivatives_on_gaussian(order):
    g = make_grid(30.0, 2048)
    x = g.nodes
    f = Field(g, np.exp(-(x ** 2) / 2.0))
    exact = (x ** 2 - 1.0) * np.exp(-(x ** 2) / 2.0)
    num = derivative(f, order)
    assert np.max(np.abs(num.values - exact)) < 1e-9


@pytest.mark.parametrize("order", [1, 2])
def test_fd_derivative_is_eighth_order(gs5, order):
    # _fd_derivative fills nodes 4..n-5 with the 8th-order stencil, so halving
    # h cuts the error on phi_c by up to 2^8 (order 1: 228x and 248x; order 2:
    # 227x and 235x); the 4th-order reference by 2^4
    reference_path = {1: first_difference_4, 2: second_difference_4}[order]
    errors, reference = [], []
    for n in (2048, 4096, 8192):
        g = make_grid(L50, n)
        prof = gs5.sample(g)
        exact = {1: prof.phi_x, 2: prof.phi_xx}[order][4:-4]
        errors.append(np.max(np.abs(_fd_derivative(prof.phi, g.h, order) - exact)))
        reference.append(np.max(np.abs(reference_path(prof.phi, g.h)[4:-4] - exact)))
    assert all(a >= 200.0 * b for a, b in zip(errors, errors[1:]))
    assert all(15.0 <= a / b <= 17.0 for a, b in zip(reference, reference[1:]))


@pytest.mark.parametrize("order", [1, 2])
def test_fd_derivative_is_exact_on_octics(order):
    # nine-point stencils: x^k, k <= 8, differentiated exactly at nodes
    # 4..n-5, the n - 8 values returned (n = 32 nodes, |x| <= 1)
    g = make_grid(1.0, 32)
    x = g.nodes
    for k in range(9):
        out = _fd_derivative(x ** k, g.h, order)
        exact = (k * x ** (k - 1) if order == 1 else k * (k - 1) * x ** (k - 2)) if k >= order \
            else np.zeros_like(x)
        assert out.shape == (g.points - 8,)
        assert np.max(np.abs(out - exact[4:-4])) <= 1e-10


@pytest.mark.parametrize("order", [1, 2])
def test_fd_derivative_keeps_parity(rng, order):
    # differences summed in pairs: an even array gives an odd first and an
    # even second difference bitwise, an odd array the reverse
    wing = rng.normal(size=40)
    even = np.concatenate([wing[::-1], [rng.normal()], wing])
    odd = np.concatenate([-wing[::-1], [0.0], wing])
    d_even = _fd_derivative(even, 0.1, order)
    d_odd = _fd_derivative(odd, 0.1, order)
    sign = -1.0 if order == 1 else 1.0
    assert np.array_equal(d_even[::-1], sign * d_even)
    assert np.array_equal(d_odd[::-1], -sign * d_odd)


def test_derivative_rejects_bad_order():
    # orders 1 and 2 only
    g = make_grid(10.0, 64)
    for order in (0, 3, 4):
        with pytest.raises(GridError):
            derivative(Field(g, np.zeros(g.points)), order)


def test_helmholtz_constant():
    g = make_grid(10.0, 128)
    out = helmholtz_inverse(Field(g, np.full(128, 3.0)))
    assert np.max(np.abs(out.values - 3.0)) < 1e-13


def test_helmholtz_cosine_eigenfunction():
    g = make_grid(L50, 512)
    k = 2.0 * math.pi * 5 / (2.0 * g.half_width)
    f = Field(g, np.cos(k * g.nodes))
    out = helmholtz_inverse(f)
    assert np.max(np.abs(out.values - f.values / (1.0 + k * k))) < 1e-13


def test_helmholtz_defining_relation(rng):
    g = make_grid(20.0, 1024)
    f = smooth_random_field(g, rng)
    u = helmholtz_inverse(f)
    resid = u.values - derivative(u, 2).values - f.values
    assert np.max(np.abs(resid)) < 1e-10


def test_helmholtz_self_adjoint(rng):
    g = make_grid(20.0, 512)
    f = smooth_random_field(g, rng)
    h = smooth_random_field(g, rng)
    assert inner(helmholtz_inverse(f), h) == pytest.approx(
        inner(f, helmholtz_inverse(h)), abs=1e-10
    )


def test_helmholtz_commutes_with_derivative(rng):
    g = make_grid(20.0, 512)
    f = smooth_random_field(g, rng)
    a = derivative(helmholtz_inverse(f), 1)
    b = helmholtz_inverse(derivative(f, 1))
    assert np.max(np.abs(a.values - b.values)) < 1e-10


def test_periodic_integral_of_derivative(rng):
    g = make_grid(20.0, 512)
    f = smooth_random_field(g, rng)
    assert abs(quadrature(derivative(f, 1))) < 1e-10


@pytest.mark.parametrize("rough", [False, True], ids=["smooth", "rough"])
def test_periodic_norm_h1_is_the_trapezoid(rng, rough):
    # Parseval from one rfft equals the trapezoid of u^2 + (spectral u_x)^2,
    # also for white noise, which fills the Nyquist bin
    g = make_grid(20.0, 512)
    u = Field(g, rng.normal(size=g.points)) if rough else smooth_random_field(g, rng)
    ux = derivative(u, 1).values
    trap = quadrature(Field(g, u.values ** 2 + ux ** 2))
    assert norm_h1(u) ** 2 == pytest.approx(trap, rel=1e-13)

