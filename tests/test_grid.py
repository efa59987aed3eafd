import math

import numpy as np
import pytest

from gbbmlab import (
    DIRICHLET,
    PERIODIC,
    Field,
    GridError,
    derivative,
    helmholtz_inverse,
    inner,
    make_grid,
    norm_h1,
    quadrature,
)
from conftest import smooth_random_field
from reference_paths import first_difference_4, second_difference_4

L50 = 50.0 * math.pi


def test_make_grid_spacing():
    g = make_grid(L50, 4096, PERIODIC)
    assert g.h == pytest.approx(100.0 * math.pi / 4096, rel=1e-15)
    assert g.nodes.size == 4096
    assert g.nodes[0] == pytest.approx(-L50)


def test_make_grid_dirichlet_nodes():
    g = make_grid(10.0, 16, DIRICHLET)
    assert g.nodes.size == 17
    assert g.nodes[0] == -10.0 and g.nodes[-1] == 10.0


@pytest.mark.parametrize("L,N", [(10.0, 15), (10.0, 14), (-1.0, 64), (0.0, 64)])
def test_make_grid_rejects(L, N):
    with pytest.raises(GridError):
        make_grid(L, N)


def test_make_grid_rejects_unknown_boundary():
    with pytest.raises(GridError):
        make_grid(10.0, 64, "free")


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


@pytest.mark.parametrize("boundary", [PERIODIC, DIRICHLET])
def test_quadrature_constant(boundary):
    g = make_grid(10.0, 256, boundary)
    f = Field(g, np.ones(g.node_count))
    assert quadrature(f) == pytest.approx(20.0, abs=1e-12)


@pytest.mark.parametrize("boundary", [PERIODIC, DIRICHLET])
def test_quadrature_sech_squared(boundary):
    # antiderivative tanh evaluated at +-L
    g = make_grid(L50, 8192, boundary)
    f = Field(g, 1.0 / np.cosh(g.nodes) ** 2)
    assert quadrature(f) == pytest.approx(2.0 * math.tanh(L50), abs=1e-12)


def test_quadrature_ground_state_norm(gs5, dirichlet_8192):
    from gbbmlab import normalized_profile_norm_sq

    phi = gs5.profile(dirichlet_8192)
    quad = quadrature(Field(dirichlet_8192, phi.values ** 2))
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
    g = make_grid(L50, 256, PERIODIC)
    k = math.pi / g.half_width
    f = Field(g, np.sin(k * g.nodes))
    df = derivative(f, 1)
    assert np.max(np.abs(df.values - k * np.cos(k * g.nodes))) < 1e-10


@pytest.mark.parametrize("boundary", [PERIODIC, DIRICHLET])
def test_derivative_constant(boundary):
    g = make_grid(10.0, 128, boundary)
    df = derivative(Field(g, np.full(g.node_count, 3.7)), 1)
    assert np.max(np.abs(df.values)) < 1e-12


@pytest.mark.parametrize("boundary,N", [(PERIODIC, 8192), (DIRICHLET, 32768)])
def test_derivative_matches_analytic_profile(gs5, boundary, N):
    # finite differences need the finer grid to reach 1e-8; spectral does not
    g = make_grid(L50, N, boundary)
    phi = gs5.profile(g)
    dphi = gs5.profile_dx(g)
    num = derivative(phi, 1)
    assert np.max(np.abs(num.values - dphi.values)) < 1e-8 * np.max(np.abs(dphi.values))


@pytest.mark.parametrize("order", [2])
def test_higher_derivatives_on_gaussian(order):
    g = make_grid(30.0, 2048, PERIODIC)
    x = g.nodes
    f = Field(g, np.exp(-(x ** 2) / 2.0))
    exact = (x ** 2 - 1.0) * np.exp(-(x ** 2) / 2.0)
    num = derivative(f, order)
    assert np.max(np.abs(num.values - exact)) < 1e-9


@pytest.mark.parametrize("order", [1, 2])
def test_dirichlet_derivative_is_eighth_order(gs5, order):
    # nodes 4..n-5 take the 8th-order stencil, so halving h cuts the error on
    # phi_c by up to 2^8 (order 1: 228x and 248x; order 2: 227x and 235x); the
    # 4th-order reference by 2^4
    reference_path = {1: first_difference_4, 2: second_difference_4}[order]
    errors, reference = [], []
    for n in (2048, 4096, 8192):
        g = make_grid(L50, n, DIRICHLET)
        prof = gs5.sample(g)
        exact = {1: prof.phi_x, 2: prof.phi_xx}[order]
        errors.append(np.max(np.abs(derivative(Field(g, prof.phi), order).values - exact)[4:-4]))
        reference.append(np.max(np.abs(reference_path(prof.phi, g.h) - exact)[4:-4]))
    assert all(a >= 200.0 * b for a, b in zip(errors, errors[1:]))
    assert all(15.0 <= a / b <= 17.0 for a, b in zip(reference, reference[1:]))


@pytest.mark.parametrize("order", [1, 2])
def test_dirichlet_derivative_keeps_the_edge_stencils(rng, order):
    # the four nodes at each end keep the 4th-order and one-sided stencils
    g = make_grid(10.0, 64, DIRICHLET)
    v = smooth_random_field(g, rng).values
    reference_path = {1: first_difference_4, 2: second_difference_4}[order]
    edges = [0, 1, 2, 3, -4, -3, -2, -1]
    assert np.array_equal(derivative(Field(g, v), order).values[edges],
                          reference_path(v, g.h)[edges])


def test_derivative_rejects_bad_order():
    # orders 1 and 2 only, on either boundary flavor
    for boundary in (PERIODIC, DIRICHLET):
        g = make_grid(10.0, 64, boundary)
        for order in (0, 3, 4):
            with pytest.raises(GridError):
                derivative(Field(g, np.zeros(g.node_count)), order)


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


def test_helmholtz_requires_periodic():
    g = make_grid(10.0, 64, DIRICHLET)
    with pytest.raises(GridError):
        helmholtz_inverse(Field(g, np.zeros(g.node_count)))


def test_norm_h1_requires_periodic():
    g = make_grid(10.0, 64, DIRICHLET)
    with pytest.raises(GridError, match="norm_h1 requires a periodic grid"):
        norm_h1(Field(g, np.zeros(g.node_count)))
