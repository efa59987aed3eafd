"""Second paths for numbers the virial side reports, each tight enough that a
small scale error in the library fails it.

Mutation audit: apply one edit to `src/` at a time and run this module (or
the whole suite); each mutant must fail the test named with it.

- `modulation.gamma_curvature_closed` times (1 + 1e-6):
  `test_gamma_curvature_matches_richardson_second_difference`.
- `I2 = D / B * cubic` in `modulation._virial_frame` times 1.01:
  `test_cubic_pairing_matches_the_pairing_by_parts`.
- the coefficient of 6x phi in `modulation._cubic_helmholtz` at 6.000006:
  `test_cubic_pairing_matches_the_pairing_by_parts`.
- `kres` (the reported `kappa_residual`) in `modulation._virial_frame` times
  1.01: `test_kappa_residual_matches_the_hessian_of_gamma`.
- `beta_lin` in `modulation.instability_experiment` times (1 + 1e-6):
  `test_beta_linear_prediction_matches_richardson_limit`.
- the leading first-order weight 4/5 in `grid.CENTRED_8` times (1 + 1e-6):
  `test_acceptance.py::test_criterion_1_table_reproduction`, the `TestTable`
  tests of `test_cli.py`, `test_grid.py::test_fd_derivative_is_eighth_order`
  and `test_structure.py::TestHalfLineRow::test_operator_path_is_eighth_order`.
- the leading second-order weight 8/5 in `grid.CENTRED_8` times (1 + 1e-6):
  the same tests, and `test_structure.py::TestKappa::test_dual_path_sup`.
"""
import math

import numpy as np
import pytest

from gbbmlab import (
    Field,
    critical_speed,
    decompose,
    derivative,
    evolve,
    gamma_curvature_closed,
    gamma_direction,
    gamma_of_lambda,
    inner,
    instability_experiment,
    make_grid,
)
from gbbmlab import modulation
from gbbmlab.functionals import hessian_values

L50 = 50.0 * math.pi


@pytest.mark.parametrize("p", [4.5, 5.0, 6.0, 10.0])
def test_gamma_curvature_matches_richardson_second_difference(p):
    # central second differences at steps d, d/2, d/4 with d = 0.05 (c - 1),
    # extrapolated twice: the O(d^6) remainder and the rounding stay below
    # 7e-11 relative over this p-set, so 1e-9 leaves a 14x margin
    c = critical_speed(p)

    def second_difference(d):
        return (gamma_of_lambda(p, c, c + d) - 2.0 * gamma_of_lambda(p, c, c)
                + gamma_of_lambda(p, c, c - d)) / d ** 2

    def once(d):
        return (4.0 * second_difference(d / 2.0) - second_difference(d)) / 3.0

    d = 0.05 * (c - 1.0)
    twice = (16.0 * once(d / 2.0) - once(d)) / 15.0
    assert twice == pytest.approx(gamma_curvature_closed(p, c), rel=1e-9)


@pytest.mark.parametrize("p", [5.0, 6.0, 10.0])
def test_beta_linear_prediction_matches_richardson_limit(p):
    # beta of frame 0 (the fit-pair lam of u0 = (1-a) phi_c and E(u0)) over a
    # at a = 2e-3 2^-k, k = 0..3, each run one step long since only frame 0
    # is read: the raw ratio misses beta_lin / a by an O(a)
    # remainder, about -0.84 a relative at p = 5, -1.12 a at p = 6 and -2.19 a
    # at p = 10; two Richardson steps leave 9e-11, 2.6e-10 and 2.0e-9, so
    # 1e-7 leaves a 50x margin at p = 10
    grid = make_grid(L50, 4096)
    sizes = [2e-3 * 2.0 ** -k for k in range(4)]
    reports = [instability_experiment(p, a, grid, dt=1e-3, t_end=1e-3) for a in sizes]
    ratio = np.array([rep.beta_initial / a for rep, a in zip(reports, sizes)])
    once = 2.0 * ratio[1:] - ratio[:-1]
    twice = (4.0 * once[1:] - once[:-1]) / 3.0
    assert twice[-1] == pytest.approx(reports[-1].beta_linear_prediction / sizes[-1], rel=1e-7)


@pytest.fixture(scope="module")
def frame(gs5):
    """(virial report, modulation state) of u0 = 0.98 phi_c at t = 4, N = 4096."""
    grid = make_grid(L50, 4096)
    u0 = Field(grid, 0.98 * gs5.profile(grid).values)
    frames = evolve(u0, gs5.p, 4.0, dt=0.025)
    last = frames[-1]
    state = decompose(last.state, gs5.p, (gs5.c, gs5.c * last.t))
    report = modulation._virial_frame(
        last.state, last.t, gs5.p, gs5.c, 30.0, float(frames[0].E), state)
    return report, state


def test_cubic_pairing_matches_the_pairing_by_parts(frame):
    # I2 = (D/B) <xi, (1 - d_xx)(x^3 phi_lam)> with the closed-form image,
    # against <(1 - d_xx) xi, x^3 phi_lam> with the spectral d_xx, both at
    # the offsets x - y: the two agree to 2e-16 relative; the 6x phi mutant
    # moves I2 by 1e-7 relative
    report, state = frame
    xi, prof = state.xi, state.profile
    grid = xi.grid
    helmholtz_xi = Field(grid, xi.values - derivative(xi, 2).values)
    by_parts = inner(helmholtz_xi, Field(grid, prof.x ** 3 * prof.phi))
    gs = prof.gs
    assert report.I2 == pytest.approx(gs.D / gs.B * by_parts, rel=1e-12)
    assert report.cubic_pairing == pytest.approx(by_parts, rel=1e-12)


def test_kappa_residual_matches_the_hessian_of_gamma(frame):
    # kappa_lam in closed form against the Hessian at phi_lam(. - y) applied
    # to Gamma_lam(. - y) with the spectral f_xx, the table's dual path on a
    # frame: they agree to 5e-16 relative
    report, state = frame
    prof = state.profile
    gamma = gamma_direction(prof)
    hessian = hessian_values(prof.gs, gamma.values, derivative(gamma, 2).values, prof.phi_p)
    operator = inner(state.xi, Field(gamma.grid, hessian)) / prof.gs.B
    assert report.kappa_residual < 0.0
    assert report.kappa_residual == pytest.approx(operator, rel=1e-12)
