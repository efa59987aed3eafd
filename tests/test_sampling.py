"""The sampled-profile bundle: log-space tails, closed forms and sampling counts."""
import math

import numpy as np
import pytest

import gbbmlab.ground_state as ground_state
from gbbmlab import (
    Field,
    GroundState,
    critical_speed,
    decompose,
    instability_experiment,
    make_grid,
    negativity_form,
    negativity_table,
    normalized_profile_norm_sq,
)
from gbbmlab.cli import DEFAULTS
from gbbmlab.grid import DEFAULT_HALF_WIDTH, DEFAULT_POINTS
from gbbmlab.modulation import _virial_frame
from gbbmlab.structure import kappa_closed_form
from reference_paths import table_points

L50 = 50.0 * math.pi


@pytest.fixture
def log_sech_calls(monkeypatch):
    calls = []
    original = ground_state._log_sech

    def counted(z):
        calls.append(z.size)
        return original(z)

    monkeypatch.setattr(ground_state, "_log_sech", counted)
    return calls


def test_log_space_tail_at_p100_table_grid():
    # (sech^2)^{1/p} underflows to 0 far out at p = 100; exp((2/p) log sech) does not
    p = 100.0
    gs = GroundState(p, critical_speed(p))
    grid = make_grid(L50, 1 << 20)
    phi = gs.sample(grid).phi
    ls = ground_state._log_sech(gs.decay_rate * grid.nodes)
    assert np.all(phi > 0.0)
    assert np.array_equal(phi, gs.amplitude * np.exp((2.0 / p) * ls))


@pytest.mark.parametrize("p", [4.1, 5.0, 10.0, 100.0])
def test_normalized_norm_closed_form_matches_quadrature(p):
    x = np.linspace(-40.0, 40.0, 131073)
    vals = (0.5 * (p + 2.0)) ** (2.0 / p) * np.exp((4.0 / p) * ground_state._log_sech(0.5 * p * x))
    quad = (x[1] - x[0]) * (np.sum(vals) - 0.5 * (vals[0] + vals[-1]))
    assert normalized_profile_norm_sq(p) == pytest.approx(quad, rel=1e-14)


@pytest.mark.parametrize("p", [4.1, 5.0, 10.0, 100.0])
def test_psi_is_scaled_c_derivative_minus_profile(p, periodic_8192):
    # Psi_c = c d_c phi_c - phi_c / p equals phi_c [1/(p(c-1)) - x tanh(kx)/(2 sqrt(c(c-1)))]
    gs = GroundState(p, critical_speed(p))
    prof = gs.sample(periodic_8192)
    c, ax = gs.c, np.abs(periodic_8192.nodes)
    direct = prof.phi * (
        1.0 / (p * (c - 1.0)) - ax * np.tanh(gs.decay_rate * ax) / (2.0 * math.sqrt(c * (c - 1.0)))
    )
    assert np.max(np.abs(prof.psi - direct)) < 1e-14 * np.max(np.abs(direct))


@pytest.mark.parametrize("p", [5.0, 100.0])
def test_kappa_matches_expanded_closed_form(p):
    gs = GroundState(p, critical_speed(p))
    grid = make_grid(L50, table_points(p, gs.c, L50))
    prof = gs.sample(grid)
    c, x, B, D = gs.c, grid.nodes, gs.B, gs.D
    phi, dphi, ddphi = prof.phi, prof.phi_x, prof.phi_xx
    expanded = (
        (B * (p + 1.0) * c * c - B * p * c + 6.0 * c * D) * phi
        + B * (1.0 - p) * c * c * ddphi
        + 18.0 * c * D * x * dphi
        + (6.0 * c - 3.0 * p * c) * D * x * x * ddphi
        + 3.0 * p * (c - 1.0) * D * x * x * phi
    )
    kappa = kappa_closed_form(prof).values
    assert np.max(np.abs(kappa - expanded)) < 1e-14 * np.max(np.abs(expanded))


class TestSamplingCounts:
    @pytest.mark.parametrize("p", [4.1, 100.0])
    def test_table_row(self, log_sech_calls, p):
        # one sampling of the row's half line, nodes 0..m, and the four ghost
        # nodes past x_max that its stencils read
        row = negativity_form(GroundState(p, critical_speed(p)), DEFAULT_HALF_WIDTH,
                              DEFAULT_POINTS)
        assert log_sech_calls == [row.points // 2 + 5]

    def test_default_table(self, log_sech_calls):
        # 1 269 938 samplings when every row streamed its whole half line on
        # a uniform grid, 156 268 over 11 node windows at kh <= 0.1 with the
        # rows' tail cut, and 15 841 on the sinh-mapped half lines, 40 of them
        # ghost nodes
        negativity_table((float(p) for p in DEFAULTS["p_list"].split(",")),
                         DEFAULT_HALF_WIDTH, DEFAULT_POINTS)
        assert len(log_sech_calls) == 10
        assert sum(log_sech_calls) <= 16_000

    def test_fit_decompose(self, gs5, log_sech_calls):
        grid = make_grid(L50, 8192)
        u = Field(grid, 0.98 * gs5.profile(grid).values)
        log_sech_calls.clear()
        st = decompose(u, gs5.p, (gs5.c, 0.0))
        assert st.converged and st.newton_iters == 3
        # one bundle per iterate: the Jacobian is read from the residual's bundle
        assert len(log_sech_calls) == st.newton_iters + 1

    def test_virial_frame(self, gs5, log_sech_calls):
        grid = make_grid(L50, 8192)
        u = Field(grid, 0.98 * gs5.profile(grid).values)
        st = decompose(u, gs5.p, (gs5.c, 0.0))
        log_sech_calls.clear()
        _virial_frame(u, 0.0, gs5.p, gs5.c, 30.0, 1.0, st)
        # the frame reads the profile bundle decompose sampled at the converged lam
        assert log_sech_calls == []

    def test_instability_run(self, log_sech_calls):
        # phi_c once, then one bundle per Newton iterate of each frame; the
        # extrapolated start leaves most frames at one iteration (two iterates).
        # A finite-difference lam-column took two more per iteration, 115 in all
        grid = make_grid(L50, 8192)
        rep = instability_experiment(5.0, 0.02, grid, dt=0.025, t_end=10.0)
        assert len(rep.frames) == 21
        assert len(log_sech_calls) <= 53

    def test_instability_transforms(self, flow_calls, transform_calls):
        # two per flow evaluation; per frame the guard's rfft (Q by Parseval
        # from it) and the rfft of norm_h1(xi), since decompose makes none
        # (shifting u by an rfft and one irfft per iterate made 5.6 a frame)
        grid = make_grid(L50, 2048)
        rep = instability_experiment(5.0, 0.02, grid, dt=0.025, t_end=10.0)
        assert len(rep.frames) == 21
        assert len(transform_calls) <= 2 * len(flow_calls) + 2 * len(rep.frames)
