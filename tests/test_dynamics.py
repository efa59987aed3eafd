import inspect
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from gbbmlab import (
    BlowupError,
    Field,
    GroundState,
    UnresolvedError,
    auto_points,
    critical_speed,
    decompose,
    derivative,
    evolve,
    helmholtz_inverse,
    instability_experiment,
    make_grid,
    momentum,
    negativity_form,
    negativity_table,
    norm_h1,
    stream,
    translate,
)
from gbbmlab import dynamics
from gbbmlab.dynamics import (
    _A, _E3, _E5, AUTO_POINTS, TAIL_TOL, _dop853, _first_step, relative_tail,
)
from gbbmlab.functionals import _flow, _nonlinear
from conftest import decaying_random_field
from reference_paths import evolution_rhs, linear_rhs, step

L50 = 50.0 * math.pi


def rk4(field, rhs, dt):
    k1 = rhs(field)
    k2 = rhs(Field(field.grid, field.values + 0.5 * dt * k1.values))
    k3 = rhs(Field(field.grid, field.values + 0.5 * dt * k2.values))
    k4 = rhs(Field(field.grid, field.values + dt * k3.values))
    return Field(
        field.grid,
        field.values + dt / 6.0 * (k1.values + 2 * k2.values + 2 * k3.values + k4.values),
    )


class TestTableau:
    # the DOP853 nodes in closed form: c4, c5 = (6 -+ sqrt 6) / 30, c3 = 2 c4 / 3,
    # c2 = 2 c3 / 3; the last row of _A (the weights) builds the state at c = 1
    C4, C5 = (6.0 - math.sqrt(6.0)) / 30.0, (6.0 + math.sqrt(6.0)) / 30.0
    NODES = np.array([0.0, 4 * C4 / 9, 2 * C4 / 3, C4, C5, 1 / 3, 1 / 4, 4 / 13,
                      127 / 195, 3 / 5, 6 / 7, 1.0])

    def test_row_sums_are_the_nodes(self):
        assert len(_A) == 12
        sums = [row.sum() for row in _A]
        assert np.max(np.abs(np.array(sums) - np.append(self.NODES[1:], 1.0))) < 1e-14

    @pytest.mark.parametrize("k", range(1, 9))
    def test_weights_integrate_to_order_eight(self, k):
        assert abs(_A[-1] @ self.NODES ** (k - 1) - 1.0 / k) < 1e-14

    def test_embedded_estimates(self):
        # E5 and E3 are the weights minus 5th- and 3rd-order weights: they
        # annihilate c^0..c^4 and c^0..c^2 (so each sums to 0), and no more
        for e, order in ((_E5, 5), (_E3, 3)):
            moments = [e @ self.NODES ** j for j in range(order + 1)]
            assert max(abs(m) for m in moments[:order]) < 1e-14
            assert abs(moments[order]) > 1e-4


def fresh_python(code, *args):
    """Standard output of `code` run by a new interpreter that imports this checkout."""
    paths = (os.path.join(os.path.dirname(__file__), os.pardir, "src"),
             os.environ.get("PYTHONPATH"))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, check=True).stdout


def test_cli_import_leaves_scipy_integrate_unloaded():
    # the stepper's tableau is inlined: importing scipy.integrate would add to
    # every command's start-up
    code = "import sys, gbbmlab.cli; print('scipy.integrate' in sys.modules)"
    assert fresh_python(code).strip() == "False"


def test_cli_main_freezes_the_start_up_heap(tmp_path):
    # importing the CLI leaves the collector alone; a command freezes the heap
    # it starts with, so the exit's last collections skip the import's objects
    code = ("import gc, sys, gbbmlab.cli as cli\n"
            "imported = gc.get_freeze_count()\n"
            "code = cli.main(['identities', '--out', sys.argv[1]])\n"
            "print(imported, code, gc.get_freeze_count(), len(gc.get_objects()))")
    out = fresh_python(code, str(tmp_path)).splitlines()[-1]
    imported, code, frozen, tracked = map(int, out.split())
    assert (imported, code) == (0, 0)
    assert frozen >= 10_000
    assert tracked < frozen


class TestStep:
    def test_zero_fixed_point(self, periodic_4096):
        z = Field(periodic_4096, np.zeros(periodic_4096.points))
        out = step(z, 1e-2, 5.0)
        assert np.all(out.values == 0.0)

    def test_single_step_follows_soliton(self, gs5, periodic_4096):
        phi = gs5.profile(periodic_4096)
        dt = 1e-2
        out = step(phi, dt, gs5.p)
        exact = translate(phi, -gs5.c * dt)
        assert np.max(np.abs(out.values - exact.values)) < 1e-8

    def test_local_error_order_nine(self, gs5, periodic_4096):
        # an 8th-order step reaches round-off at dt = 0.1, so compare 0.4 and 0.2
        phi = gs5.profile(periodic_4096)
        errs = []
        for dt in (0.4, 0.2):
            out = step(phi, dt, gs5.p)
            exact = translate(phi, -gs5.c * dt)
            errs.append(np.max(np.abs(out.values - exact.values)))
        order = math.log(errs[0] / errs[1]) / math.log(2.0)
        assert order > 8.5

    def test_blowup_detection(self, gs5, periodic_4096):
        huge = Field(periodic_4096, 1e3 * gs5.profile(periodic_4096).values)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(BlowupError):
                u = huge
                for _ in range(50):
                    u = step(u, 10.0, gs5.p)


def stepper_arrays(v, g, p):
    """The stage array with K[0] the flow at v, and the flow's work arrays, as
    `stream` sizes them."""
    n = v.size
    K = np.empty((len(_A) + 1, n))
    work = (np.empty(n), np.empty(n), np.empty(n // 2 + 1, complex))
    _flow(v, g, p, K[0], work)
    return K, work


class TestInPlaceStep:
    @pytest.mark.parametrize("p, n", [(5.0, 2048), (6.0, 1536), (4.5, 1536)])
    def test_matches_the_allocating_step(self, p, n):
        # the stages built in place and each flow written into its row of K
        # give the textbook step bitwise; the returned state is a new array,
        # so the next step, reusing K and the work arrays, leaves it alone
        g = make_grid(L50, n)
        v = 0.98 * GroundState(p, critical_speed(p)).profile(g).values
        K, work = stepper_arrays(v, g, p)
        first = _dop853(v, K, 0.1, g, p, work)
        assert np.array_equal(first, step(Field(g, v), 0.1, p).values)
        assert np.array_equal(K[-1], evolution_rhs(Field(g, first), p).values)
        assert not any(np.shares_memory(first, a) for a in (v, K, *work))
        kept = first.copy()
        K[0] = K[-1]
        second = _dop853(first, K, 0.1, g, p, work)
        assert np.array_equal(first, kept)
        assert np.array_equal(second, step(Field(g, kept), 0.1, p).values)

    def test_step_allocates_only_its_state(self):
        # the traced peak of one step at N = 2048, in N-length float arrays:
        # the returned state and nothing per stage (4.1 with a new stage
        # state and a new flow per stage)
        n, p = 2048, 5.0
        g = make_grid(L50, n)
        v = GroundState(p, critical_speed(p)).profile(g).values
        K, work = stepper_arrays(v, g, p)
        _dop853(v, K, 0.1, g, p, work)  # the symbol and the transform plans are cached
        tracemalloc.start()
        try:
            _dop853(v, K, 0.1, g, p, work)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * n * v.itemsize


class TestDispersion:
    @pytest.mark.parametrize("mode", [3, 11, 40])
    def test_linear_modes_advect_exactly(self, periodic_4096, mode):
        k = 2.0 * math.pi * mode / (2.0 * L50)
        u = Field(periodic_4096, np.cos(k * periodic_4096.nodes))
        dt, T = 1e-3, 3.0
        for _ in range(int(round(T / dt))):
            u = rk4(u, linear_rhs, dt)
        expected = np.cos(k * (periodic_4096.nodes - T / (1.0 + k * k)))
        assert np.max(np.abs(u.values - expected)) < 1e-10


class TestEvolve:
    def test_soliton_round_trip(self, gs5, periodic_4096):
        t_end = 20.0 / gs5.c
        phi = gs5.profile(periodic_4096)
        traj = evolve(phi, gs5.p, t_end, dt=2e-3)
        exact = translate(phi, -gs5.c * float(traj.times[-1]))
        assert np.max(np.abs(traj.frames[-1].state.values - exact.values)) < 1e-4
        assert traj.energy_drift() < 1e-8
        assert traj.momentum_drift() < 1e-8

    def test_step_halving_order(self, gs5, periodic_4096, rng):
        u0 = Field(
            periodic_4096,
            gs5.profile(periodic_4096).values
            + 0.05 * decaying_random_field(periodic_4096, rng).values,
        )
        # fixed 8th-order steps near round-off at dt = 0.0625, so halve from 0.25
        outs = {}
        for dt in (0.25, 0.125, 0.0625):
            u = u0
            for _ in range(int(round(1.0 / dt))):
                u = step(u, dt, gs5.p)
            outs[dt] = u.values
        e1 = np.max(np.abs(outs[0.25] - outs[0.0625]))
        e2 = np.max(np.abs(outs[0.125] - outs[0.0625]))
        order = math.log(e1 / e2) / math.log(2.0)
        assert order > 7.5

    def test_resolution_doubling(self, gs5, rng):
        g1 = make_grid(L50, 2048)
        g2 = make_grid(L50, 4096)
        gs = gs5
        u1 = gs.profile(g1)
        u2 = gs.profile(g2)
        v1 = evolve(u1, gs.p, 1.0, dt=2e-3).frames[-1].state.values
        v2 = evolve(u2, gs.p, 1.0, dt=2e-3).frames[-1].state.values[::2]
        assert np.max(np.abs(v1 - v2)) < 1e-6

    def test_h1_norm_stays_bounded(self, gs5, periodic_4096):
        u0 = Field(periodic_4096, 0.98 * gs5.profile(periodic_4096).values)
        traj = evolve(u0, gs5.p, 5.0, dt=2e-3)
        n0 = norm_h1(traj.frames[0].state)
        assert all(norm_h1(f.state) < 1.2 * n0 for f in traj.frames)

    def test_record_cadence(self, gs5, periodic_4096):
        traj = evolve(gs5.profile(periodic_4096), gs5.p, 2.0, dt=1e-2)
        assert np.allclose(np.diff(traj.times), dynamics.RECORD_INTERVAL)
        assert traj.times[-1] == 2.0

    def test_frame_q_is_the_trapezoid(self, gs5, periodic_4096, rng):
        # Q by Parseval from the guard's transform equals momentum(), the
        # trapezoid of (u^2 + (spectral u_x)^2) / 2
        u0 = Field(periodic_4096, gs5.profile(periodic_4096).values
                   + 0.1 * decaying_random_field(periodic_4096, rng).values)
        for f in stream(u0, gs5.p, 1.0, dt=1e-2):
            assert f.Q == pytest.approx(momentum(f.state), rel=1e-13)

    def test_record_times_are_exact(self, gs5, periodic_4096):
        # k * RECORD_INTERVAL, and t_end even when it is no multiple
        traj = evolve(gs5.profile(periodic_4096), gs5.p, 1.05, dt=1e-2)
        assert traj.times.tolist() == [0.0, 0.5, 1.0, 1.05]
        # a t_end far below the interval is the only record time after t = 0
        traj = evolve(gs5.profile(periodic_4096), gs5.p, 1e-10, dt=1e-2)
        assert traj.times.tolist() == [0.0, 1e-10]

    def test_first_frame_holds_no_record_times(self, gs5):
        # each record time is computed when it is reached, so the first frame
        # of a long run does not wait on a list of all of them (81 MB at
        # t_end = 1e6, two million floats)
        u0 = gs5.profile(make_grid(L50, 2048))
        tracemalloc.start()
        try:
            next(stream(u0, gs5.p, 1e6))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    @pytest.mark.parametrize("dt, trials, evals", [(0.0, 9, 110), (1e-3, 11, 133)],
                             ids=["estimated", "dt=1e-3"])
    def test_step_counts(self, flow_calls, dt, trials, evals):
        # the soliton_evolve benchmark run: p = 4.5, t_end = 2, at its auto
        # N = 1536. The error is measured in the max norm, so N = 8192 takes
        # the same steps. The flow evaluations are counted, not read back from
        # the trajectory. From dt = 1e-3 the step climbs 6-fold per step to
        # about 0.25; the estimate starts at 0.038 for one probe evaluation
        gs = GroundState(4.5, critical_speed(4.5))
        steps = []
        for n in (1536, 8192):
            flow_calls.clear()
            grid = make_grid(L50, n)
            last = evolve(gs.profile(grid), gs.p, 2.0, dt=dt).frames[-1]
            # FSAL: 1 at t = 0, 1 for the estimate's probe, 12 per trial step
            assert last.rhs_evals == len(flow_calls)
            steps.append((last.steps_accepted, last.steps_rejected))
        assert steps[0] == steps[1]
        assert steps[0][1] == 0 and steps[0][0] <= trials
        assert len(flow_calls) <= evals
        if dt:  # an explicit first step is taken as given
            assert (steps[0][0], len(flow_calls)) == (trials, evals)

    def test_first_step_of_the_zero_state(self, periodic_4096, monkeypatch):
        # every norm vanishes: h0 = 1e-6 and the step is min(100 h0, max(1e-6, 1e-3 h0))
        zero = np.zeros(periodic_4096.points)
        h = _first_step(zero, zero, periodic_4096, 5.0)
        assert h == 1e-6
        trials = []
        dop853 = dynamics._dop853

        def recorded(v, K, h, *args, **kwargs):
            trials.append(h)
            return dop853(v, K, h, *args, **kwargs)

        monkeypatch.setattr(dynamics, "_dop853", recorded)
        traj = evolve(Field(periodic_4096, zero), 5.0, 1.0)
        assert trials[0] == h
        assert all(not np.any(f.state.values) for f in traj.frames)
        assert traj.frames[-1].steps_rejected == 0

    def test_drift_of_the_zero_state(self):
        # E and Q vanish only at u = 0, which the flow keeps: no drift, not 0/0
        g = make_grid(L50, 256)
        traj = evolve(Field(g, np.zeros(g.points)), 5.0, 1.0)
        assert not np.any(traj.E_series) and not np.any(traj.Q_series)
        assert (traj.energy_drift(), traj.momentum_drift()) == (0.0, 0.0)

    def test_non_finite_probe_falls_back(self, gs5, periodic_4096):
        huge = 1e60 * gs5.profile(periodic_4096).values
        with np.errstate(over="ignore", invalid="ignore"):
            f0 = _flow(huge, periodic_4096, gs5.p)
        # RECORD_INTERVAL / 100
        assert _first_step(huge, f0, periodic_4096, gs5.p) == 0.005

    def test_adaptive_matches_fixed_step_rk4(self, gs5, periodic_4096):
        # the controlled path against the fixed-step reference at dt = 2e-3
        u = Field(periodic_4096, 0.98 * gs5.profile(periodic_4096).values)
        traj = evolve(u, gs5.p, 5.0)
        assert traj.times.tolist() == [0.5 * k for k in range(11)]
        dt = 2e-3
        rhs = lambda f: evolution_rhs(f, gs5.p)  # noqa: E731
        for i, recorded in enumerate(traj.frames):
            if i:
                for _ in range(250):
                    u = rk4(u, rhs, dt)
            assert np.max(np.abs(recorded.state.values - u.values)) <= 1e-8
        assert traj.energy_drift() <= 1e-9
        assert traj.momentum_drift() <= 1e-9

    @pytest.mark.parametrize("scale, message", [
        (1e3, r"step collapse at t=0: trial step \S+ < 1e-10 RECORD_INTERVAL rejected at "
              r"error \S+$"),
        (1e60, "state or its conserved quantities became non-finite at t=0$"),
    ], ids=["rejection-floor", "energy-overflow"])
    def test_blowup_raises_promptly(self, gs5, periodic_4096, flow_calls, scale, message):
        # 1e3 phi is rejected down to the step floor while the state is still
        # finite, a step collapse; the energy density of 1e60 phi overflows at
        # the first record
        huge = Field(periodic_4096, scale * gs5.profile(periodic_4096).values)
        with np.errstate(over="ignore"), pytest.raises(BlowupError, match=message):
            evolve(huge, gs5.p, 1.0)
        assert len(flow_calls) <= 100

    def test_config_validation(self, periodic_4096):
        # evolve refuses when called; stream, a generator, at its first frame
        zero = Field(periodic_4096, np.zeros(periodic_4096.points))
        bad = [(zero, {"dt": -1.0}), (zero, {"t_end": 0.0}), (zero, {"t_end": -1.0}),
               (zero, {"t_end": math.inf})]
        for u0, kwargs in bad:
            run = dict({"t_end": 1.0}, **kwargs)
            with pytest.raises(ValueError):
                evolve(u0, 5.0, **run)
            frames = stream(u0, 5.0, **run)
            with pytest.raises(ValueError):
                next(frames)
        for fn in (stream, evolve):
            assert inspect.signature(fn).parameters["dt"].default == 0.0  # estimate
        # the inputs a command varies and no others: the record interval and
        # the Newton tolerance and iteration cap are module constants
        for fn, names in ((stream, "u0 p t_end dt"), (evolve, "u0 p t_end dt"),
                          (decompose, "u p guess"), (auto_points, "gs L"),
                          (negativity_form, "gs L n_request"),
                          (negativity_table, "p_list L n_request"),
                          (instability_experiment, "p a grid t_end dt")):
            assert list(inspect.signature(fn).parameters) == names.split()
        # the box and the run's length come from the caller (the CLI's DEFAULTS);
        # only the library's own automatic choice, 0 for dt, is a default
        for fn, defaults in ((negativity_form, {}), (negativity_table, {}),
                             (instability_experiment, {"dt": 0.0})):
            params = inspect.signature(fn).parameters.values()
            assert {q.name: q.default for q in params if q.default is not q.empty} == defaults


def profile_tail(gs, n):
    """phi_c's relative spectral tail beyond the 2/3 cutoff on N = n over L50."""
    grid = make_grid(L50, n)
    return relative_tail(gs.profile(grid).values, grid.dealias_cut)


class TestResolution:
    @pytest.mark.parametrize("p, n", [(4.1, 4096), (4.5, 1536), (5.0, 2048), (6.0, 3072),
                                      (10.0, 8192), (30.0, 24576), (100.0, 98304)])
    def test_auto_points(self, p, n):
        # the smallest rung of the ladder whose phi_c has a tail of at most
        # TAIL_TOL beyond the 2/3 cutoff; the rung below has more. At p = 30
        # the old fixed N = 8192 left 1.8e-6
        gs = GroundState(p, critical_speed(p))
        assert auto_points(gs, L50) == n
        below = AUTO_POINTS[AUTO_POINTS.index(n) - 1]
        assert profile_tail(gs, below) > TAIL_TOL >= profile_tail(gs, n)

    def test_ladder(self):
        # every 2^k and 3 * 2^k from 2^8 to 2^20, ascending
        assert AUTO_POINTS[0] == 256 and AUTO_POINTS[-1] == 2 ** 20
        assert all(a < b for a, b in zip(AUTO_POINTS, AUTO_POINTS[1:]))
        for n in AUTO_POINTS:
            assert n % 2 == 0
            m = n // 3 if n % 3 == 0 else n
            assert m & (m - 1) == 0
        assert len(AUTO_POINTS) == 13 + 12

    @pytest.mark.parametrize("p", [4.5, 5.0, 6.0, 10.0, 30.0])
    def test_tail_falls_along_the_ladder(self, p):
        # the first passing rung is the smallest passing size only if no rung
        # below it would pass after a failing one
        gs = GroundState(p, critical_speed(p))
        n = auto_points(gs, L50)
        tails = [profile_tail(gs, m) for m in AUTO_POINTS[:AUTO_POINTS.index(n) + 1]]
        assert all(a >= b for a, b in zip(tails, tails[1:]))

    def test_auto_grid_takes_the_steps_of_a_finer_one(self, monkeypatch):
        # the soliton_evolve run at its auto N = 1536 against the power of two
        # above: the max-norm error control takes the same steps on both, and
        # the 1536 state, Fourier-interpolated onto 2048 nodes, is the 2048
        # one. The trial steps differ by under 1% (the max norm sampled on two
        # grids, 0.82% at most); an error norm scaled by sqrt(N) moves them by 1.8%
        gs = GroundState(4.5, critical_speed(4.5))
        assert auto_points(gs, L50) == 1536
        runs, trials = {}, {}
        dop853 = dynamics._dop853
        for n in (1536, 2048):
            trials[n] = []

            def recorded(v, K, h, *args, hs=trials[n], **kwargs):
                hs.append(h)
                return dop853(v, K, h, *args, **kwargs)

            monkeypatch.setattr(dynamics, "_dop853", recorded)
            grid = make_grid(L50, n)
            runs[n] = evolve(gs.profile(grid), gs.p, 2.0)
        assert trials[1536] == pytest.approx(trials[2048], rel=1e-2)
        small, fine = runs[1536].frames, runs[2048].frames
        assert len(small) == len(fine) == 5
        for a, b in zip(small, fine):
            assert a.t == b.t
            counts = (a.steps_accepted, a.steps_rejected, a.rhs_evals)
            assert counts == (b.steps_accepted, b.steps_rejected, b.rhs_evals)
            assert a.E == pytest.approx(b.E, rel=1e-13, abs=0)
            assert a.Q == pytest.approx(b.Q, rel=1e-13, abs=0)
        assert (small[-1].steps_accepted, small[-1].steps_rejected,
                small[-1].rhs_evals) == (9, 0, 110)
        v_hat = np.fft.rfft(small[-1].state.values)
        padded = np.fft.irfft(v_hat, 2048) * (2048 / 1536)
        assert np.max(np.abs(padded - fine[-1].state.values)) < 1e-12

    def test_no_size_resolves_a_jump(self):
        # phi_c at p = 1e4 is about e^{-0.99 |x|} with a corner 1/k = 2e-4 wide
        # at x = 0, so its spectrum falls only like k^-2 up to k = 4930
        gs = GroundState(1e4, critical_speed(1e4))
        with pytest.raises(UnresolvedError, match="no N up to 1048576") as info:
            auto_points(gs, L50)
        assert info.value.tail > TAIL_TOL

    def test_relative_tail_of_zero(self):
        assert relative_tail(np.zeros(64), 10) == 0.0

    @pytest.mark.parametrize("n, fires", [(2048, True), (8192, False)])
    def test_growth_guard(self, gs5, n, fires):
        # 1.5 phi_c steepens: its top-band tail reaches 2e-5 by t = 0.5 at
        # N = 2048, above 10x its t = 0 value of 2.0e-7; at N = 8192 it stays
        # below 1e-10 to t = 4
        grid = make_grid(L50, n)
        u0 = Field(grid, 1.5 * gs5.profile(grid).values)
        frames = stream(u0, gs5.p, 4.0)
        if fires:
            with pytest.raises(UnresolvedError, match=f"N={n} does not resolve") as info:
                list(frames)
            assert info.value.tail > 1e-6
        else:
            lo, hi = grid.dealias_cut // 2, grid.dealias_cut
            assert max(relative_tail(f.state.values, lo, hi) for f in frames) < 1e-10


def H_of_u(u, p):
    """H(u) = -(1 - d_xx)^{-1}(u + |u|^p u); d_x H(u) equals the flow field."""
    inverse = helmholtz_inverse(Field(u.grid, u.values + _nonlinear(u.values, p)))
    return Field(u.grid, -inverse.values)


class TestHamiltonianPotential:
    def test_zero(self, periodic_4096):
        z = Field(periodic_4096, np.zeros(periodic_4096.points))
        assert np.all(H_of_u(z, 5.0).values == 0.0)

    def test_derivative_is_flow_field(self, gs5, periodic_4096, rng):
        u = Field(
            periodic_4096,
            gs5.profile(periodic_4096).values
            + 0.2 * decaying_random_field(periodic_4096, rng).values,
        )
        lhs = derivative(H_of_u(u, gs5.p), 1)
        rhs = evolution_rhs(u, gs5.p, dealias=False)
        assert np.max(np.abs(lhs.values - rhs.values)) < 1e-10

    def test_soliton_value(self, gs5, periodic_8192):
        phi = gs5.profile(periodic_8192)
        out = H_of_u(phi, gs5.p)
        assert np.max(np.abs(out.values + gs5.c * phi.values)) < 1e-10

