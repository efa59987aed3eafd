import math

import numpy as np
import pytest

from gbbmlab import (
    Field,
    GroundState,
    ModulationError,
    critical_speed,
    decompose,
    evolve,
    gamma_curvature_closed,
    gamma_of_lambda,
    instability_experiment,
    kappa_closed_form,
    make_grid,
    norm_h1,
    quadrature,
    stream,
    translate,
    virial_monitor,
)
from gbbmlab import modulation
from gbbmlab.cli import instability_outputs
from gbbmlab.ground_state import SampledProfile, profile_norm_sq_closed
from reference_paths import cutoff_profile, fd_jacobian, parameter_residuals

L50 = 50.0 * math.pi
H4096 = 2.0 * L50 / 4096


@pytest.fixture(scope="module")
def fine_grid():
    return make_grid(L50, 32768)


class TestCutoff:
    @pytest.fixture
    def fine(self, fine_grid):
        return fine_grid

    def test_identity_region(self, fine):
        R = 20.0
        cut = cutoff_profile(R, fine).values
        x = fine.nodes
        sel = np.abs(x) <= R
        assert np.array_equal(cut[sel], x[sel])

    def test_plateau(self, fine):
        R = 20.0
        cut = cutoff_profile(R, fine).values
        x = fine.nodes
        assert np.all(cut[x >= 2 * R] == 1.5 * R)
        assert np.all(cut[x <= -2 * R] == -1.5 * R)

    def test_odd(self, fine):
        cut = cutoff_profile(20.0, fine).values
        assert np.array_equal(cut[1:], -cut[1:][::-1])

    def test_slope_range(self, fine):
        cut = cutoff_profile(20.0, fine).values
        slope = np.diff(cut) / fine.h
        assert slope.min() > -1e-9
        assert slope.max() < 1.0 + 1e-9

    def test_c3_seams(self, fine):
        # third finite difference stays bounded through both seams: no jump
        # beyond the discretization scale of a C^3 function
        R = 20.0
        cut = cutoff_profile(R, fine).values
        h = fine.h
        d3 = (cut[3:] - 3 * cut[2:-1] + 3 * cut[1:-2] - cut[:-3]) / h ** 3
        x = fine.nodes[1:-2]
        interior = np.abs(d3[(np.abs(x) > R + h) & (np.abs(x) < 2 * R - h)]).max()
        seam = np.abs(d3[(np.abs(np.abs(x) - R) <= 2 * h) | (np.abs(np.abs(x) - 2 * R) <= 2 * h)]).max()
        assert seam <= 1.5 * interior

    @pytest.mark.parametrize("R", [20.0, 30.0, 33.3])
    def test_horner_ramp_matches_power_form(self, fine, R):
        s = fine.nodes
        a = np.abs(s)
        t = np.clip((a - R) / R, 0.0, 1.0)
        ramp = R + R * (t - (t ** 6 - 3.0 * t ** 5 + 2.5 * t ** 4))
        power = np.sign(s) * np.where(a <= R, a, np.where(a >= 2.0 * R, 1.5 * R, ramp))
        cut = cutoff_profile(R, fine).values
        assert np.max(np.abs(cut - power)) <= 8.0 * np.finfo(float).eps * R

    def test_rejects_wide_cutoff(self, fine):
        with pytest.raises(ValueError, match="2R < L"):
            modulation._check_cutoff(L50 / 2.0, fine)

    @pytest.mark.parametrize("R", [0.0, -5.0])
    def test_rejects_nonpositive_cutoff(self, fine, R):
        with pytest.raises(ValueError, match="cutoff needs 2R < L and R > 0"):
            modulation._check_cutoff(R, fine)


class TestDecompose:
    def test_exact_soliton(self, gs5, periodic_4096):
        st = decompose(gs5.profile(periodic_4096), gs5.p, (gs5.c, 0.0))
        assert st.converged
        assert st.newton_iters <= 1
        assert st.lam == gs5.c and st.y == 0.0
        assert norm_h1(st.xi) < 1e-12

    def test_translated_profile(self, gs5, periodic_4096):
        u = translate(gs5.profile(periodic_4096), -0.37)
        st = decompose(u, gs5.p, (gs5.c, 0.3))
        assert abs(st.y - 0.37) < 1e-12
        assert abs(st.lam - gs5.c) < 2e-8

    def test_amplified_profile_converges(self, gs5, periodic_4096):
        # the fit root lies 4.6e-4 from c0; the kappa root of 1.01 phi_c, near
        # 1.1875, is bracketed by test_kappa_scalar_sign_structure
        u = Field(periodic_4096, 1.01 * gs5.profile(periodic_4096).values)
        st = decompose(u, gs5.p, (gs5.c, 0.0))
        assert st.converged
        assert max(st.residuals) < 1e-10

    def test_reassembly(self, gs5, periodic_4096):
        # phi_lam(. - y), sampled afresh at the offsets x - y, plus xi is u:
        # no transform moves either
        grid = periodic_4096
        u = Field(grid, 1.01 * gs5.profile(grid).values)
        st = decompose(u, gs5.p, (gs5.c, 0.0))
        offsets = modulation._offsets(grid, st.y)
        rebuilt = SampledProfile(GroundState(gs5.p, st.lam), offsets).phi + st.xi.values
        assert np.max(np.abs(rebuilt - u.values)) < 1e-15 * np.max(np.abs(u.values))

    @pytest.mark.parametrize("a, roots, peak", [
        (0.01, [], (1.120, -1.600)),
        (0.0, [], (1.115, -3.2e-5)),
        (-0.002, [1.090, 1.140], None),
        (-0.01, [1.070, 1.185], None),
    ])
    def test_kappa_scalar_sign_structure(self, gs5, periodic_4096, a, roots, peak):
        # the kappa pair is not solved. For the even u0 = (1-a) phi_c its first
        # equation holds at y = 0 for every lam, so it reduces to the scalar
        # g(lam) = h <u0 - phi_lam, kappa_lam>, where a sign change between
        # scan points brackets a root and a one-signed g rules roots out. On
        # 57 lam in [1.02, 1.30] (the same at N = 8192): none for a >= 0, and
        # for a < 0 the double root at c0 splits in two, each bracketed
        # in [root, root + 0.005]
        grid = periodic_4096
        u0 = (1.0 - a) * gs5.profile(grid).values

        def g(lam):
            prof = GroundState(gs5.p, lam).sample(grid)
            return grid.h * ((u0 - prof.phi) @ kappa_closed_form(prof).values)

        lams = np.linspace(1.02, 1.30, 57)
        vals = np.array([g(lam) for lam in lams])
        flips = np.nonzero(np.sign(vals[1:]) != np.sign(vals[:-1]))[0]
        assert list(lams[flips]) == pytest.approx(roots, abs=1e-12)
        # g(c0) = -a h <phi_c, kappa_c>, exactly 0 at a = 0: the double root
        assert np.sign(g(gs5.c)) == -np.sign(a)
        if peak:
            # a negative maximum: g < 0 over the whole scan
            assert lams[vals.argmax()] == pytest.approx(peak[0], abs=1e-12)
            assert vals.max() == pytest.approx(peak[1], rel=0.01)

    def test_plateau_stops_early(self, gs5, periodic_4096, monkeypatch):
        # a Newton step taken against the negated Jacobian climbs away from the
        # root; eight iterates in a row that do not beat the best residual so
        # far end the solve (after 13 residuals and 12 iterations) instead of
        # running FIT_MAX_ITER
        calls = []
        residual, jacobian = modulation._residual, modulation._fit_jacobian

        def counted(*args):
            calls.append(1)
            return residual(*args)

        def negated(*args):
            return tuple(tuple(-v for v in row) for row in jacobian(*args))

        monkeypatch.setattr(modulation, "_residual", counted)
        monkeypatch.setattr(modulation, "_fit_jacobian", negated)
        u = Field(periodic_4096, 0.98 * gs5.profile(periodic_4096).values)
        with pytest.raises(ModulationError) as err:
            decompose(u, gs5.p, (gs5.c, 0.3))
        assert len(calls) <= 30
        assert err.value.state.newton_iters < 50

    def test_reduced_profile_converges(self, gs5, periodic_4096):
        u = Field(periodic_4096, 0.99 * gs5.profile(periodic_4096).values)
        st = decompose(u, gs5.p, (gs5.c, 0.0))
        assert st.converged
        assert max(st.residuals) < 1e-10
        assert norm_h1(st.xi) < 0.05

    @pytest.mark.parametrize("lam, y", [(None, 0.3), (1.2, -0.5), (1.05, 2.0)])
    def test_fit_jacobian_matches_slow_path(self, gs5, periodic_4096, lam, y):
        # the closed form against the central difference in lam of the same
        # residual and the y-column of the spectral derivative of u: by parts
        # is exact to round-off, and the relative-1e-5 difference carries an
        # O(d^2) error of at most 7.5e-8 of max |J| here
        grid = periodic_4096
        lam = gs5.c if lam is None else lam
        u = Field(grid, 0.98 * gs5.profile(grid).values)
        _, xi, prof = modulation._residual(u.values, gs5.p, lam, y, grid)
        closed = np.array(modulation._fit_jacobian(u.values, xi, prof))
        slow = np.array(fd_jacobian(u.values, y, prof))
        scale = np.max(np.abs(slow))
        assert np.max(np.abs(closed[:, 0] - slow[:, 0])) < 2e-7 * scale
        assert np.max(np.abs(closed[:, 1] - slow[:, 1])) < 1e-14 * scale

    def test_makes_no_transform(self, gs5, periodic_4096, transform_calls):
        # every iterate samples phi_lam at the offsets x - y on the lab grid
        u = Field(periodic_4096, 0.98 * gs5.profile(periodic_4096).values)
        st = decompose(u, gs5.p, (gs5.c, 0.3))
        assert st.converged and st.newton_iters >= 2
        assert transform_calls == []
        assert np.array_equal(st.profile.x, modulation._offsets(periodic_4096, st.y))
        assert np.array_equal(st.xi.values, u.values - st.profile.phi)

    @pytest.mark.parametrize("y", [
        0.0, H4096 / 3.0, -H4096 / 3.0, L50, -L50, 3.0 * L50 + 0.1, 1e3,
    ])
    def test_offsets_wrap_into_the_box(self, periodic_4096, y):
        # the rotated nodes plus the fraction against the periodic wrap by
        # the floating mod
        grid = periodic_4096
        L = grid.half_width
        offsets = modulation._offsets(grid, y)
        assert np.all(offsets >= -L) and np.all(offsets < L)
        wrapped = ((grid.nodes - y + L) % (2.0 * L)) - L
        assert np.max(np.abs(offsets - wrapped)) <= 1e-13 * L

    def test_offsets_stay_in_the_box_near_grid_multiples(self, periodic_4096):
        # y = k h, -3000 <= k < 3000, and its two float neighbours: unless
        # mapped back, rounding carries the rotated top node to +L for 294 of
        # the 6000 y = k h (3874 of all 18000 y) and the rotated bottom node
        # below -L for 363 y
        grid = periodic_4096
        L = grid.half_width
        outside = []
        for k in range(-3000, 3000):
            y0 = k * grid.h
            for y in (y0, float(np.nextafter(y0, np.inf)), float(np.nextafter(y0, -np.inf))):
                offsets = modulation._offsets(grid, y)
                if not (offsets.min() >= -L and offsets.max() < L):
                    outside.append(y)
        assert outside == []

    def test_guess_validation(self, gs5, periodic_4096):
        with pytest.raises(ValueError):
            decompose(gs5.profile(periodic_4096), gs5.p, (0.5, 0.0))


def short_start(gs5, a):
    """The arguments of the short runs: u0 = (1 - a) phi_c, p, t_end and dt."""
    grid = make_grid(L50, 4096)
    return Field(grid, (1.0 - a) * gs5.profile(grid).values), gs5.p, 3.0, 2e-3


@pytest.fixture(scope="module")
def short_runs(gs5):
    return {a: evolve(*short_start(gs5, a)) for a in (0.0, 0.005, 0.01, 0.02)}


@pytest.fixture(scope="module")
def short_frames(gs5, short_runs):
    return {
        a: list(virial_monitor(run, gs5.p, gs5.c, R=30.0))
        for a, run in short_runs.items()
    }


@pytest.fixture(scope="module")
def frames_to_10(gs5):
    """The frames of u0 = 0.98 phi_c to t = 10 at N = 8192, 21 in all."""
    grid = make_grid(L50, 8192)
    return evolve(Field(grid, 0.98 * gs5.profile(grid).values), gs5.p, 10.0, dt=0.025)


class TestWarmStart:
    def test_against_velocity_guess(self, gs5, frames_to_10, monkeypatch):
        # the extrapolated warm start against decomposing every frame from the
        # previous converged (lam, y) moved on at speed lam: the same roots,
        # in at most half the Newton iterations
        states = []
        real = modulation.decompose

        def counted(*args, **kwargs):
            states.append(real(*args, **kwargs))
            return states[-1]

        monkeypatch.setattr(modulation, "decompose", counted)
        monitored = list(virial_monitor(frames_to_10, gs5.p, gs5.c, R=30.0))
        monkeypatch.undo()
        assert len(monitored) == 21

        E0 = float(frames_to_10[0].E)
        lam, y, t_prev, ref_iters = gs5.c, 0.0, 0.0, 0
        for frame, rep in zip(frames_to_10, monitored):
            st = decompose(frame.state, gs5.p, (lam, y + lam * (frame.t - t_prev)))
            ref = modulation._virial_frame(frame.state, frame.t, gs5.p, gs5.c, 30.0, E0, st)
            lam, y, t_prev = st.lam, st.y, frame.t
            ref_iters += st.newton_iters
            for name in ("lam", "y", "tube_distance", "I"):
                assert getattr(rep, name) == pytest.approx(getattr(ref, name), abs=1e-9)
        assert sum(st.newton_iters for st in states) <= ref_iters / 2

    def test_extrapolation_is_exact_on_quadratics(self):
        # frames at 9, 9.5 and 10, then a short last interval to t = 10.2
        def lam(t):
            return 1.1 + 0.01 * t - 0.002 * t * t

        def y(t):
            return 3.0 * t + 0.5 * t * t

        past = [(t, lam(t), y(t)) for t in (9.0, 9.5, 10.0)]
        assert modulation._extrapolate(past, 10.2) == pytest.approx((lam(10.2), y(10.2)), rel=1e-14)
        # two frames: the line through them; one frame: moved on at speed lam
        line = [v + 0.4 * (v - w) for v, w in ((lam(10.0), lam(9.5)), (y(10.0), y(9.5)))]
        assert modulation._extrapolate(past[1:], 10.2) == pytest.approx(line, rel=1e-14)
        assert modulation._extrapolate(past[2:], 10.2) == (lam(10.0), y(10.0) + lam(10.0) * (10.2 - 10.0))


class TestParameterResiduals:
    def test_exact_soliton_dynamics(self, gs5, short_runs, short_frames):
        recs = parameter_residuals(short_runs[0.0], short_frames[0.0], gs5.p)
        mid = recs[len(recs) // 2]
        assert abs(mid.y_dot - gs5.c) < 1e-8
        assert abs(mid.lam_dot) < 1e-8

    def test_ratios_bounded(self, gs5, short_runs, short_frames):
        recs = parameter_residuals(short_runs[0.01], short_frames[0.01], gs5.p)
        assert max(r.ratio_y for r in recs) < 2.0
        assert max(r.ratio_lam for r in recs) < 0.1

    def test_translation_speed_identity_second_order(self, gs5, short_runs, short_frames):
        # defect of the speed identity scales like ||xi||^2: the measured
        # constant stays put under refinement of the perturbation size
        consts = []
        for a in (0.02, 0.01, 0.005):
            recs = parameter_residuals(short_runs[a], short_frames[a], gs5.p)
            consts.append(max(r.defect for r in recs) / max(r.xi_h1 for r in recs) ** 2)
        assert max(consts) < 1.0
        assert max(consts) / min(consts) < 1.25


class TestGammaDiagnostics:
    @pytest.mark.parametrize("p", [5.0, 10.0, 50.0])
    def test_vanishes_at_critical_speed(self, p):
        c = critical_speed(p)
        scale = abs(c * (4.0 * c + p) / (2.0 * (p + 4.0)) * profile_norm_sq_closed(p, c))
        assert abs(gamma_of_lambda(p, c, c)) < 1e-10 * scale

    @pytest.mark.parametrize("p", [5.0, 10.0, 50.0])
    def test_slope_vanishes_at_critical_speed(self, p):
        c = critical_speed(p)
        d = 1e-4 * (c - 1.0)
        slope = (gamma_of_lambda(p, c, c + d) - gamma_of_lambda(p, c, c - d)) / (2.0 * d)
        scale = abs(c * (4.0 * c + p) / (2.0 * (p + 4.0)) * profile_norm_sq_closed(p, c))
        assert abs(slope) < 1e-6 * scale

    @pytest.mark.parametrize("p", [5.0, 10.0, 50.0])
    def test_curvature_positive_and_matches_closed_form(self, p):
        c = critical_speed(p)
        d = 1e-3 * (c - 1.0)
        fd = (
            gamma_of_lambda(p, c, c + d)
            - 2.0 * gamma_of_lambda(p, c, c)
            + gamma_of_lambda(p, c, c - d)
        ) / d ** 2
        closed = gamma_curvature_closed(p, c)
        assert closed > 0.0
        assert fd == pytest.approx(closed, rel=1e-4)

    def test_closed_norms_match_quadrature(self, gs5):
        # gamma assembled from closed-form norms equals the same expression
        # computed by quadrature of sampled profiles
        p, c = gs5.p, gs5.c
        grid = make_grid(L50, 8192)
        for lam in (c, 1.2, 1.05):
            gsl = GroundState(p, lam)
            n2 = quadrature(Field(grid, gsl.profile(grid).values ** 2))
            dn2 = quadrature(Field(grid, gsl.profile_dx(grid).values ** 2))
            e_c = (4.0 * c + p) / (2.0 * (p + 4.0)) * quadrature(
                Field(grid, gs5.profile(grid).values ** 2)
            )
            quad_version = -lam * e_c + 0.5 * lam * lam * (n2 - dn2)
            assert gamma_of_lambda(p, c, lam) == pytest.approx(
                quad_version, rel=1e-8, abs=1e-8 * abs(e_c)
            )


class TestVirialMonitor:
    def test_frames_consistent(self, gs5, short_frames):
        frames = short_frames[0.01]
        for f in frames:
            assert f.I == pytest.approx(f.I1 + f.I2, abs=1e-14)
        # uniform bound in the cutoff radius
        n2 = profile_norm_sq_closed(gs5.p, gs5.c)
        assert max(abs(f.I) for f in frames) < 5.0 * 30.0 * (n2 + 1.0)

    def test_soliton_run_keeps_I_constant(self, short_frames):
        frames = short_frames[0.0]
        vals = [f.I for f in frames]
        assert max(vals) - min(vals) < 1e-8

    def test_stored_run_and_live_stream_agree(self, gs5, short_frames):
        # the frames of a collected evolve run and the live stream give the
        # same reports, bit for bit
        live = list(virial_monitor(stream(*short_start(gs5, 0.01)), gs5.p, gs5.c, R=30.0))
        assert len(live) == 7
        assert live == short_frames[0.01]

    @pytest.mark.parametrize("a", [-0.01, 0.01])
    def test_first_frame_is_the_nearby_soliton(self, gs5, a):
        # the fit pair decomposes (1 - a) phi_c about a soliton within
        # |a| ||phi_c||_{H^1} of it, for either sign of a
        u0, *run = short_start(gs5, a)
        first = next(virial_monitor(stream(u0, *run), gs5.p, gs5.c, R=30.0))
        assert first.t == 0.0
        assert first.tube_distance <= 1.01 * abs(a) * norm_h1(gs5.profile(u0.grid))


@pytest.fixture(scope="module")
def experiment_report():
    grid = make_grid(L50, 4096)
    return instability_experiment(5.0, 0.01, grid, dt=2e-3, t_end=10.0)


class TestInstabilityExperiment:
    @pytest.fixture
    def report(self, experiment_report):
        return experiment_report

    @pytest.mark.parametrize("a", [0.0, 0.02])
    def test_every_frame_is_decomposed_in_the_fit_pair(self, a, monkeypatch):
        # at a = 0 (where the kappa pair has a root) and a > 0 (where it has
        # none) alike: one decompose, which solves the fit pair, per frame
        calls = []
        real = modulation.decompose

        def spy(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(modulation, "decompose", spy)
        grid = make_grid(L50, 1024)
        rep = instability_experiment(5.0, a, grid, dt=0.025, t_end=2.0)
        assert len(rep.frames) == 5
        assert len(calls) == len(rep.frames)

    def test_definite_sign_increments(self, report):
        assert report.verdict == "monotone-decreasing"
        assert report.negative_fraction >= 0.95

    def test_beta_positive_with_linear_coefficient(self, report):
        assert report.beta_initial > 0.0
        assert report.beta_initial == pytest.approx(report.beta_linear_prediction, rel=0.05)

    def test_kappa_residual_reported(self, report):
        assert all(f.kappa_residual < 0.0 for f in report.frames)

    def test_json_roundtrip(self, report):
        import json

        cfg = {"p": 5.0, "a": 0.01, "L": L50, "N": 4096, "dt": 2e-3, "t_end": 10.0}
        doc = json.loads(instability_outputs(cfg, report)["instability.json"])
        assert doc["result"]["verdict"] == "monotone-decreasing"
        assert len(doc["result"]["frames"]) == len(report.frames)

    def test_frames_csv_header(self, report):
        cfg = {"p": 5.0, "a": 0.01, "L": L50, "N": 4096, "dt": 2e-3, "t_end": 10.0}
        lines = instability_outputs(cfg, report)["instability_frames.csv"].splitlines()
        assert lines[0].startswith("# schema=gbbmlab/1 command=instability ")
        assert lines[1] == "t,lambda,y,xi_h1,I,I1,I2"
        assert len(lines) == 2 + len(report.frames)

    def test_validation(self):
        grid = make_grid(L50, 1024)
        with pytest.raises(ValueError):
            instability_experiment(5.0, 0.5, grid, 60.0)
        with pytest.raises(ValueError):
            instability_experiment(3.0, 0.01, grid, 60.0)

    def test_stops_at_tube_exit(self, monkeypatch):
        # a = 0.05 leaves the tube at t = 11.5, well before t_end: the exit frame
        # is the last one reported and the last one decomposed
        calls = []
        real = modulation.decompose

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(modulation, "decompose", counted)
        grid = make_grid(L50, 1024)
        rep = instability_experiment(5.0, 0.05, grid, dt=0.025, t_end=20.0)
        assert rep.tube_exit_time == 11.5
        assert rep.frames[-1].t == rep.tube_exit_time
        # one call per reported frame
        assert len(calls) == len(rep.frames)

    def test_time_past_the_exit_costs_nothing(self, flow_calls):
        # the stepping stops at the exit frame, so a later t_end changes nothing
        grid = make_grid(L50, 1024)
        runs = []
        for t_end in (20.0, 200.0):
            flow_calls.clear()
            rep = instability_experiment(5.0, 0.05, grid, dt=0.025, t_end=t_end)
            runs.append((rep.frames, len(flow_calls)))
        assert runs[0][0][-1].t == 11.5
        assert runs[0] == runs[1]

    def test_wide_cutoff_raises_before_any_step(self, flow_calls):
        # 2R < L is checked on frame 0, which the stream yields before stepping:
        # at p = 5 the cutoff 10 / tail rate has 2R = 62.3 > 50
        grid = make_grid(50.0, 1024)
        with pytest.raises(ValueError, match=r"2R < L .* needs a half-width L > 2R = 62\.3"):
            instability_experiment(5.0, 0.01, grid, 60.0)
        assert flow_calls == []

    def test_negative_cutoff_raises_before_any_step(self, gs5, flow_calls):
        # the monitor's R is library input: a negative R is refused on frame 0
        grid = make_grid(L50, 1024)
        frames = stream(gs5.profile(grid), gs5.p, 60.0)
        with pytest.raises(ValueError, match=r"R > 0, got R=-5\.0 on half-width \S+$"):
            next(virial_monitor(frames, gs5.p, gs5.c, R=-5.0))
        assert flow_calls == []
