"""Modulation decomposition u(t) = phi_lambda(. - y) + xi and virial diagnostics.

Each frame is analysed on the lab grid, with phi_lambda and its relatives
sampled at the offsets x - y of the nodes. `decompose` solves one
orthogonality pair by a 2-D Newton iteration: xi is orthogonal to
{d_x phi_lambda, d_lambda phi_lambda}(. - y), i.e. (lambda, y) is the
least-squares closest profile. The Jacobian, in closed form, is dominated by
-||d_lambda phi||^2, uniformly nonsingular in the tube.

The kappa-orthogonal pair {d_x phi_lambda, kappa_lambda}, which the
instability analysis is built around, is not solved. Its Jacobian entry
d/d_lambda <xi, kappa_lambda> at xi=0 equals c^2 B(c) dQ/dc(phi_c) (see
structure.modulation_pairing), which vanishes AT the critical speed. For the
even data (1-a) phi_c, y = 0 and the pair reduces to the scalar
g(lambda) = <u0 - phi_lambda, kappa_lambda>, which is negative throughout
lambda in [1.02, 1.30] at p = 5 for a = 0.01: no root. Every frame reports
<xi, kappa_lambda>/B instead.

The virial functional is I = I1 + I2 with a localized momentum-flux I1 (odd
plateau cutoff of the offsets) and the profile-weighted correction I2; each
frame also carries beta(u0), gamma(lambda) and the increment budget term
<xi, kappa_lambda>/B(lambda) so the sign structure of dI/dt is auditable.
"""
from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .grid import Field, Grid, inner, norm_h1, norm_l2, quadrature
from .ground_state import (
    GroundState, SampledProfile, _energy_closed, _momentum_closed, critical_speed,
    profile_norm_sq_closed,
)
from .structure import _kappa, coefficients
from .dynamics import RTOL, Frame, stream
from .functionals import _energy_density, energy

# decompose stops when both scaled residuals are below FIT_TOL, and gives up
# after FIT_MAX_ITER Newton iterations
FIT_TOL = 1e-10
FIT_MAX_ITER = 50


class ModulationError(RuntimeError):
    def __init__(self, message: str, state: "ModulationState"):
        super().__init__(message)
        self.state = state


@dataclass(frozen=True)
class ModulationState:
    """u = phi_lam(. - y) + xi on the lab grid; profile holds phi_lam and its
    relatives at the offsets x - y, as the last residual sampled them."""

    lam: float
    y: float
    xi: Field
    newton_iters: int
    residuals: tuple
    converged: bool
    jacobian_det: float
    profile: SampledProfile


def _offsets(grid: Grid, y: float) -> np.ndarray:
    """x - y on the nodes of grid, wrapped into [-L, L): the nodes rotated by
    m = ceil(y / h) whole steps, plus the fraction m h - y in [0, h). When y
    lies within rounding of a grid multiple, the rotated end nodes can round
    just past the box: the top one to L, which is mapped to its periodic
    image -L, or the bottom one below -L, which is raised to -L."""
    m = math.ceil(y / grid.h)
    r = m % grid.points
    x = np.roll(grid.nodes, r) + (m * grid.h - y)
    L = grid.half_width
    if x[r - 1] >= L:
        x[r - 1] = -L
    if x[r] < -L:
        x[r] = -L
    return x


def _residual(u: np.ndarray, p: float, lam: float, y: float, grid: Grid):
    """F = h(<xi, d_x phi_lam>, <xi, d_lam phi_lam>) with xi = u - phi_lam, each
    sampled at the offsets x - y; returned with xi and the profile bundle,
    whose phi_x and dc_phi are the two directions."""
    gs = GroundState(p, lam)
    grid.ensure_resolves(gs.tail_rate)
    prof = SampledProfile(gs, _offsets(grid, y), grid)
    xi = u - prof.phi
    F = grid.h * np.array([xi @ prof.phi_x, xi @ prof.dc_phi])
    return F, xi, prof


def _fit_jacobian(u: np.ndarray, xi: np.ndarray, prof: SampledProfile):
    """d(F1, F2)/d(lam, y) of the residual F = h(<xi, phi_x>, <xi, d_lam phi>),
    in closed form from the bundle it was sampled from. The lam-column is
    h(<xi, d_lam phi_x> - <d_lam phi, phi_x>, <xi, d_lam^2 phi> - <d_lam phi, d_lam phi>);
    the y-column h(<d_x u, phi_x>, <d_x u, d_lam phi>) is taken by parts on the
    periodic grid, -h(<u, phi_xx>, <u, d_lam phi_x>), so it needs no transform."""
    h = prof.grid.h
    dc_phi, dc_phi_x = prof.dc_phi, prof.dc_phi_x
    return (
        (h * (xi @ dc_phi_x - dc_phi @ prof.phi_x), -h * (u @ prof.phi_xx)),
        (h * (xi @ prof.dc2_phi - dc_phi @ dc_phi), -h * (u @ dc_phi_x)),
    )


def decompose(u: Field, p: float, guess: tuple[float, float]) -> ModulationState:
    """Solve <xi, d_x phi_lam(. - y)> = <xi, d_lam phi_lam(. - y)> = 0 for (lam, y) by Newton.

    xi = u - phi_lam(. - y) on the lab grid. An iterate costs one profile
    sampling, at the offsets x - y, and no transform: the Jacobian is the
    closed form of _fit_jacobian, read from the bundle the residual sampled.
    Steps are clamped so lam - 1 changes by at most a factor of 2 per iteration.

    Raises ModulationError (with the partial state attached) on a singular
    Jacobian or when the residuals cannot be driven below FIT_TOL in
    FIT_MAX_ITER iterations. Eight iterates in a row that do not beat the best
    residual so far by 10% count as a plateau, so a cycle between two residual
    values stops early too.
    """
    lam, y = float(guess[0]), float(guess[1])
    if lam <= 1.0:
        raise ValueError(f"lambda guess must exceed 1, got {lam!r}")
    u_norm = norm_l2(u)
    grid = u.grid
    det_scaled = float("nan")

    def state(converged: bool) -> ModulationState:
        return ModulationState(
            lam, y, Field(grid, xi), it, (r1, r2), converged, det_scaled, prof
        )

    best_res = float("inf")
    stall = 0
    stationary = False
    for it in range(FIT_MAX_ITER + 1):
        F, xi, prof = _residual(u.values, p, lam, y, grid)
        dir1, dir2 = prof.phi_x, prof.dc_phi
        r1 = abs(F[0]) / (u_norm * np.sqrt(grid.h * (dir1 @ dir1)))
        r2 = abs(F[1]) / (u_norm * np.sqrt(grid.h * (dir2 @ dir2)))
        res = max(r1, r2)
        if res < FIT_TOL:
            return state(True)
        stall = stall + 1 if res >= 0.9 * best_res else 0
        best_res = min(best_res, res)
        if stationary or stall >= 8 or it == FIT_MAX_ITER:
            # a stationary point of the iteration is accepted only if it passes
            break

        (J11, J12), (J21, J22) = _fit_jacobian(u.values, xi, prof)
        det = J11 * J22 - J12 * J21
        scale = max(abs(J11 * J22), abs(J12 * J21), 1e-300)
        det_scaled = det / scale
        if abs(det) < 1e-12 * scale:
            raise ModulationError(
                f"singular modulation Jacobian (scaled det {det_scaled:.2e}) "
                f"at lam={lam:.6g}, y={y:.6g}, residuals ({r1:.2e}, {r2:.2e})",
                state(False),
            )
        dlam = (-F[0] * J22 + F[1] * J12) / det
        dy = (-F[1] * J11 + F[0] * J21) / det
        m = lam - 1.0
        dlam = float(np.clip(dlam, -0.5 * m, m))
        dy = float(np.clip(dy, -3.0, 3.0))
        lam += dlam
        y += dy
        stationary = abs(dlam) < 1e-13 * lam and abs(dy) < 1e-13 * max(1.0, abs(y))

    raise ModulationError(
        f"modulation did not converge: residuals ({r1:.2e}, {r2:.2e}) "
        f"at lam={lam:.6g}, y={y:.6g}",
        state(False),
    )


def _odd_cutoff(s: np.ndarray, R: float) -> np.ndarray:
    a = np.abs(s)
    t = np.clip((a - R) / R, 0.0, 1.0)
    # R + R (t - (t^6 - 3t^5 + 5/2 t^4)) in Horner form; exactly 3R/2 at t = 1
    t2 = t * t
    ramp = R + R * (t - t2 * t2 * (2.5 + t * (t - 3.0)))
    return np.sign(s) * np.where(a <= R, a, ramp)


def _check_cutoff(R: float, grid: Grid) -> None:
    if not 0.0 < 2.0 * R < grid.half_width:
        # instability_experiment fixes R by p, so name the box the run needs
        need = f"; the run needs a half-width L > 2R = {2.0 * R:.2f}" if R > 0.0 else ""
        raise ValueError(
            f"cutoff needs 2R < L and R > 0, got R={R!r} on half-width {grid.half_width!r}"
            + need
        )


def _cubic_helmholtz(prof: SampledProfile) -> Field:
    """(1 - d_xx)(x^3 phi) = x^3 phi - (6x phi + 6x^2 phi_x + x^3 phi_xx)."""
    x, phi = prof.x, prof.phi
    vals = x * x * x * phi - (6.0 * x * phi + 6.0 * x * x * prof.phi_x + x * x * x * prof.phi_xx)
    return Field(prof.grid, vals)


def gamma_of_lambda(p: float, c: float, lam: float) -> float:
    """gamma(lam) = -lam E(phi_c) + lam^2/2 (||phi_lam||^2 - ||d_x phi_lam||^2),
    all norms in closed form. Vanishes to second order at lam = c."""
    n2l = profile_norm_sq_closed(p, lam)
    diff = (1.0 - p * (lam - 1.0) / ((p + 4.0) * lam)) * n2l
    return -lam * _energy_closed(p, c) + 0.5 * lam * lam * diff


def gamma_curvature_closed(p: float, c: float) -> float:
    """Closed-form gamma''(c) = (p - 4c) / (2p (c-1)^2) ||phi_c||^2."""
    return (p - 4.0 * c) / (2.0 * p * (c - 1.0) ** 2) * profile_norm_sq_closed(p, c)


@dataclass(frozen=True)
class VirialReport:
    t: float
    I1: float
    I2: float
    I: float
    beta: float
    gamma_of_lambda: float
    lam: float
    tube_distance: float
    kappa_residual: float
    y: float
    # <xi, (1-d_xx)(x^3 phi_lam)> at the offsets x - y
    cubic_pairing: float


def _virial_frame(
    u: Field,
    t: float,
    p: float,
    c: float,
    R: float,
    E0: float,
    state: ModulationState,
) -> VirialReport:
    grid = u.grid
    lam, y, prof, xi = state.lam, state.y, state.profile, state.xi

    # cutoff recentered on the soliton, at the offsets x - y of the bundle
    I1 = quadrature(Field(grid, _odd_cutoff(prof.x, R) * _energy_density(u.values, p)))

    B, D = coefficients(prof)
    cubic = inner(xi, _cubic_helmholtz(prof))
    I2 = D / B * cubic

    beta = -lam * (E0 - _energy_closed(p, c))
    kres = inner(xi, Field(grid, _kappa(prof))) / B
    return VirialReport(
        t, I1, I2, I1 + I2, beta, gamma_of_lambda(p, c, lam), lam,
        norm_h1(xi), kres, y, cubic,
    )


def _extrapolate(past: list[tuple[float, float, float]], t: float) -> tuple[float, float]:
    """(lam, y) at time t from the converged (t_i, lam_i, y_i) of one to three
    frames: with one, (lam, y + lam (t - t_0)); with two or three, the Lagrange
    polynomial through them at their own times, evaluated at t."""
    if len(past) == 1:
        t0, lam, y = past[0]
        return lam, y + lam * (t - t0)
    lam = y = 0.0
    for i, (ti, lam_i, y_i) in enumerate(past):
        w = 1.0
        for j, (tj, _, _) in enumerate(past):
            if j != i:
                w *= (t - tj) / (ti - tj)
        lam += w * lam_i
        y += w * y_i
    return lam, y


def virial_monitor(
    frames: Iterable[Frame],
    p: float,
    c: float,
    R: float,
) -> Iterator[VirialReport]:
    """The frame loop: one virial report per frame (of a live `stream` or of a
    collected `Trajectory.frames`), in order. E(u0) and the grid come from the
    first frame, where 0 < 2R < L is checked before any decompose. Each decompose
    is warm-started from an extrapolation of the converged (lam, y) of the last
    three frames: the quadratic Lagrange polynomial through them at their own
    times (so an uneven last interval, as at t_end, is handled), the line
    through two after the second frame, and (lam, y + lam (t - t_prev)) after
    the first; the first frame starts from (c, c t). Most frames then converge
    in one Newton iteration. The frame reads the profile bundle decompose
    sampled at the converged lam, so it samples none itself. The first
    ModulationError propagates. A consumer that stops iterating stops the
    decomposition, and the stepping of a live stream, there.
    """
    E0, past = None, []
    for frame in frames:
        t = float(frame.t)
        if E0 is None:
            _check_cutoff(R, frame.state.grid)
            E0 = float(frame.E)
        guess = _extrapolate(past, t) if past else (c, c * t)
        # no state is held across the yield: its profile bundle would stay
        # live through the next frame's decompose
        report = _virial_frame(frame.state, t, p, c, R, E0, decompose(frame.state, p, guess))
        past = past[-2:] + [(t, report.lam, report.y)]
        yield report


@dataclass(frozen=True)
class ExperimentReport:
    p: float
    a: float
    c0: float
    frames: tuple
    tube_exit_time: float | None
    verdict: str
    positive_fraction: float
    negative_fraction: float
    lambda_shift_at_end: float
    beta_initial: float
    beta_linear_prediction: float
    # RTOL (3R/2) E(u0): the increment of I that the stepper's error control resolves
    noise_floor: float


def instability_experiment(
    p: float,
    a: float,
    grid: Grid,
    t_end: float,
    dt: float = 0.0,
) -> ExperimentReport:
    """Evolve u0 = (1-a) phi_c at the critical speed to t_end and monitor the virial budget.

    Frames are taken every dynamics.RECORD_INTERVAL time units, and dt is
    the first trial step of the error-controlled `stream`; dt = 0 estimates it
    from u0, one flow evaluation more. The virial cutoff radius is
    R = 10 / tail rate of phi_c, and a grid whose half-width is not above 2R
    is refused before any step. The tube is the H^1 ball of radius
    0.1 ||phi_c||_{H^1} around the modulated profile. Every
    frame, u0 included, is decomposed by `decompose`, whose least-squares pair
    has a root throughout the tube; the kappa-orthogonal pair has none for this
    data when a > 0 (g(lambda) < 0 on [1.02, 1.30] at p = 5, a = 0.01), and its
    residual is reported per frame instead. The frames end at the first one
    outside the tube: no later state is computed or decomposed. The verdict
    states whether the increments of I have a definite sign over the in-tube
    frames (>= 95% one-signed). When every in-tube increment is at or below the
    noise floor RTOL (3R/2) E(u0), it is "below-noise-floor" instead: |I1| <=
    (3R/2) E(u), so a relative state error of RTOL moves I by up to that floor,
    and no increment below it has a sign.
    """
    if not 0.0 <= a <= 0.05:
        raise ValueError(f"perturbation size must lie in [0, 0.05], got {a!r}")
    c = critical_speed(p)
    gs = GroundState(p, c)
    phi = gs.profile(grid)
    R = 10.0 / gs.tail_rate
    u0 = Field(grid, (1.0 - a) * phi.values)
    floor = RTOL * 1.5 * R * energy(u0, p)

    # 0.1 ||phi_c||_{H^1} = 0.1 sqrt(2 Q(phi_c)), in closed form
    eps = 0.1 * math.sqrt(2.0 * _momentum_closed(p, c))
    frames, tube_exit, failed = [], None, False
    try:
        for f in virial_monitor(stream(u0, p, t_end, dt), p, c, R):
            frames.append(f)
            if f.tube_distance > eps:
                tube_exit = f.t
                break
    except ModulationError:
        failed = True

    if not frames:
        return ExperimentReport(
            p, a, c, (), None, "modulation-failed", 0.0, 0.0, 0.0,
            float("nan"), float("nan"), floor,
        )

    in_tube_end = len(frames) - 1 if tube_exit is not None else len(frames)
    I_vals = np.array([f.I for f in frames[: max(in_tube_end, 2)]])
    dI = np.diff(I_vals)
    pos = float(np.mean(dI > 0)) if dI.size else 0.0
    neg = float(np.mean(dI < 0)) if dI.size else 0.0
    if failed and len(frames) < 3:
        verdict = "modulation-failed"
    elif dI.size and np.all(np.abs(dI) <= floor):
        verdict = "below-noise-floor"
    elif pos >= 0.95:
        verdict = "monotone-increasing"
    elif neg >= 0.95:
        verdict = "monotone-decreasing"
    else:
        verdict = "inconclusive"

    beta_lin = a * c * (2.0 * (p + 2.0) * c - p) / (p + 4.0) * profile_norm_sq_closed(p, c)
    return ExperimentReport(
        p, a, c, tuple(frames), tube_exit, verdict, pos, neg,
        abs(frames[in_tube_end - 1].lam - c), frames[0].beta, beta_lin, floor,
    )
