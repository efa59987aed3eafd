"""Pseudo-spectral time evolution of the gBBM flow in Hamiltonian form.

u_t = -(1 - d_xx)^{-1} d_x (u + |u|^p u) on a periodic box. The linear symbol
-ik/(1 + k^2) has modulus at most 1/2 at every k, so the flow is not stiff:
accuracy, not stability, sets the step. `evolve` therefore takes
error-controlled steps of the embedded Dormand-Prince 5(4) pair (Dormand &
Prince 1980; Hairer, Norsett & Wanner, Solving ODEs I, sec. II.4), with the
error measured in the max norm, which does not depend on N or L. Conservation
of E and Q is monitored, not enforced. The fractional nonlinearity cannot be
dealiased exactly; the 2/3-rule mask acts on the transform of the nonlinear
term. `stream` yields one `Frame` per record time; `evolve` collects them.
"""
from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .grid import Field, Grid, GridError, PERIODIC, helmholtz_inverse
from .functionals import energy, momentum, _flow, _flow_symbol, _nonlinear

# per-node error tolerance of an accepted step: ATOL + RTOL * max(|v|, |v_new|)
RTOL = 1e-10
ATOL = 1e-12

# Dormand-Prince 5(4). Row i of _A builds the state of stage i + 1 from
# stages 0..i; the last row holds the 5th-order weights, so the last stage is
# the flow at the new state and starts the next step (FSAL). _E holds the
# 5th-order minus the embedded 4th-order weights.
_A = tuple(np.array(row) for row in (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
))
_E = np.array((71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40))


class BlowupError(RuntimeError):
    def __init__(self, t: float):
        super().__init__(
            f"state or its conserved quantities became non-finite at t={t:.6g}"
        )
        self.t = t


@dataclass(frozen=True)
class SimulationConfig:
    """dt is the first trial step, not a cap: the error control picks every
    later step. Frames are taken every record_interval time units and at t_end."""
    grid: Grid
    p: float
    dt: float = 1e-3
    t_end: float = 10.0
    record_interval: float = 0.5

    def __post_init__(self):
        if self.grid.boundary != PERIODIC:
            raise ValueError("time evolution requires a periodic grid")
        if not (self.dt > 0 and self.t_end > 0 and self.record_interval > 0):
            raise ValueError("dt > 0, t_end > 0 and record_interval > 0 required")


@dataclass(frozen=True)
class Frame:
    """The state at record time t, its E and Q, and the steps taken so far."""
    t: float
    state: Field
    E: float
    Q: float
    steps_accepted: int
    steps_rejected: int

    @property
    def rhs_evals(self) -> int:
        # FSAL: one flow evaluation at t = 0, then six per trial step
        return 1 + 6 * (self.steps_accepted + self.steps_rejected)


@dataclass
class Trajectory:
    """The frames of one `stream`, collected, with their t, E and Q series."""
    frames: list

    def __post_init__(self):
        self.times, self.E_series, self.Q_series = np.array(
            [(f.t, f.E, f.Q) for f in self.frames]).T

    def energy_drift(self) -> float:
        return float(np.max(np.abs(self.E_series - self.E_series[0])) / abs(self.E_series[0]))

    def momentum_drift(self) -> float:
        return float(np.max(np.abs(self.Q_series - self.Q_series[0])) / abs(self.Q_series[0]))


def _dp54(v: np.ndarray, k1: np.ndarray, h: float, g: Grid, p: float):
    """One Dormand-Prince 5(4) trial step of size h from v, where k1 is the
    flow at v: (5th-order state, flow at that state, embedded error estimate).
    Six flow evaluations."""
    K = np.empty((7, v.size))
    K[0] = k1
    for i, row in enumerate(_A, start=1):
        u = v + h * (row @ K[:i])
        K[i] = _flow(u, g, p, True)
    return u, K[6], h * (_E @ K)


def step(u: Field, dt: float, p: float) -> Field:
    """One uncontrolled 5th-order Dormand-Prince step of the Hamiltonian flow."""
    out, _, _ = _dp54(u.values, _flow(u.values, u.grid, p, True), dt, u.grid, p)
    if not np.all(np.isfinite(out)):
        raise BlowupError(float("nan"))
    return Field(u.grid, out)


def stream(u0: Field, config: SimulationConfig) -> Iterator[Frame]:
    """One Frame per record time, from error-controlled Dormand-Prince 5(4) steps.

    The first trial step is config.dt. A step is accepted when the max over
    the nodes of |error| / (ATOL + RTOL max(|v|, |v_new|)) is at most 1; the
    next step is the current one times 0.9 err^(-1/5), clipped to [0.2, 5],
    and does not grow right after a rejection. A trial step with a non-finite
    stage or error is rejected; one below 1e-10 record_interval raises
    BlowupError. Frames fall at t = 0 (before any flow evaluation), at each
    k * record_interval < t_end and at t_end, hit exactly by shortening steps.
    """
    g, p, interval, t_end = config.grid, config.p, config.record_interval, config.t_end
    n_inner = math.ceil(t_end / interval - 1e-9)
    record_times = [k * interval for k in range(1, n_inner)] + [t_end]
    v, accepted, rejected = u0.values.copy(), 0, 0

    def frame(t: float) -> Frame:
        f = Field(g, v)  # v is replaced, never written in place
        try:
            E, Q = energy(f, p), momentum(f)
        except GridError as exc:  # a finite state whose E or Q density overflows
            raise BlowupError(t) from exc
        return Frame(t, f, E, Q, accepted, rejected)

    yield frame(0.0)
    k1 = _flow(v, g, p, True)
    t, h, after_reject = 0.0, config.dt, False
    for t_rec in record_times:
        while t < t_rec:
            h_try = min(h, t_rec - t)
            with np.errstate(over="ignore", invalid="ignore"):
                v_new, k_new, err_vec = _dp54(v, k1, h_try, g, p)
                scale = ATOL + RTOL * np.maximum(np.abs(v), np.abs(v_new))
                err = float(np.max(np.abs(err_vec) / scale))
            if not math.isfinite(err):
                err = math.inf
            fac = min(5.0, max(0.2, 0.9 * err ** -0.2)) if err > 0.0 else 5.0
            if err > 1.0:
                rejected += 1
                if h_try < 1e-10 * interval:
                    raise BlowupError(t)
                h, after_reject = h_try * fac, True
                continue
            accepted += 1
            t = t_rec if h_try == t_rec - t else t + h_try
            v, k1 = v_new, k_new
            h, after_reject = h_try * (min(fac, 1.0) if after_reject else fac), False
        yield frame(t_rec)


def evolve(u0: Field, config: SimulationConfig) -> Trajectory:
    """Integrate to t_end: every frame of `stream`, collected."""
    return Trajectory(list(stream(u0, config)))


def H_of_u(u: Field, p: float) -> Field:
    """H(u) = -(1 - d_xx)^{-1}(u + |u|^p u); d_x H(u) equals the flow field."""
    return -helmholtz_inverse(Field(u.grid, u.values + _nonlinear(u.values, p)))


def linear_rhs(u: Field) -> Field:
    """Linearized flow u_t = -(1 - d_xx)^{-1} d_x u; mode k advects at 1/(1+k^2)."""
    g = u.grid
    return Field(g, np.fft.irfft(_flow_symbol(g) * np.fft.rfft(u.values), n=g.points))
