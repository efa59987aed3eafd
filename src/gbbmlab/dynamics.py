"""Pseudo-spectral time evolution of the gBBM flow in Hamiltonian form.

u_t = -(1 - d_xx)^{-1} d_x (u + |u|^p u) on a periodic box. The Helmholtz
inverse gains two derivatives, so the vector field is smoothing and classical
RK4 is stable with grid-independent step sizes; conservation of E and Q is
monitored, not enforced. The fractional nonlinearity cannot be dealiased
exactly; the optional 2/3-rule mask (default on) masks the transform of the
nonlinear term.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Field, Grid, GridError, PERIODIC, helmholtz_inverse
from .functionals import energy, momentum, _flow, _flow_symbol, _nonlinear


class BlowupError(RuntimeError):
    def __init__(self, t: float):
        super().__init__(
            f"state or its conserved quantities became non-finite at t={t:.6g}"
        )
        self.t = t


@dataclass(frozen=True)
class SimulationConfig:
    grid: Grid
    p: float
    dt: float = 1e-3
    t_end: float = 10.0
    record_every: int = 100
    dealias: bool = True

    def __post_init__(self):
        if self.grid.boundary != PERIODIC:
            raise ValueError("time evolution requires a periodic grid")
        if self.dt <= 0 or self.t_end <= 0 or self.record_every < 1:
            raise ValueError("dt > 0, t_end > 0 and record_every >= 1 required")


@dataclass
class Trajectory:
    config: SimulationConfig
    times: np.ndarray
    states: list
    E_series: np.ndarray
    Q_series: np.ndarray

    def energy_drift(self) -> float:
        E0 = self.E_series[0]
        return float(np.max(np.abs(self.E_series - E0)) / abs(E0))

    def momentum_drift(self) -> float:
        Q0 = self.Q_series[0]
        return float(np.max(np.abs(self.Q_series - Q0)) / abs(Q0))


def _rk4(v: np.ndarray, g: Grid, p: float, dt: float, dealias: bool, t: float) -> np.ndarray:
    """One classical RK4 step on raw values; t labels a BlowupError."""
    k1 = _flow(v, g, p, dealias)
    k2 = _flow(v + 0.5 * dt * k1, g, p, dealias)
    k3 = _flow(v + 0.5 * dt * k2, g, p, dealias)
    k4 = _flow(v + dt * k3, g, p, dealias)
    out = v + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.all(np.isfinite(out)):
        raise BlowupError(t)
    return out


def step(u: Field, dt: float, p: float, dealias: bool = True) -> Field:
    """One classical RK4 step of the Hamiltonian flow."""
    return Field(u.grid, _rk4(u.values, u.grid, p, dt, dealias, float("nan")))


def evolve(u0: Field, config: SimulationConfig) -> Trajectory:
    """Integrate for round(t_end/dt) steps, recording every record_every steps.

    The final recorded time is n_steps * dt, which differs from t_end when
    t_end is not a step multiple; compare against times[-1].
    """
    g, p, dt = config.grid, config.p, config.dt
    n_steps = int(round(config.t_end / dt))
    v = u0.values.copy()
    times, states, Es, Qs = [], [], [], []

    def record(i: int):
        f = Field(g, v.copy())
        try:
            E, Q = energy(f, p), momentum(f)
        except GridError as exc:  # a finite state whose E or Q density overflows
            raise BlowupError(i * dt) from exc
        times.append(i * dt)
        states.append(f)
        Es.append(E)
        Qs.append(Q)

    record(0)
    for i in range(1, n_steps + 1):
        v = _rk4(v, g, p, dt, config.dealias, i * dt)
        if i % config.record_every == 0 or i == n_steps:
            record(i)
    return Trajectory(config, np.asarray(times), states, np.asarray(Es), np.asarray(Qs))


def H_of_u(u: Field, p: float) -> Field:
    """H(u) = -(1 - d_xx)^{-1}(u + |u|^p u); d_x H(u) equals the flow field."""
    return -helmholtz_inverse(Field(u.grid, u.values + _nonlinear(u.values, p)))


def linear_rhs(u: Field) -> Field:
    """Linearized flow u_t = -(1 - d_xx)^{-1} d_x u; mode k advects at 1/(1+k^2)."""
    g = u.grid
    return Field(g, np.fft.irfft(_flow_symbol(g) * np.fft.rfft(u.values), n=g.points))
