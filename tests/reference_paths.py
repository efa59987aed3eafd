"""Slow reference paths that the library's fast paths are tested against.

Each function here computes, by a simpler or older method, what a library
function computes. No command needs them, so they live with the tests.
"""
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from gbbmlab import (
    BlowupError, Field, Grid, GroundState, SampledProfile, decompose, derivative, energy, inner,
    momentum,
)
from gbbmlab.dynamics import _A, Frame
from gbbmlab.functionals import _flow, _flow_symbol, _nonlinear, hessian_values
from gbbmlab.grid import _fd_derivative
from gbbmlab.modulation import VirialReport, _check_cutoff, _odd_cutoff, _residual
from gbbmlab.structure import _cubic_image, _gamma, _kappa

FD_LAMBDA_REL = 1e-5


@dataclass(frozen=True)
class FunctionalValue:
    E: float
    Q: float
    S_c: float


def action(u: Field, p: float, c: float) -> FunctionalValue:
    """E(u), Q(u) and the action S_c(u) = E(u) - c Q(u)."""
    E = energy(u, p)
    Q = momentum(u)
    return FunctionalValue(E, Q, E - c * Q)


def gradients(u: Field, p: float, c: float) -> tuple[Field, Field, Field]:
    """(E'(u), Q'(u), S_c'(u)) = (u + |u|^p u, u - u_xx, E' - c Q') as sampled
    fields: the reference for `hessian_apply` and for the flow."""
    v = u.values
    uxx = derivative(u, 2).values
    e_grad = v + _nonlinear(v, p)
    q_grad = v - uxx
    s_grad = e_grad - c * q_grad
    g = u.grid
    return Field(g, e_grad), Field(g, q_grad), Field(g, s_grad)


def evolution_rhs(u: Field, p: float, dealias: bool = True) -> Field:
    """u_t = -(1 - d_xx)^{-1} d_x (u + |u|^p u) on a periodic grid: `functionals._flow`,
    which keeps the bins below the 2/3 cutoff, or with dealias=False the full band."""
    v, g = u.values, u.grid
    if dealias:
        return Field(g, _flow(v, g, p))
    return Field(g, np.fft.irfft(_flow_symbol(g) * np.fft.rfft(v + _nonlinear(v, p)), n=g.points))


def linear_rhs(u: Field) -> Field:
    """Linearized flow u_t = -(1 - d_xx)^{-1} d_x u; mode k advects at 1/(1+k^2)."""
    g = u.grid
    return Field(g, np.fft.irfft(_flow_symbol(g) * np.fft.rfft(u.values), n=g.points))


def step(u: Field, dt: float, p: float) -> Field:
    """One uncontrolled 8th-order DOP853 step of the Hamiltonian flow in the
    textbook allocating form: each stage state v + dt (row @ K[:i]) and each
    stage's flow `_flow(state, grid, p)` new arrays. The reference for
    `dynamics._dop853`, which builds the same stages in place."""
    v, g = u.values, u.grid
    K = np.empty((len(_A) + 1, v.size))
    K[0] = _flow(v, g, p)
    for i, row in enumerate(_A, start=1):
        w = v + dt * (row @ K[:i])
        K[i] = _flow(w, g, p)
    if not np.all(np.isfinite(w)):
        raise BlowupError(float("nan"))
    return Field(g, w)


def float_power_nonlinearity(u: np.ndarray, p: float) -> np.ndarray:
    """|u|^p u as sign(u) |u|^(p+1), one float power: `functionals._nonlinear`'s
    path for non-integer p before it took |u|^p times u."""
    return np.sign(u) * np.abs(u) ** (p + 1.0)


def first_difference_4(v: np.ndarray, h: float) -> np.ndarray:
    """The 4th-order central first difference (1, -8, 0, 8, -1)/(12 h),
    2nd-order at the two nodes at each end: the first derivative of the
    uniform table grids before the 8th-order stencils of
    `grid._fd_derivative`."""
    out = np.empty_like(v)
    out[2:-2] = (v[:-4] - 8 * v[1:-3] + 8 * v[3:-1] - v[4:]) / (12 * h)
    out[0] = (-3 * v[0] + 4 * v[1] - v[2]) / (2 * h)
    out[1] = (v[2] - v[0]) / (2 * h)
    out[-2] = (v[-1] - v[-3]) / (2 * h)
    out[-1] = (3 * v[-1] - 4 * v[-2] + v[-3]) / (2 * h)
    return out


def second_difference_4(v: np.ndarray, h: float) -> np.ndarray:
    """The 4th-order central second difference (-1, 16, -30, 16, -1)/(12 h^2),
    2nd-order at the two nodes next to each end: the second derivative of the
    uniform table grids before the 8th-order stencils of
    `grid._fd_derivative`."""
    out = np.empty_like(v)
    out[2:-2] = (-v[:-4] + 16 * v[1:-3] - 30 * v[2:-2] + 16 * v[3:-1] - v[4:]) / (12 * h * h)
    out[0] = (2 * v[0] - 5 * v[1] + 4 * v[2] - v[3]) / (h * h)
    out[1] = (v[0] - 2 * v[1] + v[2]) / (h * h)
    out[-2] = (v[-3] - 2 * v[-2] + v[-1]) / (h * h)
    out[-1] = (2 * v[-1] - 5 * v[-2] + 4 * v[-3] - v[-4]) / (h * h)
    return out


def whole_difference_8(v: np.ndarray, h: float, order: int) -> np.ndarray:
    """Central differences of order 1 or 2 on every node of v: the 8th-order
    stencils of `grid._fd_derivative` at nodes 4..n-5, and those of
    first_difference_4 or second_difference_4, with their one-sided ends,
    at the four nodes at each end."""
    out = (first_difference_4 if order == 1 else second_difference_4)(v, h)
    out[4:-4] = _fd_derivative(v, h, order)
    return out


def table_points(p: float, c: float, L: float, kh: float = 0.1) -> int:
    """The uniform table grid's size on [-L, L]: the smallest power of two
    with k h <= kh for the sech-argument rate k, never below 16384."""
    k = 0.5 * p * math.sqrt((c - 1.0) / c)
    return max(16384, 1 << max(int(2.0 * L * k / kh - 1e-12), 1).bit_length())


def uniform_row(gs: GroundState, L: float, kh: float = 0.1):
    """(<kappa, Gamma> closed-form path, operator path, dual-path sup error, n)
    on the n + 1 nodes x_j = (j - n/2) h, j = 0..n, of [-L, L], both ends
    kept, n = table_points(p, c, L, kh): kappa in closed form against the
    Hessian of Gamma with whole_difference_8's Gamma_xx, paired by the
    trapezoid rule with the two end nodes halved. The table rows' path
    before they moved to the sinh-mapped half line. Its differences stay
    finite differences: where Gamma is not negligible at x = +-L (p = 4.1)
    the box's spectral derivative errs by 7.7e-4 in sup, these by 8.8e-11."""
    n = table_points(gs.p, gs.c, L, kh)
    h = 2.0 * L / n
    prof = SampledProfile(gs, (np.arange(n + 1) - n // 2) * h)
    gamma, kap = _gamma(prof), _kappa(prof)
    kop = hessian_values(gs, gamma, whole_difference_8(gamma, h, 2), prof.phi_p)
    sup = np.max(np.abs(kap - kop)) / np.max(np.abs(kap))

    def trapezoid(v):
        return float(h * (np.sum(v) - 0.5 * (v[0] + v[-1])))

    return trapezoid(kap * gamma), trapezoid(kop * gamma), float(sup), n


def fd_jacobian(u: np.ndarray, y: float, prof: SampledProfile):
    """d(F1, F2)/d(lam, y) of `modulation._residual` at (lam, y), whose bundle
    `prof` samples phi_lam at the offsets x - y, by slow paths: the reference
    for `modulation._fit_jacobian`. The lam-column is
    (F(lam + d) - F(lam - d)) / 2d (relative step FD_LAMBDA_REL), two more
    profile samplings. The y-column pairs the spectral derivative of u with
    both sampled directions, since d/dy <u - phi(. - y), f(. - y)> equals
    <u_x, f(. - y)> for a direction f."""
    p, lam, grid = prof.gs.p, prof.gs.c, prof.grid
    d = FD_LAMBDA_REL * lam
    plus, minus = (_residual(u, p, lam + s, y, grid)[0] for s in (d, -d))
    J11, J21 = (plus - minus) / (2.0 * d)
    du = derivative(Field(grid, u)).values
    return (J11, grid.h * (du @ prof.phi_x)), (J21, grid.h * (du @ prof.dc_phi))


def cutoff_profile(R: float, grid: Grid) -> Field:
    """Odd C^3 cutoff: identity on [-R, R], quintic-smoothstep ramp on [R, 2R],
    constant 3R/2 beyond; slope stays in [0, 1] everywhere. The virial frame
    applies the same `_odd_cutoff` to offsets from the soliton centre."""
    _check_cutoff(R, grid)
    return Field(grid, _odd_cutoff(grid.nodes, R))


@dataclass(frozen=True)
class ResidualRecord:
    t: float
    lam: float
    y: float
    xi_h1: float
    y_dot: float
    lam_dot: float
    ratio_y: float
    ratio_lam: float
    cor_rhs: float
    defect: float


def parameter_residuals(
    frames: Sequence[Frame], reports: Sequence[VirialReport], p: float,
) -> list[ResidualRecord]:
    """Finite-difference dynamics of (lam, y) with the translation-speed identity,
    from the frames of a run and the virial reports of those frames.

    The identity checked: y_dot - lam equals
    (1/B)<xi, hessian(d_x(x^3 phi_lam))> - (1/B) d/dt <xi, (1-d_xx)(x^3 phi_lam)>
    up to O(||xi||^2), each profile term at the offsets x - y. Per interior
    frame, the time derivative comes from the reports' cubic pairings, and
    the Hessian pairing from the frame's state decomposed again from its
    reported (lam, y), which converges there at once.
    """
    out = []
    for frame, prev, f, nxt in zip(frames[1:], reports, reports[1:], reports[2:]):
        dt2 = nxt.t - prev.t
        y_dot = (nxt.y - prev.y) / dt2
        lam_dot = (nxt.lam - prev.lam) / dt2
        dgdt = (nxt.cubic_pairing - prev.cubic_pairing) / dt2
        st = decompose(frame.state, p, (f.lam, f.y))
        image = inner(st.xi, Field(st.xi.grid, _cubic_image(st.profile)))
        rhs = (image - dgdt) / st.profile.gs.B
        xin = f.tube_distance
        out.append(
            ResidualRecord(
                f.t, f.lam, f.y, xin, y_dot, lam_dot,
                abs(y_dot - f.lam) / xin if xin > 0 else 0.0,
                abs(lam_dot) / xin if xin > 0 else 0.0,
                rhs, abs((y_dot - f.lam) - rhs),
            )
        )
    return out
