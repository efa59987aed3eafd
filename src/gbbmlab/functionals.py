"""Conserved functionals E and Q, the action Hessian at phi_c and the flow field.

Conventions, fixed once for the whole package:

    E(u)   = 1/2 int u^2 + 1/(p+2) int |u|^{p+2}
    Q(u)   = 1/2 int (u^2 + u_x^2)
    S_c(u) = E(u) - c Q(u)

    E'(u)  = u + |u|^p u
    Q'(u)  = u - u_xx
    S_c'(u) = c u_xx + (1-c) u + |u|^p u

    hessian_apply(gs, f) = c f_xx + (1-c) f + (p+1) phi_c^p f

S_c and the gradients only fix the conventions here; the tests compute them
as reference paths for the Hessian and the flow.

The Hessian here is the literal second variation of S_c at phi_c; it equals
-c times the Weinstein operator handled in the spectral module. Quadratic
forms reported by the structure module use this literal convention.

The flow is the Hamiltonian form u_t = -(1 - d_xx)^{-1} d_x (u + |u|^p u),
evaluated under the 2/3 rule; `dynamics` steps it.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from .grid import Field, derivative, quadrature
from .ground_state import GroundState


def _nonlinear(u: np.ndarray, p: float, out: np.ndarray | None = None,
               sq: np.ndarray | None = None) -> np.ndarray:
    # |u|^p u, well-defined for sign-changing u and non-integer p; one power
    # and one product, within 2 ulp of sign(u) |u|^(p+1) and exactly 0 at u = 0.
    # out receives the result and sq, on the integer path, the running square;
    # each None allocates
    if not (p >= 0 and float(p).is_integer()):
        out = np.abs(u, out=out)
        out **= p
        out *= u
        return out
    # integer p >= 0: u |u|^(p mod 2) (u^2)^(p // 2) by squaring, in place; at
    # N = 8192 about 3x cheaper than the float power
    n = int(p)
    if n % 2:
        out = np.abs(u, out=out)
    elif out is None:
        out = np.ones_like(u)
    else:
        out.fill(1.0)
    out *= u
    sq, m = np.multiply(u, u, out=sq), n // 2
    while m:
        if m & 1:
            out *= sq
        m >>= 1
        if m:
            sq *= sq
    return out


def _energy_density(v: np.ndarray, p: float) -> np.ndarray:
    # |v|^(p+2) = v |v|^p v, so integer p takes _nonlinear's squaring path
    return 0.5 * v * v + v * _nonlinear(v, p) / (p + 2.0)


def energy(u: Field, p: float) -> float:
    return quadrature(Field(u.grid, _energy_density(u.values, p)))


def momentum(u: Field) -> float:
    ux = derivative(u, 1).values
    v = u.values
    return quadrature(Field(u.grid, 0.5 * (v * v + ux * ux)))


def hessian_values(gs: GroundState, f: np.ndarray, fxx: np.ndarray, pot: np.ndarray) -> np.ndarray:
    """c f_xx + (1-c) f + (p+1) phi^p f from f, f_xx and phi^p on the same nodes."""
    return gs.c * fxx + (1.0 - gs.c) * f + (gs.p + 1.0) * pot * f


def hessian_apply(gs: GroundState, f: Field) -> Field:
    """Action Hessian at the ground state applied to f (literal sign convention)."""
    fxx = derivative(f, 2).values
    pot = gs.sample(f.grid).phi_p
    return Field(f.grid, hessian_values(gs, f.values, fxx, pot))


@lru_cache(maxsize=8)
def _flow_symbol(grid) -> np.ndarray:
    k = grid.wavenumbers
    sym = -1j * k / (1.0 + k * k)
    sym[-1] = 0.0  # odd symbol: no Nyquist sine on the grid
    sym.flags.writeable = False  # shared by every flow on the grid
    return sym


def _flow(v: np.ndarray, grid, p: float, out: np.ndarray | None = None,
          work: tuple | None = None) -> np.ndarray:
    """-(1 - d_xx)^{-1} d_x (v + |v|^p v) on raw values, under the 2/3 rule.

    Only the bins below the cutoff are multiplied, in place, by the leading
    slice of the cached symbol: irfft zero-pads the rest, bitwise what a 0/1
    mask on every bin gives. out receives the flow; work = (w, sq, wh), two
    real arrays of v's length and a complex one of N/2 + 1 bins, holds the
    nonlinearity, its running square and the spectrum. None allocates them,
    so a caller that passes them allocates nothing here.
    """
    w, sq, wh = work or (None, None, None)
    w = _nonlinear(v, p, w, sq)
    w += v
    cut = grid.dealias_cut
    wh = np.fft.rfft(w, out=wh)
    wh[:cut] *= _flow_symbol(grid)[:cut]
    return np.fft.irfft(wh[:cut], n=grid.points, out=out)
