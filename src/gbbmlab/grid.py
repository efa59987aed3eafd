"""The uniform 1-D periodic grid, with quadrature, differentiation and the Helmholtz inverse.

Every command truncates the line to the box [-L, L) with nodes
x_j = (j - N/2) h, h = 2L/N, j = 0..N-1: x = -L is a node and x = L, its
periodic image, is not. Derivatives, (1 - d_xx)^{-1} and translations are
spectral, by the FFT (Trefethen, Spectral Methods in MATLAB, ch. 3).
Quadrature is the trapezoid rule on the periodic box, the plain sum times h,
which is spectrally accurate for the smooth, exponentially decaying
integrands this package deals in. _fd_derivative holds the centred
8th-order finite differences that the table rows take on their mapped nodes.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

# the default box, half-width L = 50 pi, and its node count, at which the
# reference values of table and identities were taken
DEFAULT_HALF_WIDTH = 50.0 * np.pi
DEFAULT_POINTS = 8192
# the largest tail exp(-decay_rate L) a grid of half-width L may cut off
RESOLVE_TOL = 1e-6


class GridError(ValueError):
    """Invalid grid construction or incompatible grid usage."""


@dataclass(frozen=True)
class Grid:
    half_width: float
    points: int

    @property
    def h(self) -> float:
        return 2.0 * self.half_width / self.points

    @cached_property
    def nodes(self) -> np.ndarray:
        # integer offsets times h: x_{-j} = -x_j bitwise, so sampled even/odd
        # functions carry exact parity
        return (np.arange(self.points) - self.points // 2) * self.h

    # read only by bench/child.py, whose trace of GroundState.profile records
    # them; nothing in the package branches on them
    @property
    def boundary(self) -> str:
        return "periodic"

    @property
    def node_count(self) -> int:
        return self.points

    @cached_property
    def wavenumbers(self) -> np.ndarray:
        # rfft bins; k_m = pi*m/L
        return 2.0 * np.pi * np.fft.rfftfreq(self.points, d=self.h)

    @cached_property
    def dealias_cut(self) -> int:
        # first rfft bin the 2/3 rule removes
        return int(np.floor(self.points / 2 * (2.0 / 3.0)))

    def ensure_resolves(self, decay_rate: float) -> None:
        """Refuse grids too narrow for a profile with tail ~ exp(-decay_rate*|x|):
        GridError when the tail at the box edge exceeds RESOLVE_TOL."""
        tail = np.exp(-decay_rate * self.half_width)
        if tail > RESOLVE_TOL:
            raise GridError(
                f"half_width {self.half_width:g} leaves tail {tail:.2e} > {RESOLVE_TOL:.1e} "
                f"for decay rate {decay_rate:g}"
            )


def make_grid(L: float, N: int) -> Grid:
    if L <= 0:
        raise GridError(f"half_width must be positive, got {L!r}")
    if N < 16 or N % 2 != 0:
        raise GridError(f"points must be even and >= 16, got {N!r}")
    return Grid(float(L), int(N))


@dataclass(frozen=True)
class Field:
    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.points,):
            raise GridError(
                f"field length {v.shape} does not match grid node count {self.grid.points}"
            )
        if not np.all(np.isfinite(v)):
            raise GridError("field values must be finite")
        object.__setattr__(self, "values", v)

    def _check_same_grid(self, other: "Field") -> None:
        if other.grid is not self.grid and other.grid != self.grid:
            raise GridError("fields live on different grids")


def quadrature(f: Field) -> float:
    """Trapezoid rule of f over the periodic box [-L, L)."""
    return float(f.grid.h * np.sum(f.values))


def inner(f: Field, g: Field) -> float:
    """L2 pairing <f, g> = integral of f*g."""
    f._check_same_grid(g)
    return quadrature(Field(f.grid, f.values * g.values))


def norm_l2(f: Field) -> float:
    return float(np.sqrt(inner(f, f)))


def norm_h1(f: Field) -> float:
    """sqrt(||f||^2 + ||f_x||^2), by Parseval."""
    return float(np.sqrt(_parseval_h1_sq(np.fft.rfft(f.values), f.grid)))


@lru_cache(maxsize=8)
def _h1_weights(g: Grid) -> np.ndarray:
    """(h/N)(1 + k^2) per rfft bin, doubled for the bins standing for +-k; the
    Nyquist bin carries no derivative. Shared, so read-only."""
    k = g.wavenumbers
    w = 2.0 * (1.0 + k * k)
    w[0] = 1.0
    w[-1] = 1.0
    w *= g.h / g.points
    w.flags.writeable = False
    return w


def _parseval_h1_sq(f_hat: np.ndarray, g: Grid) -> float:
    """||f||^2 + ||f_x||^2 from the rfft f_hat of f on g, by
    Parseval: the trapezoid of f^2 + (spectral f_x)^2 with no inverse transform."""
    return float(_h1_weights(g) @ (f_hat.real ** 2 + f_hat.imag ** 2))


# the centred 8th-order weights c_1..c_4 of each derivative order (Fornberg,
# Math. Comp. 51 (1988)): v'_i = sum_j c_j (v_{i+j} - v_{i-j}) / h and
# v''_i = sum_j c_j (v_{i+j} + v_{i-j} - 2 v_i) / h^2
CENTRED_8 = {
    1: (4.0 / 5.0, -1.0 / 5.0, 4.0 / 105.0, -1.0 / 280.0),
    2: (8.0 / 5.0, -1.0 / 5.0, 8.0 / 315.0, -1.0 / 560.0),
}


def _fd_derivative(v: np.ndarray, h: float, order: int) -> np.ndarray:
    """Centred 8th-order differences of order 1 or 2 at nodes 4..n-5 of v,
    n - 8 values: the caller supplies four ghost nodes at each end.

    The weights of CENTRED_8 are summed in pairs, (v_{i+j} - v_{i-j}) or
    (v_{i+j} + v_{i-j} - 2 v_i), so an even or odd v gives an odd or even
    result bitwise and the rounded second-order weights leave no bias of
    order eps v / h^2.
    """
    n = len(v)
    out, twice = np.zeros(n - 8), 2.0 * v[4:-4] if order == 2 else None
    for j, c in enumerate(CENTRED_8[order], 1):
        lo, hi = v[4 - j:n - 4 - j], v[4 + j:n - 4 + j]
        out += c * (hi - lo if order == 1 else lo + hi - twice)
    out /= h if order == 1 else h * h
    return out


@lru_cache(maxsize=8)
def _derivative_symbol(g: Grid, order: int) -> np.ndarray:
    """(ik)^order on the rfft bins of g; shared, so read-only."""
    sym = (1j * g.wavenumbers) ** order
    if order % 2 == 1:
        sym[-1] = 0.0  # the Nyquist sine is not representable
    sym.flags.writeable = False
    return sym


def derivative(f: Field, order: int = 1) -> Field:
    if order not in (1, 2):
        raise GridError(f"derivative order must be 1 or 2, got {order!r}")
    g = f.grid
    return Field(g, np.fft.irfft(_derivative_symbol(g, order) * np.fft.rfft(f.values), n=g.points))


def helmholtz_inverse(f: Field) -> Field:
    """g with g - g'' = f, via division by (1 + k^2) in transform space."""
    g = f.grid
    k = g.wavenumbers
    out = np.fft.irfft(np.fft.rfft(f.values) / (1.0 + k * k), n=g.points)
    return Field(g, out)


def translate(f: Field, y: float) -> Field:
    """f(. + y) by an FFT phase shift; y need not be a grid multiple."""
    g = f.grid
    k = g.wavenumbers
    shift = np.exp(1j * k * y)
    shift[-1] = np.cos(k[-1] * y)  # Nyquist carries only its cosine part
    out = np.fft.irfft(np.fft.rfft(f.values) * shift, n=g.points)
    return Field(g, out)
