"""Uniform 1-D spatial grids with quadrature, differentiation and the Helmholtz inverse.

Two boundary flavors are supported:

* ``periodic`` -- nodes x_j = -L + j*h, j = 0..N-1 (right endpoint omitted);
  derivatives and (1 - d_xx)^{-1} are computed spectrally via the FFT.
* ``dirichlet_truncated`` -- nodes x_j = -L + j*h, j = 0..N (both endpoints
  kept); first and second derivatives use central differences, 8th-order
  in the interior, 4th- and 2nd-order next to the ends and 2nd-order
  one-sided at them; there is no third derivative. Used for eigenproblems
  and the negativity table, where exponential decay justifies the
  truncation.

Quadrature is the composite trapezoid rule, which is spectrally accurate for
the smooth, exponentially decaying integrands this package deals in.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

PERIODIC = "periodic"
DIRICHLET = "dirichlet_truncated"
# the default box, half-width L = 50 pi, and the intervals of its Dirichlet
# grid, at which the reference values of the Dirichlet commands were taken
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
    boundary: str = PERIODIC

    @property
    def h(self) -> float:
        return 2.0 * self.half_width / self.points

    @cached_property
    def nodes(self) -> np.ndarray:
        # integer offsets times h: x_{-j} = -x_j bitwise, so sampled even/odd
        # functions carry exact parity
        N = self.points
        if self.boundary == PERIODIC:
            return (np.arange(N) - N // 2) * self.h
        return (np.arange(N + 1) - N // 2) * self.h

    @property
    def node_count(self) -> int:
        return self.points if self.boundary == PERIODIC else self.points + 1

    @cached_property
    def wavenumbers(self) -> np.ndarray:
        # rfft bins; k_m = pi*m/L
        if self.boundary != PERIODIC:
            raise GridError("wavenumbers are defined on periodic grids only")
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


def make_grid(L: float, N: int, boundary: str = PERIODIC) -> Grid:
    if L <= 0:
        raise GridError(f"half_width must be positive, got {L!r}")
    if N < 16 or N % 2 != 0:
        raise GridError(f"points must be even and >= 16, got {N!r}")
    if boundary not in (PERIODIC, DIRICHLET):
        raise GridError(f"unknown boundary flavor {boundary!r}")
    return Grid(float(L), int(N), boundary)


@dataclass(frozen=True)
class Field:
    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.node_count,):
            raise GridError(
                f"field length {v.shape} does not match grid node count "
                f"{self.grid.node_count}"
            )
        if not np.all(np.isfinite(v)):
            raise GridError("field values must be finite")
        object.__setattr__(self, "values", v)

    def _check_same_grid(self, other: "Field") -> None:
        if other.grid is not self.grid and other.grid != self.grid:
            raise GridError("fields live on different grids")


def quadrature(f: Field) -> float:
    """Composite trapezoid of f over [-L, L]."""
    v, h = f.values, f.grid.h
    if f.grid.boundary == PERIODIC:
        return float(h * np.sum(v))
    return float(h * (np.sum(v) - 0.5 * (v[0] + v[-1])))


def inner(f: Field, g: Field) -> float:
    """L2 pairing <f, g> = integral of f*g."""
    f._check_same_grid(g)
    return quadrature(Field(f.grid, f.values * g.values))


def norm_l2(f: Field) -> float:
    return float(np.sqrt(inner(f, f)))


def norm_h1(f: Field) -> float:
    """sqrt(||f||^2 + ||f_x||^2) on a periodic grid, by Parseval."""
    g = f.grid
    if g.boundary != PERIODIC:
        raise GridError("norm_h1 requires a periodic grid")
    return float(np.sqrt(_parseval_h1_sq(np.fft.rfft(f.values), g)))


@lru_cache(maxsize=8)
def _h1_weights(g: Grid) -> np.ndarray:
    """(h/N)(1 + k^2) per rfft bin, doubled for the bins standing for +-k; the
    Nyquist bin carries no derivative. Shared, so never written to."""
    k = g.wavenumbers
    w = 2.0 * (1.0 + k * k)
    w[0] = 1.0
    w[-1] = 1.0
    return w * (g.h / g.points)


def _parseval_h1_sq(f_hat: np.ndarray, g: Grid) -> float:
    """||f||^2 + ||f_x||^2 from the rfft f_hat of f on a periodic grid, by
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
    """Central differences of order 1 or 2, 2nd-order one-sided at the ends.

    Nodes 4..n-5 take the centred 8th-order stencil of CENTRED_8, summed in
    pairs, (v_{i+j} - v_{i-j}) or (v_{i+j} + v_{i-j} - 2 v_i), so an even or
    odd v gives an odd or even result bitwise and the rounded second-order
    weights leave no bias of order eps v / h^2. Nodes 2, 3, n-4 and n-3 take
    the centred 4th-order stencil, nodes 1 and n-2 the centred 2nd-order one.
    """
    if order not in CENTRED_8:
        raise GridError(f"derivative order must be 1 or 2, got {order!r}")
    n, out = len(v), np.empty_like(v)
    mid, twice = out[4:-4], 2.0 * v[4:-4] if order == 2 else None
    mid[:] = 0.0
    for j, c in enumerate(CENTRED_8[order], 1):
        lo, hi = v[4 - j:n - 4 - j], v[4 + j:n - 4 + j]
        mid += c * (hi - lo if order == 1 else lo + hi - twice)
    if order == 1:
        mid /= h
        for i in (2, 3, -4, -3):
            out[i] = (v[i - 2] - 8 * v[i - 1] + 8 * v[i + 1] - v[i + 2]) / (12 * h)
        out[0] = (-3 * v[0] + 4 * v[1] - v[2]) / (2 * h)
        out[1] = (v[2] - v[0]) / (2 * h)
        out[-2] = (v[-1] - v[-3]) / (2 * h)
        out[-1] = (3 * v[-1] - 4 * v[-2] + v[-3]) / (2 * h)
    else:
        mid /= h * h
        for i in (2, 3, -4, -3):
            out[i] = (-v[i - 2] + 16 * v[i - 1] - 30 * v[i] + 16 * v[i + 1] - v[i + 2]) / (12 * h * h)
        out[0] = (2 * v[0] - 5 * v[1] + 4 * v[2] - v[3]) / (h * h)
        out[1] = (v[0] - 2 * v[1] + v[2]) / (h * h)
        out[-2] = (v[-3] - 2 * v[-2] + v[-1]) / (h * h)
        out[-1] = (2 * v[-1] - 5 * v[-2] + 4 * v[-3] - v[-4]) / (h * h)
    return out


@lru_cache(maxsize=8)
def _derivative_symbol(g: Grid, order: int) -> np.ndarray:
    """(ik)^order on the rfft bins of a periodic grid; shared, so never written to."""
    sym = (1j * g.wavenumbers) ** order
    if order % 2 == 1:
        sym[-1] = 0.0  # the Nyquist sine is not representable
    return sym


def derivative(f: Field, order: int = 1) -> Field:
    if order not in CENTRED_8:
        raise GridError(f"derivative order must be 1 or 2, got {order!r}")
    g = f.grid
    if g.boundary == PERIODIC:
        out = np.fft.irfft(_derivative_symbol(g, order) * np.fft.rfft(f.values), n=g.points)
        return Field(g, out)
    return Field(g, _fd_derivative(f.values, g.h, order))


def helmholtz_inverse(f: Field) -> Field:
    """g with g - g'' = f, via division by (1 + k^2) in transform space."""
    g = f.grid
    if g.boundary != PERIODIC:
        raise GridError("helmholtz_inverse requires a periodic grid")
    k = g.wavenumbers
    out = np.fft.irfft(np.fft.rfft(f.values) / (1.0 + k * k), n=g.points)
    return Field(g, out)


def _shift_symbol(g: Grid, y: float) -> np.ndarray:
    """e^{iky} on the rfft bins of a periodic grid: multiplying a transform by it
    and inverting gives f(. + y)."""
    k = g.wavenumbers
    shift = np.exp(1j * k * y)
    shift[-1] = np.cos(k[-1] * y)  # Nyquist carries only its cosine part
    return shift


def translate(f: Field, y: float) -> Field:
    """f(. + y) on a periodic grid (FFT phase shift; y need not be a grid multiple)."""
    g = f.grid
    if g.boundary != PERIODIC:
        raise GridError("translate requires a periodic grid")
    out = np.fft.irfft(np.fft.rfft(f.values) * _shift_symbol(g, y), n=g.points)
    return Field(g, out)
