"""Uniform 1-D spatial grids with quadrature, differentiation and the Helmholtz inverse.

Two boundary flavors are supported:

* ``periodic`` -- nodes x_j = -L + j*h, j = 0..N-1 (right endpoint omitted);
  derivatives and (1 - d_xx)^{-1} are computed spectrally via the FFT.
* ``dirichlet_truncated`` -- nodes x_j = -L + j*h, j = 0..N (both endpoints
  kept); derivatives use central differences, 8th-order in the interior for
  the second derivative and 4th-order for the first and third, with
  one-sided stencils at the ends. Used for eigenproblems and the negativity
  table, where exponential decay justifies the truncation.

Quadrature is the composite trapezoid rule, which is spectrally accurate for
the smooth, exponentially decaying integrands this package deals in.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

PERIODIC = "periodic"
DIRICHLET = "dirichlet_truncated"


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

    def ensure_resolves(self, decay_rate: float, tol: float = 1e-6) -> None:
        """Refuse grids too narrow for a profile with tail ~ exp(-decay_rate*|x|)."""
        tail = np.exp(-decay_rate * self.half_width)
        if tail > tol:
            raise GridError(
                f"half_width {self.half_width:g} leaves tail {tail:.2e} > {tol:.1e} "
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

    def __neg__(self):
        return Field(self.grid, -self.values)


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
    g = f.grid
    if g.boundary == PERIODIC:
        return float(np.sqrt(_parseval_h1_sq(np.fft.rfft(f.values), g)))
    df = derivative(f, 1)
    return float(np.sqrt(inner(f, f) + inner(df, df)))


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


def _fd_derivative(v: np.ndarray, h: float, order: int) -> np.ndarray:
    """Central differences, 2nd-order one-sided at the ends.

    Orders 1 and 3 are 4th-order in the interior. Order 2 is the centred
    8th-order stencil (-1/560, 8/315, -1/5, 8/5, -205/72, 8/5, ...)/h^2 on
    nodes 4..n-5 and the 4th-order one on nodes 2, 3, n-4 and n-3. The
    8th-order stencil is summed as sum_j c_j (v_{i+j} + v_{i-j} - 2 v_i), so
    the rounded weights c_j = 8/5, -1/5, 8/315, -1/560 leave no bias of order
    eps v / h^2, and an even v gives an even result bitwise.
    """
    out = np.empty_like(v)
    if order == 1:
        out[2:-2] = (v[:-4] - 8 * v[1:-3] + 8 * v[3:-1] - v[4:]) / (12 * h)
        out[0] = (-3 * v[0] + 4 * v[1] - v[2]) / (2 * h)
        out[1] = (v[2] - v[0]) / (2 * h)
        out[-2] = (v[-1] - v[-3]) / (2 * h)
        out[-1] = (3 * v[-1] - 4 * v[-2] + v[-3]) / (2 * h)
    elif order == 2:
        n, mid, twice = len(v), out[4:-4], 2.0 * v[4:-4]
        mid[:] = 0.0
        for j, c in ((1, 8.0 / 5.0), (2, -1.0 / 5.0), (3, 8.0 / 315.0), (4, -1.0 / 560.0)):
            pair = v[4 - j:n - 4 - j] + v[4 + j:n - 4 + j]
            pair -= twice
            mid += c * pair
        mid /= h * h
        for i in (2, 3, -4, -3):
            out[i] = (-v[i - 2] + 16 * v[i - 1] - 30 * v[i] + 16 * v[i + 1] - v[i + 2]) / (12 * h * h)
        out[0] = (2 * v[0] - 5 * v[1] + 4 * v[2] - v[3]) / (h * h)
        out[1] = (v[0] - 2 * v[1] + v[2]) / (h * h)
        out[-2] = (v[-3] - 2 * v[-2] + v[-1]) / (h * h)
        out[-1] = (2 * v[-1] - 5 * v[-2] + 4 * v[-3] - v[-4]) / (h * h)
    elif order == 3:
        out[3:-3] = (v[:-6] - 8 * v[1:-5] + 13 * v[2:-4]
                     - 13 * v[4:-2] + 8 * v[5:-1] - v[6:]) / (8 * h ** 3)
        # 1st-order one-sided stencils at the six edge points
        for i in (0, 1, 2):
            out[i] = (-v[i] + 3 * v[i + 1] - 3 * v[i + 2] + v[i + 3]) / h ** 3
        for i in (-3, -2, -1):
            out[i] = (v[i] - 3 * v[i - 1] + 3 * v[i - 2] - v[i - 3]) / h ** 3
    else:
        raise GridError(f"derivative order must be 1, 2 or 3, got {order!r}")
    return out


@lru_cache(maxsize=8)
def _derivative_symbol(g: Grid, order: int) -> np.ndarray:
    """(ik)^order on the rfft bins of a periodic grid; shared, so never written to."""
    sym = (1j * g.wavenumbers) ** order
    if order % 2 == 1:
        sym[-1] = 0.0  # the Nyquist sine is not representable
    return sym


def derivative(f: Field, order: int = 1) -> Field:
    if order not in (1, 2, 3):
        raise GridError(f"derivative order must be 1, 2 or 3, got {order!r}")
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
