"""Structural directions Gamma_c and kappa_c and the negativity quadratic form.

With B(c) = 3/2 ||x phi||^2 + 9/2 ||x phi_x||^2 - 3 ||phi||^2 and
D(c) = -(4pc + 4c - 3p) / (2(p+4)) * ||phi||^2, the direction

    Gamma_c = B(c) [c^2 Psi_c + (c/2) x phi_x + c phi] + D(c) (3x^2 phi + x^3 phi_x)

has Hessian image kappa_c = hessian(Gamma_c) available in closed form:

    kappa_c = B [((p+1)c^2 - pc) phi + (1-p) c^2 phi_xx] + D hessian(d_x(x^3 phi)),
    hessian(d_x(x^3 phi)) = 6c phi + 18c x phi_x + (6c - 3pc) x^2 phi_xx + 3p(c-1) x^2 phi.

B and D are closed forms in (p, c) (GroundState.B and GroundState.D), so
Gamma_c and kappa_c are pointwise in x: each builder reads one SampledProfile
of phi_c, on a whole grid or on one window of its nodes.

The headline quantity is <kappa_c, Gamma_c> = <hessian(Gamma_c), Gamma_c> at the
critical speed, tabulated over p. Table rows are only accepted when the closed
form and a direct operator application of the Hessian agree to 1e-6 in relative
sup-norm and in the scalar; that forces a p-dependent resolution floor, since
the finite-difference second derivative carries an O((k h)^8) error with
k = p/2 sqrt((c-1)/c) the inner length scale of the profile (kh <= 0.1
keeps both below 1e-8 on the default rows). phi_c, Gamma_c,
kappa_c and the finite-difference image hessian(Gamma_c) are even, and a
Dirichlet grid with even N is mirror-symmetric bitwise (x_{N-j} = -x_j), so a
row streams only the half line x <= 0, nodes 0..N/2 of its grid (up to
2^18 + 1 nodes), in windows of at most WINDOW_NODES nodes, each sampled with
the HALO = 4 nodes on either side that the stencil reads, and pairs them with
the mirror weights; it never holds an array of full grid length.

A row also skips the windows its terms do not reach. With tau = sqrt((c-1)/c)
the profile's tail rate, sech(z) <= 2 e^{-z} gives the envelope
phi_c(x) <= 2^{2/p} A e^{-tau |x|}. Gamma_c, kappa_c and the finite-difference
image hessian(Gamma_c) are each phi_c times a polynomial of degree <= 3 in |x|
(tanh and sech^2 factors bounded by 1; since its weights c_j satisfy
sum c_j = sum j c_j = 0, the centred 8th-order second difference is at most
sum |c_j| j^2 / 2 = 93/35 of the largest second derivative under its stencil,
the 4th-order one next to the ends at most 5/3), and their products phi_c^2
times one of degree <= 6. On a grid of half-width L, every
node beyond the cut

    X(p, c, L) = (ROW_TAIL_DECADES ln 10 + 6 ln(1 + L)) / (2 tau)

has e^{-2 tau |x|} (1 + |x|)^6 <= 10^-ROW_TAIL_DECADES, so for a term
T = phi_c P(|x|) with M_T = sup |T(x)| / (phi_c(x) (1 + |x|)^3)

    |T(x)| <= 10^(-ROW_TAIL_DECADES/2) 2^{2/p} A M_T,  |x| >= X,

and a product T T' is at most 10^-ROW_TAIL_DECADES 4^{2/p} A^2 M_T M_T'.
The windows lying wholly at |x| > X are left out of the stream. At
ROW_TAIL_DECADES = 24 on L = 50 pi, with the 93/35 factor in M_T of the
finite-difference image, the bound summed over the left-out nodes puts
their products' share of a row's pairing below 1e-25 for p = 10..200 (the
constant bound times the whole left-out length, below 1e-18; their measured
sum, below 1e-29), under the 1.1e-16 that one rounding resolves, and the
row's sums equal the full stream's bitwise at p = 5, 30, 100 and 200. Rows
that decay slowly (p <= 6.5 there) skip nothing, and on the kh <= 0.1 grids
rows up to p = 20 fit one window.
"""
from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .grid import DIRICHLET, Field, Grid, GridError, _fd_derivative, inner, make_grid
from .ground_state import GroundState, SampledProfile, _momentum_slope_closed, critical_speed
from .functionals import hessian_values

DEFAULT_HALF_WIDTH = 50.0 * math.pi
DEFAULT_POINTS = 8192
TABLE_MIN_POINTS = 16384
TABLE_KH_LIMIT = 0.1
DUAL_PATH_TOL = 1e-6
# 2^15 nodes are 256 KB per array, so one window's arrays stay in a 2 MB L2
WINDOW_NODES = 1 << 15
# the 8th-order second difference reads four nodes on each side
HALO = 4
# a row leaves out the windows where its products fall below 10^-ROW_TAIL_DECADES
# (see the module docstring); math.inf streams the whole half line
ROW_TAIL_DECADES = 24


class DualPathError(RuntimeError):
    """Closed-form and operator-applied kappa disagree beyond tolerance."""


def coefficients(prof: SampledProfile) -> tuple[float, float]:
    """(B(c), D(c)) in closed form; they depend on (p, c) only, not on the sampling."""
    return prof.gs.B, prof.gs.D


def _gamma(prof: SampledProfile) -> np.ndarray:
    c, x = prof.gs.c, prof.x
    phi, dphi = prof.phi, prof.phi_x
    vals = prof.psi
    vals *= c * c
    vals += 0.5 * c * x * dphi
    vals += c * phi
    vals *= prof.gs.B
    vals += prof.gs.D * x * x * (3.0 * phi + x * dphi)
    return vals


def gamma_direction(prof: SampledProfile) -> Field:
    """Gamma_c = B [c^2 Psi_c + (c/2) x phi_x + c phi] + D (3x^2 phi + x^3 phi_x)."""
    return Field(prof.grid, _gamma(prof))


def _cubic_image(prof: SampledProfile) -> np.ndarray:
    """Hessian image of d_x(x^3 phi) = 3x^2 phi + x^3 phi_x, in closed form:
    6c phi + 18c x phi_x + (6c - 3pc) x^2 phi_xx + 3p(c-1) x^2 phi."""
    p, c, x = prof.gs.p, prof.gs.c, prof.x
    phi, ddphi = prof.phi, prof.phi_xx
    vals = 6.0 * c * phi
    vals += 18.0 * c * x * prof.phi_x
    vals += (6.0 * c - 3.0 * p * c) * x * x * ddphi
    vals += 3.0 * p * (c - 1.0) * x * x * phi
    return vals


def _kappa(prof: SampledProfile, image: np.ndarray | None = None) -> np.ndarray:
    # image, when given, is _cubic_image(prof) built by the caller; it is not changed
    p, c, B = prof.gs.p, prof.gs.c, prof.gs.B
    vals = _cubic_image(prof) if image is None else image.copy()
    vals *= prof.gs.D
    vals += B * ((p + 1.0) * c * c - p * c) * prof.phi
    vals += B * (1.0 - p) * c * c * prof.phi_xx
    return vals


def kappa_closed_form(prof: SampledProfile) -> Field:
    """kappa_c = B [((p+1)c^2 - pc) phi + (1-p) c^2 phi_xx] + D hessian(d_x(x^3 phi))."""
    return Field(prof.grid, _kappa(prof))


def table_points(p: float, c: float, L: float, n_request: int) -> int:
    """Resolution floor so quadrature and the FD Hessian both reach ~1e-8.

    Keeps k*h <= 0.1 for the sech-argument rate k, never below 16384.
    """
    k = 0.5 * p * math.sqrt((c - 1.0) / c)
    need = 2.0 * L * k / TABLE_KH_LIMIT
    n = max(int(n_request), TABLE_MIN_POINTS, 1 << max(int(need - 1e-12), 1).bit_length())
    return n


def node_windows(count: int) -> list[tuple[int, int]]:
    """Split nodes 0..count-1 into the fewest windows (lo, hi) of at most
    WINDOW_NODES nodes, with lengths differing by at most one."""
    m = -(-count // WINDOW_NODES)
    bounds = [count * i // m for i in range(m + 1)]
    return list(zip(bounds, bounds[1:]))


def row_cut(gs: GroundState, L: float) -> float:
    """X(p, c, L) = (ROW_TAIL_DECADES ln 10 + 6 ln(1 + L)) / (2 tau): on [-L, L],
    every |x| >= X has e^{-2 tau |x|} (1 + |x|)^6 <= 10^-ROW_TAIL_DECADES."""
    return (ROW_TAIL_DECADES * math.log(10.0) + 6.0 * math.log1p(L)) / (2.0 * gs.tail_rate)


def kept_windows(gs: GroundState, grid: Grid) -> list[tuple[int, int]]:
    """The windows of node_windows(N/2 + 1) a row streams: all but those whose
    nodes lie wholly at |x| > row_cut(gs, L). The one holding the centre node
    is always kept."""
    centre, cut = grid.node_count // 2, row_cut(gs, grid.half_width)
    # node j sits at |x| = (N/2 - j) h, so a window's node nearest the centre is hi - 1
    return [(lo, hi) for lo, hi in node_windows(centre + 1) if (centre - hi + 1) * grid.h <= cut]


def _row_windows(gs: GroundState, grid: Grid) -> Iterator[tuple]:
    """(lo, Gamma, kappa closed form, hessian(Gamma)) on the nodes lo.. of
    each kept window of the half line 0..N/2, as arrays the caller may overwrite.

    Each window is sampled once with a HALO-node margin clipped at the grid's
    ends, so every kept node's stencil reads the values it reads on the whole
    grid and one-sided stencils occur only at the grid's own ends; the last
    window's margin reads nodes N/2+1..N/2+4 past the centre.
    """
    count, h = grid.node_count, grid.h
    for lo, hi in kept_windows(gs, grid):
        a, b = max(lo - HALO, 0), min(hi + HALO, count)
        prof = gs.sample(grid, (a, b))
        gamma = _gamma(prof)
        kop = hessian_values(gs, gamma, _fd_derivative(gamma, h, 2), prof.phi_p)
        keep = slice(lo - a, hi - a)
        yield lo, gamma[keep], _kappa(prof)[keep], kop[keep]


def negativity_form(
    gs: GroundState,
    grid: Grid | None = None,
    L: float = DEFAULT_HALF_WIDTH,
    n_request: int = DEFAULT_POINTS,
) -> tuple[float, float, float]:
    """(<kappa, Gamma> closed-form path, operator path, dual-path sup error).

    The operator path applies the finite-difference Hessian to the sampled
    Gamma. Both paths are even, so the two trapezoid pairings and the two sup
    norms are reduced over the half line, nodes 0..N/2, window by window: each
    node's weight is doubled for its mirror image, except the centre node,
    which is its own mirror and counts once. No array spans the grid. Windows
    lying wholly beyond the cut X = (ROW_TAIL_DECADES ln 10 + 6 ln(1 + L)) /
    (2 tau) are skipped: there phi_c <= 2^{2/p} A e^{-tau |x|}, so each product
    term, phi_c^2 times a polynomial of degree <= 6 in |x|, is below
    10^-ROW_TAIL_DECADES 4^{2/p} A^2 times its polynomial's scale (module
    docstring), and the sums equal the full stream's. When no
    grid is given, a Dirichlet grid on [-L, L] with the table resolution floor
    is built; a Dirichlet grid with odd N has no centre node and is refused.
    """
    if grid is None:
        n = table_points(gs.p, gs.c, L, n_request)
        grid = make_grid(L, n, DIRICHLET)
    if grid.boundary != DIRICHLET:
        raise GridError("the negativity form needs a Dirichlet grid")
    if grid.points % 2:
        raise GridError(f"the negativity form needs an even number of points, got {grid.points}")
    half = grid.node_count // 2 + 1
    closed = operator = scale = diff = 0.0
    for lo, gamma, kap, kop in _row_windows(gs, grid):
        # half-line weights before the mirror factor 2: the end node and the
        # centre node, which is its own mirror, count half, every other node once
        if lo == 0:
            gamma[0] *= 0.5
        if lo + gamma.size == half:
            gamma[-1] *= 0.5
        closed += kap @ gamma
        operator += kop @ gamma
        scale = max(scale, float(np.max(np.abs(kap))))
        diff = max(diff, float(np.max(np.abs(kap - kop))))
    return float(2.0 * grid.h * closed), float(2.0 * grid.h * operator), diff / scale


@dataclass(frozen=True)
class TableRow:
    p: float
    c0: float
    form_value: float
    operator_value: float
    dual_sup_error: float
    points: int

    @property
    def negative(self) -> bool:
        return self.form_value < 0.0

    @property
    def dual_scalar_error(self) -> float:
        return abs(self.form_value - self.operator_value) / abs(self.form_value)


@dataclass(frozen=True)
class TableReport:
    rows: tuple

    def all_negative(self) -> bool:
        return all(r.negative for r in self.rows)

    def consistent(self) -> bool:
        return all(
            r.dual_sup_error <= DUAL_PATH_TOL and r.dual_scalar_error <= DUAL_PATH_TOL
            for r in self.rows
        )


def _table_row(p: float, L: float, n_request: int) -> TableRow:
    c0 = critical_speed(p)
    gs = GroundState(p, c0)
    n = table_points(p, c0, L, n_request)
    grid = make_grid(L, n, DIRICHLET)
    v_closed, v_operator, sup_err = negativity_form(gs, grid)
    return TableRow(p, c0, v_closed, v_operator, sup_err, n)


def negativity_table(
    p_list,
    L: float = DEFAULT_HALF_WIDTH,
    n_request: int = DEFAULT_POINTS,
) -> TableReport:
    """Tabulate <hessian(Gamma), Gamma> at c0(p) over p_list, in p_list order.

    A dual-path discrepancy above 1e-6 aborts the table.
    """
    p_list = list(p_list)
    if not p_list:
        raise ValueError("p_list must not be empty")
    for p in p_list:
        if not 4 < p < math.inf:
            raise ValueError(f"table entries require finite p > 4, got {p!r}")
    rows = tuple(_table_row(float(p), float(L), int(n_request)) for p in p_list)
    report = TableReport(rows)
    if not report.consistent():
        worst = max(rows, key=lambda r: max(r.dual_sup_error, r.dual_scalar_error))
        raise DualPathError(
            f"dual-path disagreement at p={worst.p}: sup {worst.dual_sup_error:.2e}, "
            f"scalar {worst.dual_scalar_error:.2e} (tol {DUAL_PATH_TOL:.0e})"
        )
    return report


def modulation_pairing(gs: GroundState, grid: Grid) -> tuple[float, float]:
    """(<d_c phi_c, kappa_c> by central differences in c (relative step 1e-5),
    closed form).

    The closed form is the exact identity c^2 B(c) dQ/dc(phi_c), with B and
    ||phi_c||^2 in closed form, so no quadrature enters it: the pairing
    is proportional to the momentum slope and therefore vanishes at the
    critical speed. Both values are returned so callers can see how far from
    degeneracy a given (p, c) sits.
    """
    p, c = gs.p, gs.c
    dc = 1e-5 * c
    phi_plus = GroundState(p, c + dc).profile(grid).values
    phi_minus = GroundState(p, c - dc).profile(grid).values
    dcphi = Field(grid, (phi_plus - phi_minus) / (2.0 * dc))
    fd_value = inner(dcphi, kappa_closed_form(gs.sample(grid)))
    return fd_value, c * c * gs.B * _momentum_slope_closed(p, c)
