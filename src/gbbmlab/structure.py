"""Structural directions Gamma_c and kappa_c and the negativity quadratic form.

With B(c) = 3/2 ||x phi||^2 + 9/2 ||x phi_x||^2 - 3 ||phi||^2 and
D(c) = -(4pc + 4c - 3p) / (2(p+4)) * ||phi||^2, the direction

    Gamma_c = B(c) [c^2 Psi_c + (c/2) x phi_x + c phi] + D(c) (3x^2 phi + x^3 phi_x)

has Hessian image kappa_c = hessian(Gamma_c) available in closed form:

    kappa_c = B [((p+1)c^2 - pc) phi + (1-p) c^2 phi_xx] + D hessian(d_x(x^3 phi)),
    hessian(d_x(x^3 phi)) = 6c phi + 18c x phi_x + (6c - 3pc) x^2 phi_xx + 3p(c-1) x^2 phi.

B and D are closed forms in (p, c) (GroundState.B and GroundState.D), so
Gamma_c and kappa_c are pointwise in x: each builder reads one SampledProfile
of phi_c, on a grid or on the nodes of a table row.

The headline quantity is <kappa_c, Gamma_c> = <hessian(Gamma_c), Gamma_c> at the
critical speed, tabulated over p. Table rows are only accepted when the closed
form and a direct operator application of the Hessian agree to 1e-6 in relative
sup-norm and in the scalar.

A row is sampled on a half line mapped to a uniform variable s,

    x = a sinh(s),   s = j ds,  j = 0..m,   m ds = asinh(x_max / a),

since its terms are even: phi_c is a sech power of rate k = p/2 sqrt((c-1)/c)
in a core of width 1/k, and decays at the slower rate tau = sqrt((c-1)/c) out
to x_max = min(X, L), the cut below or the box's half-width. The local step
h(x) = x'(s) ds = sqrt(a^2 + x^2) ds grows from a ds at the centre to
sqrt(a^2 + x_max^2) ds at x_max, and the two closed-form conditions
k h(0) = ROW_CORE_STEP and tau h(x_max) = ROW_TAIL_STEP fix

    a = r x_max / sqrt(k^2 - r^2),  r = tau ROW_CORE_STEP / ROW_TAIL_STEP,
    ds = ROW_CORE_STEP / (k a),

rounded down to the step that ends on x_max; a row with p up to 10^4 takes
fewer than 4500 intervals on its half line, where a uniform grid at
k h <= 0.1 took 2^24 on the whole box. The pairings are the trapezoid rule
in s, with weights x'(s) ds, the centre node counted once and the end node
at x_max halved; it is spectrally accurate for integrands analytic in a
strip (Trefethen and Weideman, SIAM Rev. 56 (2014), sections 4-5). The
operator path takes 8th-order finite differences in s and carries them to x
by the chain rule,

    Gamma_xx = (Gamma_ss - (x''/x') Gamma_s) / x'^2,   x''/x' = tanh(s),

with grid._fd_derivative's centred 8th-order stencils on every node of the
row. They read four ghost nodes on each side: the mirror Gamma(-s) = Gamma(s)
before s = 0, and Gamma itself at s = (m+1..m+4) ds past x_max, valid even
where x_max = L since Gamma is a closed form, so the error is O(ds^8) on
every node. On the default rows the dual-path errors stay below 1e-10 in
sup-norm and 1e-9 in the scalar, and the pairing stays within 6e-12 of a
uniform grid's at k h <= 0.1 on the whole box.

The cut. With the envelope phi_c(x) <= 2^{2/p} A e^{-tau |x|} (from
sech(z) <= 2 e^{-z}), Gamma_c and kappa_c = hessian(Gamma_c) are each phi_c
times a polynomial of degree <= 3 in |x| (tanh and sech^2 factors bounded
by 1), and their product phi_c^2 times one of degree <= 6. On a box of
half-width L every |x| beyond

    X(p, c, L) = (ROW_TAIL_DECADES ln 10 + 6 ln(1 + L)) / (2 tau)

has e^{-2 tau |x|} (1 + |x|)^6 <= 10^-ROW_TAIL_DECADES, so for a term
T = phi_c P(|x|) with M_T = sup |T(x)| / (phi_c(x) (1 + |x|)^3)

    |T(x)| <= 10^(-ROW_TAIL_DECADES/2) 2^{2/p} A M_T,  |x| >= X,

and a product T T' is at most 10^-ROW_TAIL_DECADES 4^{2/p} A^2 M_T M_T'. At
ROW_TAIL_DECADES = 24 that leaves every product beyond X far below the
1.1e-16 of a row that one rounding resolves; rows that decay slowly
(p <= 6.5 on L = 50 pi) run to L.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import Field, Grid, _fd_derivative, inner, make_grid
from .ground_state import GroundState, SampledProfile, _momentum_slope_closed, critical_speed
from .functionals import hessian_values

DUAL_PATH_TOL = 1e-6
# a row's local step h: k h at the centre and tau h at its far end (module docstring)
ROW_CORE_STEP = 0.03
ROW_TAIL_STEP = 0.1
# a row ends where its products fall below 10^-ROW_TAIL_DECADES
# (see the module docstring); math.inf runs every row to L
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


def _kappa(prof: SampledProfile) -> np.ndarray:
    p, c, B = prof.gs.p, prof.gs.c, prof.gs.B
    vals = _cubic_image(prof)
    vals *= prof.gs.D
    vals += B * ((p + 1.0) * c * c - p * c) * prof.phi
    vals += B * (1.0 - p) * c * c * prof.phi_xx
    return vals


def kappa_closed_form(prof: SampledProfile) -> Field:
    """kappa_c = B [((p+1)c^2 - pc) phi + (1-p) c^2 phi_xx] + D hessian(d_x(x^3 phi))."""
    return Field(prof.grid, _kappa(prof))


def row_cut(gs: GroundState, L: float) -> float:
    """X(p, c, L) = (ROW_TAIL_DECADES ln 10 + 6 ln(1 + L)) / (2 tau): on [-L, L],
    every |x| >= X has e^{-2 tau |x|} (1 + |x|)^6 <= 10^-ROW_TAIL_DECADES."""
    return (ROW_TAIL_DECADES * math.log(10.0) + 6.0 * math.log1p(L)) / (2.0 * gs.tail_rate)


def row_map(gs: GroundState, L: float, n_cap: int) -> tuple[float, float, int]:
    """(a, ds, m): a row samples x = a sinh(j ds), j = 0..m, out to
    x_max = min(row_cut(gs, L), L), with a and ds in closed form (module
    docstring). Its 2m intervals across [-x_max, x_max] are capped at n_cap,
    the node count of a grid on [-L, L), which must resolve phi_c's tail."""
    make_grid(L, n_cap).ensure_resolves(gs.tail_rate)
    k = gs.decay_rate
    x_max = min(row_cut(gs, L), L)
    r = gs.tail_rate * ROW_CORE_STEP / ROW_TAIL_STEP
    a = r * x_max / math.sqrt(k * k - r * r)
    s_max = math.asinh(x_max / a)
    m = min(math.ceil(s_max * k * a / ROW_CORE_STEP), n_cap // 2)
    return a, s_max / m, m


@dataclass(frozen=True)
class TableRow:
    """<kappa, Gamma> at (p, c0) two ways; points counts the row's intervals
    across [-x_max, x_max], twice its half line's."""

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


def negativity_form(gs: GroundState, L: float, n_request: int) -> TableRow:
    """<kappa, Gamma> on the row of row_map(gs, L, n_request): the closed-form
    path pairs kappa_closed_form with Gamma, the operator path applies the
    finite-difference Hessian to the sampled Gamma (module docstring), and
    dual_sup_error is their relative sup-norm distance on the row's nodes.

    Both paths are even, so each pairing is twice the half line's trapezoid
    sum in s, with the centre node, its own mirror, counted once.
    """
    a, ds, m = row_map(gs, L, n_request)
    # nodes m+1..m+4 are ghost nodes past x_max, which only the stencils read
    s = np.arange(m + 5) * ds
    prof = SampledProfile(gs, a * np.sinh(s))
    ghosted = _gamma(prof)
    ext = np.concatenate((ghosted[4:0:-1], ghosted))
    g_s, g_ss = (_fd_derivative(ext, ds, order) for order in (1, 2))
    s, gamma, kap = s[:m + 1], ghosted[:m + 1], _kappa(prof)[:m + 1]
    xp = a * np.cosh(s)
    kop = hessian_values(gs, gamma, (g_ss - np.tanh(s) * g_s) / (xp * xp), prof.phi_p[:m + 1])
    weights = xp * ds
    weights[[0, -1]] *= 0.5
    weights *= gamma
    sup = float(np.max(np.abs(kap - kop)) / np.max(np.abs(kap)))
    return TableRow(gs.p, gs.c, float(2.0 * (weights @ kap)), float(2.0 * (weights @ kop)),
                    sup, 2 * m)


def negativity_table(p_list, L: float, n_request: int) -> TableReport:
    """Tabulate <hessian(Gamma), Gamma> at c0(p) over p_list, in p_list order.

    A dual-path discrepancy above 1e-6 aborts the table.
    """
    p_list = list(p_list)
    if not p_list:
        raise ValueError("p_list must not be empty")
    for p in p_list:
        if not 4 < p < math.inf:
            raise ValueError(f"table entries require finite p > 4, got {p!r}")
    rows = tuple(negativity_form(GroundState(p, critical_speed(p)), float(L), int(n_request))
                 for p in map(float, p_list))
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
