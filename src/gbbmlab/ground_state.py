"""Explicit gBBM solitary-wave profiles and their closed-form scalar identities.

The ground state of -c u'' + (c-1) u - u^{p+1} = 0 is

    phi_c(x) = A * sech^{2/p}(k x),   A = (0.5*(c-1)*(p+2))^{1/p},
                                      k = 0.5*p*sqrt((c-1)/c),

with first and second derivatives, the first and second c-derivatives and the
scaling direction Psi_c = c d_c phi_c - phi_c / p all available in closed form.
GroundState.sample(grid) returns a SampledProfile that derives every one of
them from a single log-sech and a single tanh of k|x|, on the nodes of a grid
or on any nodes it is handed. Everything is evaluated in log space so that large k*x
never overflows (sech powers become hard zeros through naive cosh far too early
otherwise). The coefficients B(c) and D(c) of the structural directions are
closed forms in ||phi_c||^2 and the trigamma function psi_1(2/p).

The critical speed c0(p) is the root of 8(p+2)c^2 - 8pc - p^2 = 0 at which
d/dc Q(phi_c) changes sign; the instability analysis lives there.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grid import Field, Grid, quadrature


def critical_speed(p: float) -> float:
    """Speed where d/dc Q(phi_c) vanishes: c0 = p/(4+2p) * (1 + sqrt(2 + p/2)).

    Only defined for p > 4; it is the positive root of
    8(p+2) c^2 - 8 p c - p^2 = 0.
    """
    if p <= 4:
        raise ValueError(f"critical speed requires p > 4, got p={p!r}")
    return p / (4.0 + 2.0 * p) * (1.0 + math.sqrt(2.0 + 0.5 * p))


def trigamma(z: float) -> float:
    """psi_1(z) = sum_{k>=0} 1/(z+k)^2 for z > 0 (DLMF 5.15.1).

    The recurrence psi_1(z) = psi_1(z+1) + 1/z^2 lifts z to at least 12, where
    the asymptotic series (DLMF 5.15.8) through the z^-11 term is exact to
    within a few units of round-off.
    """
    acc = 0.0
    while z < 12.0:
        acc += 1.0 / (z * z)
        z += 1.0
    w = 1.0 / (z * z)
    series = 1.0 / 6.0 + w * (-1.0 / 30.0 + w * (1.0 / 42.0 + w * (-1.0 / 30.0 + w * 5.0 / 66.0)))
    return acc + (1.0 + (0.5 + series / z) / z) / z


def _log_sech(z: np.ndarray) -> np.ndarray:
    az = np.abs(z)
    return math.log(2.0) - az - np.log1p(np.exp(-2.0 * az))


@dataclass(frozen=True)
class GroundState:
    """Frozen (p, c) parameter bundle with profile evaluators."""

    p: float
    c: float

    def __post_init__(self):
        if self.p <= 0:
            raise ValueError(f"p must be positive, got {self.p!r}")
        if self.c <= 1:
            raise ValueError(f"wave speed must exceed 1, got {self.c!r}")

    @property
    def omega(self) -> float:
        return self.c ** -0.5

    @property
    def amplitude(self) -> float:
        return (0.5 * (self.c - 1.0) * (self.p + 2.0)) ** (1.0 / self.p)

    @property
    def decay_rate(self) -> float:
        """Argument rate k of sech(kx); the profile tail decays like 2k/p."""
        return 0.5 * self.p * math.sqrt((self.c - 1.0) / self.c)

    @property
    def tail_rate(self) -> float:
        return math.sqrt((self.c - 1.0) / self.c)

    @cached_property
    def B(self) -> float:
        """B(c) = 3/2 ||x phi||^2 + 9/2 ||x phi_x||^2 - 3 ||phi||^2, in closed form.

        int s^2 sech^a(s) ds = psi_1(a/2)/2 int sech^a(s) ds (the second
        derivative at 0 of the Fourier transform of sech^a), so with a = 4/p
        ||x phi||^2 = 2c psi_1(2/p) / (p^2 (c-1)) ||phi||^2 and, through
        tanh^2 = 1 - sech^2, ||x phi_x||^2 = 2 (psi_1(2/p) + p) / (p (p+4)) ||phi||^2.
        """
        p, c = self.p, self.c
        t = trigamma(2.0 / p)
        bracket = 3.0 * c * t / (p * p * (c - 1.0)) + 9.0 * (t + p) / (p * (p + 4.0)) - 3.0
        return profile_norm_sq_closed(p, c) * bracket

    @cached_property
    def D(self) -> float:
        """D(c) = -(4pc + 4c - 3p) / (2(p+4)) ||phi||^2, in closed form."""
        p, c = self.p, self.c
        return -(4.0 * p * c + 4.0 * c - 3.0 * p) / (2.0 * (p + 4.0)) * profile_norm_sq_closed(p, c)

    def sample(self, grid: Grid) -> "SampledProfile":
        """The profile and its closed-form relatives on grid (tail must be resolved)."""
        grid.ensure_resolves(self.tail_rate)
        return SampledProfile(self, grid.nodes, grid)

    def profile(self, grid: Grid) -> Field:
        """Sampled phi_c; solves -c phi'' + (c-1) phi - phi^{p+1} = 0."""
        return Field(grid, self.sample(grid).phi)

    def profile_dx(self, grid: Grid) -> Field:
        return Field(grid, self.sample(grid).phi_x)

    def profile_dxx(self, grid: Grid) -> Field:
        return Field(grid, self.sample(grid).phi_xx)

    def profile_pow_p(self, grid: Grid) -> Field:
        return Field(grid, self.sample(grid).phi_p)

    def profile_dc(self, grid: Grid) -> Field:
        return Field(grid, self.sample(grid).dc_phi)

    def profile_dc_dx(self, grid: Grid) -> Field:
        return Field(grid, self.sample(grid).dc_phi_x)


@dataclass(frozen=True, eq=False)
class SampledProfile:
    """phi_c and its closed-form relatives at the points x, from one log-sech and
    one tanh; x may be the nodes of grid, if given, or their offsets x - y from a centre y.

    Arrays are evaluated in log space through |x| and sign(x), so large k|x|
    never underflows to a hard zero and sampled even/odd functions carry exact
    parity on symmetric nodes. Log sech, tanh, sech^2, phi, phi_x, phi_xx
    and phi^p are computed on first use and kept as long as the bundle lives
    (drop it to free them), and so are d_c phi and its factor g = d_c phi / phi,
    which a modulation Newton iterate reads five times; d_c phi_x, d_c^2 phi,
    Psi and the ground mode are rebuilt on each read, since every caller reads
    them once.
    """

    gs: GroundState
    x: np.ndarray
    grid: Grid | None = None

    @cached_property
    def _ls(self) -> np.ndarray:
        return _log_sech(self.gs.decay_rate * np.abs(self.x))

    @cached_property
    def _th(self) -> np.ndarray:
        return np.tanh(self.gs.decay_rate * np.abs(self.x))

    @cached_property
    def _sech2(self) -> np.ndarray:
        return np.exp(2.0 * self._ls)

    @property
    def _dc_slope(self) -> float:
        c = self.gs.c
        return 1.0 / (2.0 * c * math.sqrt(c * (c - 1.0)))

    @cached_property
    def phi(self) -> np.ndarray:
        """phi_c = A sech^{2/p}(kx) = A exp((2/p) log sech(kx))."""
        return self.gs.amplitude * np.exp((2.0 / self.gs.p) * self._ls)

    @cached_property
    def phi_x(self) -> np.ndarray:
        return -self.gs.tail_rate * self.phi * (np.sign(self.x) * self._th)

    @cached_property
    def phi_xx(self) -> np.ndarray:
        c = self.gs.c
        th2 = self._th ** 2
        return (c - 1.0) / c * self.phi * (th2 - 0.5 * self.gs.p * self._sech2)

    @cached_property
    def phi_p(self) -> np.ndarray:
        """phi_c^p exactly: A^p sech^2(kx) = 0.5*(c-1)*(p+2)*sech^2(kx)."""
        return 0.5 * (self.gs.c - 1.0) * (self.gs.p + 2.0) * self._sech2

    @cached_property
    def _dc_factor(self) -> np.ndarray:
        # d_c phi_c = phi_c * g with g = 1/(p(c-1)) - |x| tanh(k|x|) / (2c sqrt(c(c-1)))
        p, c = self.gs.p, self.gs.c
        return 1.0 / (p * (c - 1.0)) - self._dc_slope * np.abs(self.x) * self._th

    @cached_property
    def dc_phi(self) -> np.ndarray:
        return self.phi * self._dc_factor

    @property
    def dc_phi_x(self) -> np.ndarray:
        """d_x(d_c phi_c) = phi_x g + phi g_x, assembled from the closed forms."""
        x = self.x
        kx = self.gs.decay_rate * np.abs(x)
        gx = -self._dc_slope * np.sign(x) * (self._th + kx * self._sech2)
        return self.phi_x * self._dc_factor + self.phi * gx

    @property
    def dc2_phi(self) -> np.ndarray:
        """d_c^2 phi_c = phi_c (g^2 + d_c g), assembled from the closed forms: with
        s the slope of g and d_c k = k / (2c(c-1)),
        d_c g = -1/(p(c-1)^2) + s |x| ((4c-3) tanh(k|x|) - k|x| sech^2(k|x|)) / (2c(c-1))."""
        p, c = self.gs.p, self.gs.c
        ax = np.abs(self.x)
        g = self._dc_factor
        tilt = (4.0 * c - 3.0) * self._th - self.gs.decay_rate * ax * self._sech2
        dg = self._dc_slope / (2.0 * c * (c - 1.0)) * ax * tilt - 1.0 / (p * (c - 1.0) ** 2)
        return self.phi * (g * g + dg)

    @property
    def ground_mode(self) -> np.ndarray:
        """sech^{1+2/p}(kx), proportional to phi_c^{(p+2)/2}: the eigenfunction of
        the Weinstein operator's negative eigenvalue (spectral.bound_states),
        even to the bit on mirror-symmetric nodes."""
        return np.exp((1.0 + 2.0 / self.gs.p) * self._ls)

    @property
    def psi(self) -> np.ndarray:
        """Psi_c = c d_c phi_c - phi_c / p, the even pre-image of phi_c under the
        action Hessian: phi_c [1/(p(c-1)) - x tanh(kx) / (2 sqrt(c(c-1)))]."""
        vals = self.gs.c * self._dc_factor
        vals -= 1.0 / self.gs.p
        vals *= self.phi
        return vals


def normalized_profile_norm_sq(p: float) -> float:
    """||psi_0||^2 for -psi'' + psi - psi^{p+1} = 0, in closed form.

    psi_0(x) = (0.5*(p+2))^{1/p} sech^{2/p}(p x / 2), and
    int sech^{4/p}(s) ds = sqrt(pi) Gamma(2/p) / Gamma(2/p + 1/2).
    """
    a = 2.0 / p
    return (0.5 * (p + 2.0)) ** a * a * math.sqrt(math.pi) * math.gamma(a) / math.gamma(a + 0.5)


def profile_norm_sq_closed(p: float, lam: float) -> float:
    """||phi_lam||^2 = lam^(1/2) (lam-1)^(2/p - 1/2) ||psi_0||^2."""
    return lam ** 0.5 * (lam - 1.0) ** (2.0 / p - 0.5) * normalized_profile_norm_sq(p)


def _energy_closed(p: float, c: float) -> float:
    """E(phi_c) = (4c + p) / (2(p + 4)) ||phi_c||^2."""
    return (4.0 * c + p) / (2.0 * (p + 4.0)) * profile_norm_sq_closed(p, c)


def _momentum_closed(p: float, c: float) -> float:
    """Q(phi_c) = 1/2 (1 + p(c-1) / ((p+4)c)) ||phi_c||^2, since
    ||phi_c'||^2 = p(c-1) / ((p+4)c) ||phi_c||^2."""
    return 0.5 * (1.0 + p * (c - 1.0) / ((p + 4.0) * c)) * profile_norm_sq_closed(p, c)


def _momentum_slope_closed(p: float, c: float) -> float:
    """dQ/dc(phi_c) = (8(p+2)c^2 - 8pc - p^2) / (4p(p+4)c^2(c-1)) ||phi_c||^2,
    zero at the critical speed."""
    return (
        (8.0 * (p + 2.0) * c ** 2 - 8.0 * p * c - p ** 2)
        / (4.0 * p * (p + 4.0) * c ** 2 * (c - 1.0))
        * profile_norm_sq_closed(p, c)
    )


@dataclass(frozen=True)
class IdentityRecord:
    name: str
    closed_form: float
    quadrature: float
    reference_scale: float

    @property
    def rel_error(self) -> float:
        # both sides of the momentum-slope identity vanish at the critical
        # speed; the reference scale keeps 0-vs-0 from reading as disagreement
        scale = max(abs(self.closed_form), abs(self.quadrature), self.reference_scale)
        return abs(self.closed_form - self.quadrature) / scale


@dataclass(frozen=True)
class IdentityReport:
    records: tuple

    def __getitem__(self, name: str) -> IdentityRecord:
        for r in self.records:
            if r.name == name:
                return r
        raise KeyError(name)

    def max_rel_error(self) -> float:
        return max(r.rel_error for r in self.records)


def closed_form_identities(gs: GroundState, grid: Grid) -> IdentityReport:
    """Scalar identities of the explicit profile, each computed two ways.

    Closed forms are expressed through the closed-form ||phi_c||^2, so they do
    not depend on the grid; quadrature values integrate the sampled analytic
    profiles directly.
    """
    p, c = gs.p, gs.c
    prof = gs.sample(grid)
    phi, dphi, dcphi = prof.phi, prof.phi_x, prof.dc_phi

    def quad(v):
        return quadrature(Field(grid, v))

    n2 = quad(phi ** 2)
    dn2 = quad(dphi ** 2)
    lp = quad(np.abs(phi) ** (p + 2.0))
    phi_dcphi = quad(phi * dcphi)
    dc_n2 = 2.0 * phi_dcphi
    dc_q = phi_dcphi + quad(dphi * prof.dc_phi_x)
    e_quad = 0.5 * n2 + lp / (p + 2.0)
    q_quad = 0.5 * (n2 + dn2)

    n2c = profile_norm_sq_closed(p, c)
    records = (
        IdentityRecord("l2_norm_sq", n2c, n2, n2c),
        IdentityRecord("dx_norm_sq", p * (c - 1.0) / ((p + 4.0) * c) * n2c, dn2, n2c),
        IdentityRecord("lp_norm", 2.0 * (p + 2.0) * (c - 1.0) / (p + 4.0) * n2c, lp, n2c),
        IdentityRecord(
            "dc_l2_norm_sq", (4.0 * c - p) / (2.0 * p * c * (c - 1.0)) * n2c, dc_n2, n2c
        ),
        IdentityRecord("dc_momentum", _momentum_slope_closed(p, c), dc_q, n2c),
        IdentityRecord("energy", _energy_closed(p, c), e_quad, n2c),
        IdentityRecord("momentum", _momentum_closed(p, c), q_quad, n2c),
    )
    return IdentityReport(records)
