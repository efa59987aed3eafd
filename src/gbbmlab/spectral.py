"""Discretized eigen-analysis of the linearization around the ground state.

Everything here works with the Weinstein-sign operator

    L f = -f_xx + (1 - omega^2) f - (p+1) psi_omega^p f,
    psi_omega^p = phi_c^p / c,

which is bounded below, has exactly one negative eigenvalue, a kernel spanned
by the translation mode phi_c', and essential spectrum starting at
(c-1)/c. The literal action Hessian of the functionals module is -c times
this operator; results are reported in the Weinstein sign so that eigenvalue
counts are meaningful, and callers translate when they need the literal form.

Discretization: second-order central differences on the N - 1 nodes
nodes[1:] of the grid, truncated at its node x = -L (which the periodic grid
identifies with L) with a Dirichlet condition there, on one sampling of
phi_c per grid (a SampledProfile). The matrix T is symmetric tridiagonal and
is only ever used in banded form, and every solve with T - mu (the inverse
pairing, the constrained minimum, inverse iteration) is one LAPACK gtsv call
on (off, diag - mu, off). No dense n x n matrix is formed, so the cost is
linear in the grid size.

Reflection symmetry: the nodes nodes[1:] are mirror-symmetric bitwise and
phi_c is even, so T commutes with x -> -x. With n = N - 1 nodes (n odd) and
c = n // 2 the centre index, T is the direct sum of an even half T+ on the
basis e_c, (e_{c+j} + e_{c-j})/sqrt 2 (diag[c:], off[c:] with its first
entry times sqrt 2; n // 2 + 1 unknowns) and an odd half T- on the basis
(e_{c+j} - e_{c-j})/sqrt 2 (diag[c+1:], off[c+1:]; n // 2 unknowns). T is
an irreducible Jacobi matrix (every off-diagonal is -1/h^2), so its
eigenvalues are simple and the j-th eigenvector (0-based, ascending) has j
sign changes (Gantmacher & Krein, Oscillation Matrices and Kernels, ch. 2);
a mirror-symmetric matrix's eigenvector of a simple eigenvalue is even or
odd (Cantoni & Butler, Linear Algebra Appl. 13, 1976), so its parity is
(-1)^j. The eigenvalues of T therefore alternate between the halves, from
the even one: the m lowest are the ceil(m/2) lowest of T+ and the
floor(m/2) lowest of T-, interleaved. The ground state is even and the
kernel mode phi_c' odd. Bisection costs time in proportion to the matrix
size, so every eigen-computation runs on the half it belongs to: the
index-range eigensolves, every inverse iteration and the constrained
minimum's secular search: its constraints kappa_c and phi_c' are even and
odd to the bit on these nodes, so each half carries one of them, and the
minimum on the complement of both is the lower of the halves' minima, each
a root of one scalar secular function (constrained_form_minimum).

Bound states in closed form: (p+1) phi_c^p / c = nu (nu+1) k^2 sech^2(kx),
k = gs.decay_rate, nu = 1 + 2/p, so L = -d_xx + r^2 - nu (nu+1) k^2
sech^2(kx), r^2 = (c-1)/c, is a Pöschl-Teller well with bound states at
r^2 - k^2 (nu - j)^2 for integers 0 <= j < nu (Pöschl & Teller, Z. Phys. 83,
1933). As 1 < nu < 2 for p > 2, there are two (bound_states): lambda_0 =
-(c-1) p (p+4) / (4c), with eigenfunction sech^{1+2/p}(kx), and 0, with
phi_c'. The constrained minimum refines both on every grid (inverse
iteration on T+ from the ground mode, on T- from phi_c') and, once they are
certified below r^2, takes its brackets from them and r^2 (T's third
eigenvalue, T+'s second, is a box mode above r^2). Index-range eigensolves
give the brackets instead when the certificate fails and when the even half
has no constrained eigenvalue below r^2, which makes its minimum a box mode.
The even half's secular search starts at the midpoint of its bracket.

A discretization footnote that matters: the discrete image of the kernel mode
sits O(h^2) below zero (Dirichlet truncation pushes it negative), so a raw
count of negative matrix eigenvalues is one too high at every practical
resolution. SpectrumReport therefore identifies the kernel candidate (the
eigenvalue nearest zero) and excludes it from negative_count.
"""
from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import find_spec, module_from_spec

import numpy as np
# qr and eigh are not called here: they stay bound, to numpy's, only because
# bench/child.py's trace wraps them by name (its spectral.qr_s and
# spectral.eigh_s metrics)
from numpy.linalg import eigh, qr

from .grid import Field, Grid, inner
from .ground_state import GroundState, SampledProfile, normalized_profile_norm_sq
from .functionals import hessian_apply
from .structure import kappa_closed_form


class EigenSolveError(RuntimeError):
    """Eigen-solver did not converge; never returns silent garbage."""


def _load_flapack():
    """scipy's compiled LAPACK extension, scipy.linalg._flapack, loaded from
    the scipy package's directory without running the package __init__ of
    scipy or scipy.linalg (which imports far more than these two routines
    need). It is entered in sys.modules under its own name, so a later
    import of scipy.linalg takes this very module: dgtsv and dstebz are the
    objects that scipy.linalg.lapack exports, in either import order."""
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    scipy = find_spec("scipy")
    if scipy is None:
        raise ImportError(f"{name} is needed, and scipy is not installed", name=name)
    where = os.path.join(scipy.submodule_search_locations[0], "linalg")
    spec = FileFinder(where, (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(name)
    if spec is None:
        raise ImportError(f"no {os.path.join(where, '_flapack')} with a suffix in "
                          f"{EXTENSION_SUFFIXES}", name=name)
    module = sys.modules[name] = module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


dgtsv, dstebz = (getattr(_load_flapack(), n) for n in ("dgtsv", "dstebz"))


_SECULAR_MAX_PROBES = 100  # bisection alone reaches 2 tol in at most about 50
# inverse iteration from a closed-form bound state reaches tol in 2-3 solves
_INVERSE_MAX_SOLVES = 4
_SQRT2 = np.sqrt(2.0)
# the spectrum reported: the ground state, the kernel and four box modes
_EIGENPAIRS = 6


def discretize_weinstein(prof: SampledProfile) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric tridiagonal (diagonal, off-diagonal) on the nodes nodes[1:] of
    the bundle's grid (module docstring), from its phi_c^p."""
    gs, h = prof.gs, prof.grid.h
    pot_profile = prof.phi_p[1:] / gs.c
    diag = 2.0 / h ** 2 + (1.0 - gs.omega ** 2) - (gs.p + 1.0) * pot_profile
    off = np.full(diag.size - 1, -1.0 / h ** 2)
    return diag, off


def _shifted_solve(diag: np.ndarray, off: np.ndarray, shift: float, rhs) -> np.ndarray:
    """(T - shift)^{-1} rhs by LAPACK gtsv, T the tridiagonal (diag, off); the
    solution of solve_banded on the same band, bitwise, without its band
    assembly and input checks."""
    *_, x, info = dgtsv(off, diag - shift, off, rhs, overwrite_d=1)
    if info != 0:
        raise EigenSolveError(f"singular banded solve at shift {shift!r} (gtsv info {info})")
    return x


def _resolution(diag: np.ndarray) -> float:
    """tol = 8 eps max|diag|: how finely T - mu resolves mu, and the residual
    that inverse iteration stops at."""
    return 8.0 * float(np.finfo(float).eps) * float(np.max(np.abs(diag)))


def _inverse_iteration(diag, off, x, shift, tol) -> tuple[float, float, np.ndarray]:
    """(theta, residual, x): inverse iteration on T from x, first at shift and
    then at the Rayleigh quotient theta less tol, until the unit iterate has
    ||T x - theta x|| <= tol or _INVERSE_MAX_SOLVES solves are spent (the
    residual is then above tol, or nan). Once theta has converged, T - theta
    is singular to working precision and a solve there leaves its rounding
    in the iterate (residuals of 1.4 tol were seen); tol away they stay near
    0.1 tol (Parlett, The Symmetric Eigenvalue Problem, ch. 4). An iterate
    of zero or non-finite norm, as from a start that underflows to zero on
    every node, raises EigenSolveError."""
    for _ in range(_INVERSE_MAX_SOLVES):
        x = _shifted_solve(diag, off, shift, x)
        norm = float(np.linalg.norm(x))
        if not 0.0 < norm < math.inf:
            raise EigenSolveError(f"inverse iteration at shift {shift!r} reached an "
                                  f"iterate of norm {norm!r}")
        x = x / norm
        tx = diag * x
        tx[:-1] += off * x[1:]
        tx[1:] += off * x[:-1]
        theta = float(x @ tx)
        residual = float(np.linalg.norm(tx - theta * x))
        if residual <= tol:
            break
        shift = theta - tol
    return theta, residual, x


class _Reflection:
    """T's even and odd halves (module docstring), halves[0] and halves[1],
    each a (diag, off) pair, and the orthogonal map from vectors on the
    nodes nodes[1:] to their coordinates in the halves' bases."""

    def __init__(self, diag: np.ndarray, off: np.ndarray):
        if not (np.array_equal(diag, diag[::-1]) and np.array_equal(off, off[::-1])
                and diag.size % 2):
            raise ValueError("T is not mirror-symmetric on an odd number of nodes, "
                             "so it has no even and odd halves")
        c = self.c = diag.size // 2
        even_off = off[c:].copy()
        even_off[0] *= _SQRT2
        self.halves = ((diag[c:], even_off), (diag[c + 1:], off[c + 1:]))

    def fold(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """x's coordinates (x+, x-) in the even and odd bases."""
        c = self.c
        right, left = x[c + 1:], x[c - 1::-1]
        return np.concatenate([x[c:c + 1], (right + left) / _SQRT2]), (right - left) / _SQRT2


def eigh_tridiagonal(d, e, select, select_range, tol=0.0) -> np.ndarray:
    """The eigenvalues, ascending, of the symmetric tridiagonal (d, e) in
    (vl, vu] = select_range for select "v", or of 0-based indices
    il..iu = select_range for select "i", by one LAPACK stebz call: the
    values of scipy.linalg.eigh_tridiagonal(d, e, eigvals_only=True) with the
    same arguments, bitwise, including its quick exit for a 1 x 1 matrix, and
    its ValueError on non-finite input."""
    d, e = np.asarray_chkfinite(d), np.asarray_chkfinite(e)
    by_index = select == "i"
    vl, vu = (0.0, 1.0) if by_index else select_range
    il, iu = (select_range[0] + 1, select_range[1] + 1) if by_index else (1, 1)
    if d.size == 1:
        return d.copy() if by_index or vl < d[0] <= vu else np.empty(0)
    m, w, *_, info = dstebz(d, e, 2 if by_index else 1, vl, vu, il, iu, tol, "E")
    if info != 0:
        raise np.linalg.LinAlgError(f"stebz (eigh_tridiagonal) failed with info {info}")
    return w[:m]


def _count_up_to(diag, off, top: float) -> int:
    """The number of T's eigenvalues up to top, by one Sturm count: a value-range stebz from
    the Gershgorin lower bound whose tolerance is the range's width counts at
    both ends and stops without bisecting."""
    lower = float(np.min(diag - np.abs(np.r_[0.0, off]) - np.abs(np.r_[off, 0.0])))
    return eigh_tridiagonal(diag, off, select="v", select_range=(lower, top),
                            tol=top - lower).size


def _lowest(refl: _Reflection, m: int) -> np.ndarray:
    """T's m lowest eigenvalues, ascending, from index-range eigensolves on
    its halves: by the alternation (module docstring), w[0::2] are the
    ceil(m/2) lowest of T+ and w[1::2] the floor(m/2) lowest of T-. Values
    that are not finite and strictly increasing, which the alternation
    rules out, raise EigenSolveError."""
    n = 2 * refl.c + 1
    if m > n:
        raise ValueError(f"need at most {n} eigenpairs on this grid, got m={m!r}")
    w = np.empty(m)
    for parity, (d, o) in enumerate(refl.halves):
        count = (m + 1 - parity) // 2
        if not count:
            continue
        try:
            w[parity::2] = eigh_tridiagonal(d, o, select="i", select_range=(0, count - 1))
        except np.linalg.LinAlgError as exc:  # pragma: no cover
            raise EigenSolveError(f"tridiagonal eigensolve failed: {exc}") from exc
    if not (np.all(np.isfinite(w)) and np.all(w[1:] > w[:-1])):
        raise EigenSolveError(f"the halves' eigenvalues do not interleave: {w!r}")
    return w


@dataclass(frozen=True)
class SpectrumReport:
    eigenvalues: np.ndarray
    negative_count: int
    kernel_eigenvalue: float
    kernel_overlap: float


def eigenpairs(gs: GroundState, grid: Grid) -> SpectrumReport:
    """The Weinstein operator's _EIGENPAIRS lowest eigenvalues, with kernel
    bookkeeping.

    The eigenvalues come from index-range tridiagonal eigensolves on T's even
    and odd halves, values only (_lowest). negative_count excludes the kernel
    candidate (eigenvalue nearest zero), whose discrete image sits O(h^2)
    below zero. Its index gives its parity (module docstring). An even
    candidate has kernel_overlap 0, as an even vector is orthogonal to the
    odd phi_c'. An odd one's eigenvector comes from inverse iteration on T-,
    from the fold of phi_c' (the closed-form kernel eigenfunction, from the
    same sampling of phi_c as T), at the candidate less tol (so the solve is
    never exactly singular), until the residual is at most tol = 8 eps
    max|diag|; kernel_overlap is its normalized projection onto phi_c', read
    in T-'s coordinates, since the fold is orthogonal.
    """
    prof = gs.sample(grid)
    diag, off = discretize_weinstein(prof)
    refl = _Reflection(diag, off)
    tol = _resolution(diag)
    w = _lowest(refl, _EIGENPAIRS)

    kernel_idx = int(np.argmin(np.abs(w)))
    overlap = 0.0
    if kernel_idx % 2:
        dphi = refl.fold(prof.phi_x[1:])[1]
        _, residual, u = _inverse_iteration(*refl.halves[1], dphi, w[kernel_idx] - tol, tol)
        if not residual <= tol:
            raise EigenSolveError(f"kernel eigenvector residual {residual!r} above {tol!r} "
                                  f"after {_INVERSE_MAX_SOLVES} inverse-iteration solves")
        overlap = abs(float(u @ dphi)) / float(np.linalg.norm(dphi))
    neg = int(np.sum((w < 0.0) & (np.arange(w.size) != kernel_idx)))
    return SpectrumReport(w, neg, float(w[kernel_idx]), overlap)


def essential_spectrum_edge(gs: GroundState) -> float:
    return (gs.c - 1.0) / gs.c


@dataclass(frozen=True)
class BoundStates:
    """The Weinstein operator's eigenvalues below the edge of its essential
    spectrum, ground = edge - k^2 nu^2 and kernel = 0, and its Pöschl-Teller nu."""
    ground: float
    kernel: float
    nu: float
    edge: float


def bound_states(gs: GroundState) -> BoundStates:
    """In closed form (module docstring): ground = -(c-1) p (p+4) / (4c), with
    eigenfunction SampledProfile.ground_mode, kernel = 0, with eigenfunction
    phi_c', nu = 1 + 2/p and edge = (c-1)/c."""
    p, c = gs.p, gs.c
    return BoundStates(-(c - 1.0) * p * (p + 4.0) / (4.0 * c), 0.0, 1.0 + 2.0 / p,
                       essential_spectrum_edge(gs))


def _certified_bound_states(diag, off, refl: _Reflection, prof: SampledProfile,
                            tol) -> np.ndarray | None:
    """[theta_0, theta_1, r^2]: T's two eigenvalues below r^2, by inverse
    iteration on T+ from the ground mode at the closed-form ground value and
    on T- from phi_c' at 0, then the edge; None when they are not certified.
    They are when both residuals are at most tol, the intervals
    theta +- (residual + tol) are disjoint and below r^2 (tol covers the
    rounding of the computed residual), so each holds its own eigenvalue of
    T, and one Sturm count on T finds exactly two eigenvalues up to r^2, so
    they are the lowest and T's third lies above r^2."""
    bound = bound_states(prof.gs)
    starts = (refl.fold(prof.ground_mode[1:])[0], refl.fold(prof.phi_x[1:])[1])
    theta, residual = [], []
    for (d, o), start, value in zip(refl.halves, starts, (bound.ground, bound.kernel)):
        try:
            t, r, _ = _inverse_iteration(d, o, start, value, tol)
        except EigenSolveError:  # a singular solve or a start that vanishes
            return None
        theta.append(t)
        residual.append(r)
    (a, b), (ra, rb) = theta, [r + tol for r in residual]
    if (all(r <= tol for r in residual) and a + ra < b - rb and b + rb < bound.edge
            and _count_up_to(diag, off, bound.edge) == 2):
        return np.array([a, b, bound.edge])
    return None


@dataclass(frozen=True)
class CoercivityReport:
    constrained_min: float
    raw_min: float
    kh: float  # k h of the grid, k = gs.decay_rate

    @property
    def resolved(self) -> bool:
        """Whether the grid resolves phi_c: k h <= 1 (N = 16, 32 at p = 5 on
        L = 50 pi do not)."""
        return self.kh <= 1.0


def _secular(d, o, q, mu) -> tuple[float, float]:
    """(s(mu), -s(mu)/s'(mu)): the secular function s(mu) = q^T y,
    y = (T_h - mu)^{-1} q, of the half T_h = (d, o) and the unit constraint q,
    and its Newton step, with s'(mu) = ||y||^2 from the same solve.
    Non-finite values raise EigenSolveError."""
    y = _shifted_solve(d, o, mu, q)
    s = float(q @ y)
    step = -s / float(y @ y)
    if not (math.isfinite(s) and math.isfinite(step)):
        raise EigenSolveError(f"non-finite secular function at shift {mu!r}")
    return s, step


def _secular_root(d, o, q, lo, hi, tol, mu=math.nan) -> float:
    """The minimum of the half T_h = (d, o) on the complement of the unit
    vector q, on the bracket [lo, hi]: lo is T_h's lowest eigenvalue and no
    other lies below hi.

    Below mu the constrained eigenvalues number n_-(T_h - mu) + [s(mu) > 0] - 1
    (Golub, SIAM Rev. 15, 1973; _secular gives s), so on (lo, hi) the sign of
    s at a probe moves one end of the bracket: s increases there, from -inf
    at lo, and crosses zero at the minimum. The first probe is mu when it lies
    strictly inside the bracket, else the midpoint; the next is the Newton
    iterate when it lies strictly inside the bracket and the midpoint
    otherwise, which handles a minimum on the bracket top, where s need not
    vanish. T_h - mu changes only when mu moves by an ulp of the diagonal, so
    a Newton step within tol = 8 eps max|diag| is followed by a probe 1.5 tol
    across the root (not 2 tol, which rounding can leave just short of
    closing the bracket), and hi (s positive; -inf at lo) returns once
    hi - lo <= 2 tol.
    """
    if not lo < mu < hi:
        mu = 0.5 * (lo + hi)
    for _ in range(_SECULAR_MAX_PROBES):
        if hi - lo <= 2.0 * tol:
            return hi
        s, step = _secular(d, o, q, mu)
        lo, hi = (lo, mu) if s > 0.0 else (mu, hi)
        if abs(step) <= tol:
            mu += 1.5 * tol if mu == lo else -1.5 * tol
        else:
            mu = mu + step if lo < mu + step < hi else 0.5 * (lo + hi)
    raise EigenSolveError(f"constrained minimum not bracketed within {_SECULAR_MAX_PROBES} "
                          f"probes: [{lo!r}, {hi!r}]")


def constrained_form_minimum(prof: SampledProfile) -> CoercivityReport:
    """Minimum of <L xi, xi>/<xi, xi> over the xi orthogonal to phi_c' and
    kappa_c, for the ground state and on the grid that prof samples (T is
    built from it); raw_min is T's lowest eigenvalue.

    kappa_c is even and phi_c' odd to the bit on T's nodes, so that
    complement is the even xi orthogonal to kappa_c's fold kappa_+ plus the
    odd xi orthogonal to phi_c''s fold phi'_-, and the minimum is the lower
    of the two halves' minima, each a root of its half's secular function
    (_secular_root). The brackets come from w = [theta_0, theta_1, r^2], the
    certified bound states (_certified_bound_states), or from T's three
    lowest eigenvalues (_lowest: T+'s two lowest and T-'s lowest) when the
    certificate fails or the even search finds no root below r^2 (a box
    mode). The even minimum lies on [w_0, w_2]. The odd one is at least T-'s
    lowest eigenvalue w_1 (interlacing), so an even minimum at most w_1 is
    the answer. Otherwise one probe of the odd secular function at the even
    minimum decides: when it is positive, the odd minimum lies below, on
    [w_1, even minimum], where w_1 is T-'s only eigenvalue (the alternation),
    and that search starts at the probe's Newton iterate.
    """
    diag, off = discretize_weinstein(prof)
    refl = _Reflection(diag, off)
    tol = _resolution(diag)
    closed = _certified_bound_states(diag, off, refl, prof, tol)
    w = _lowest(refl, 3) if closed is None else closed
    folds = (refl.fold(kappa_closed_form(prof).values[1:])[0], refl.fold(prof.phi_x[1:])[1])
    even, odd = ((d, o, q / np.linalg.norm(q)) for (d, o), q in zip(refl.halves, folds))
    minimum = _secular_root(*even, w[0], w[2], tol)
    if closed is not None and minimum == closed[2]:
        # no even constrained eigenvalue below r^2: the even minimum is a box mode
        w = _lowest(refl, 3)
        minimum = _secular_root(*even, w[0], w[2], tol)
    if minimum > w[1]:
        s, step = _secular(*odd, minimum)
        if s > 0.0:
            minimum = _secular_root(*odd, w[1], minimum, tol, minimum + step)
    return CoercivityReport(minimum, float(w[0]), prof.gs.decay_rate * prof.grid.h)


def inverse_pairing(gs: GroundState, f: Field) -> float:
    """<L^{-1} f, f> by a banded solve on f's grid; sign decides constrained
    positivity.

    For a constraint direction f orthogonal to the kernel, the form minimum on
    {xi : <xi, f> = 0} is nonnegative exactly when this pairing is <= 0.
    """
    diag, off = discretize_weinstein(gs.sample(f.grid))
    rhs = f.values[1:]
    return float(f.grid.h * np.dot(_shifted_solve(diag, off, 0.0, rhs), rhs))


def negative_direction_check(gs: GroundState, grid: Grid) -> tuple[float, float]:
    """(quadrature, closed form) of the quadratic form of the literal Hessian
    on the omega-derivative direction.

    Closed form: 2 (2/p - 1/2) (1 - omega^2)^{2/p - 3/2} ||psi_0||^2, negative
    for p > 4. The quadrature path builds d/d_omega psi_omega by central
    differences in omega (step 1e-5) and applies the Hessian directly.
    """
    p = gs.p
    if p <= 4:
        raise ValueError(f"negative-direction check requires p > 4, got p={p!r}")
    omega = gs.omega
    psi0 = normalized_profile_norm_sq(p)
    closed = 2.0 * (2.0 / p - 0.5) * (1.0 - omega ** 2) ** (2.0 / p - 1.5) * psi0

    dw = 1e-5
    # psi_omega = c^{-1/p} phi_c at c = omega^{-2}
    plus, minus = (
        c ** (-1.0 / p) * GroundState(p, c).sample(grid).phi
        for c in ((omega + dw) ** -2, (omega - dw) ** -2)
    )
    direction = Field(grid, (plus - minus) / (2.0 * dw))
    quad = inner(hessian_apply(gs, direction), direction)
    return quad, closed

