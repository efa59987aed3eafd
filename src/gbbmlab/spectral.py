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
index-range eigensolves and every inverse iteration. The constrained
minimum's secular probes stay on the full T: the constraints need not have
a parity, and with k columns a probe is one solve and one k x k eigh either
way, so blocking them gains nothing at these sizes.

Bound states in closed form: (p+1) phi_c^p / c = nu (nu+1) k^2 sech^2(kx),
k = gs.decay_rate, nu = 1 + 2/p, so L = -d_xx + r^2 - nu (nu+1) k^2
sech^2(kx), r^2 = (c-1)/c, is a Pöschl-Teller well with bound states at
r^2 - k^2 (nu - j)^2 for integers 0 <= j < nu (Pöschl & Teller, Z. Phys. 83,
1933). As 1 < nu < 2 for p > 2, there are two (bound_states): lambda_0 =
-(c-1) p (p+4) / (4c), with eigenfunction sech^{1+2/p}(kx), and 0, with
phi_c'. With at most two constraints, the constrained minimum refines T's
two lowest eigenvalues from them on every grid (inverse iteration on T+
from the ground mode, on T- from phi_c') and, once they are certified below
r^2, searches [theta_0, r^2] for two constraints (T's third eigenvalue is a
box mode above r^2) or [theta_0, theta_1] for one. Index-range eigensolves
give the bracket instead when the certificate fails, for three or more
constraints, and when no probe finds a constrained eigenvalue below r^2,
which makes the minimum a box mode, as for {phi_c', the ground mode}. The
secular search starts at the midpoint of its bracket on the coarsest grid,
and on each finer grid with the same constraints at the O(h^2) prediction
from the coarser grids' minima, unless that prediction falls outside the
bracket or those grids have k h > 1.

A discretization footnote that matters: the discrete image of the kernel mode
sits O(h^2) below zero (Dirichlet truncation pushes it negative), so a raw
count of negative matrix eigenvalues is one too high at every practical
resolution. SpectrumReport therefore identifies the kernel candidate (the
eigenvalue nearest zero) and excludes it from negative_count.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import eigh, eigh_tridiagonal, qr
from scipy.linalg.lapack import dgtsv

from .grid import Field, Grid, GridError, inner
from .ground_state import GroundState, SampledProfile, normalized_profile_norm_sq
from .functionals import hessian_apply


class EigenSolveError(RuntimeError):
    """Eigen-solver did not converge; never returns silent garbage."""


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
    0.1 tol (Parlett, The Symmetric Eigenvalue Problem, ch. 4)."""
    for _ in range(_INVERSE_MAX_SOLVES):
        x = _shifted_solve(diag, off, shift, x)
        x = x / np.linalg.norm(x)
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


def _count_up_to(diag, off, top: float) -> int:
    """The number of T's eigenvalues up to top, by one Sturm count: a value-range stebz from
    the Gershgorin lower bound whose tolerance is the range's width counts at
    both ends and stops without bisecting."""
    lower = float(np.min(diag - np.abs(np.r_[0.0, off]) - np.abs(np.r_[off, 0.0])))
    return eigh_tridiagonal(diag, off, eigvals_only=True, select="v",
                            select_range=(lower, top), tol=top - lower).size


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
            w[parity::2] = eigh_tridiagonal(d, o, eigvals_only=True, select="i",
                                            select_range=(0, count - 1))
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
        except EigenSolveError:  # the closed form is an eigenvalue to working precision
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
    constraints_used: tuple
    raw_min: float
    kh: float  # k h of the grid, k = gs.decay_rate
    # (h^2, constrained_min) of this grid, after that of the grid before it
    # when that one had the same constraints: the next grid's prediction.
    # Empty from a grid that is not resolved
    ladder: tuple = field(default=(), repr=False, compare=False)

    @property
    def resolved(self) -> bool:
        """Whether the grid resolves phi_c: k h <= 1 (N = 16, 32 at p = 5 on
        L = 50 pi do not)."""
        return self.kh <= 1.0


def _predicted_minimum(ladder: tuple, h2: float) -> float:
    """The constrained minimum at grid spacing h = sqrt(h2), predicted from
    the (h^2, minimum) pairs of up to two coarser grids: the line through
    both evaluated at h2 (the error is O(h^2)), or the one grid's minimum;
    nan with no pair."""
    if len(ladder) == 2 and ladder[0][0] != ladder[1][0]:
        (a, fa), (b, fb) = ladder
        return fb + (fb - fa) * (h2 - b) / (b - a)
    return ladder[-1][1] if ladder else np.nan


def _secular_minimum(diag, off, Q, w, mu, tol) -> float:
    """The constrained minimum on the bracket [w[0], w[-1]], where w holds
    every eigenvalue of T below w[-1] ahead of it, and Q is an orthonormal
    basis of the k constraints.

    The constrained eigenvalues below mu number n_-(T - mu) + n_+(S) - k,
    with the secular matrix S = Q^T Y, Y = (T - mu)^{-1} Q (Golub, SIAM Rev.
    15, 1973). Each probe mu is one banded solve for Y and one k x k eigh of
    S, and its count moves one end of the bracket. With n = n_-(T - mu), the
    secular eigenvalue s_{n-1} (0-based, ascending) crosses zero at the
    minimum, with derivative ||Y z||^2 from the same solve (S' = Y^T Y, z its
    eigenvector). The first probe is mu when it lies strictly inside the
    bracket, else the midpoint; the next is the Newton iterate when it lies
    strictly inside the bracket and the midpoint otherwise, which handles
    the poles of S and a minimum on the bracket top, where no secular
    eigenvalue vanishes. T - mu changes only when mu moves by an ulp of the
    diagonal, so a Newton step within tol = 8 eps max|diag| is followed by a
    probe 1.5 tol across the root (not 2 tol, which rounding can leave just
    short of closing the bracket), and hi (count positive; 0 at lo) returns
    once hi - lo <= 2 tol.
    """
    k = Q.shape[1]
    lo, hi = float(w[0]), float(w[-1])
    if not lo < mu < hi:
        mu = 0.5 * (lo + hi)
    for _ in range(_SECULAR_MAX_PROBES):
        if hi - lo <= 2.0 * tol:
            return hi
        Y = _shifted_solve(diag, off, mu, Q)
        secular = Q.T @ Y
        if not np.all(np.isfinite(secular)):
            raise EigenSolveError(f"non-finite secular matrix at shift {mu!r}")
        # QR iteration: the default driver's MRRR vectors come with eigenvalues
        # that can err by ~20 eps ||S|| near zero, enough to flip the count
        sec, vecs = eigh(secular, driver="ev")
        n = np.count_nonzero(w < mu)  # n_-(T - mu), since mu < w[-1]
        lo, hi = (lo, mu) if n + np.count_nonzero(sec > 0.0) - k > 0 else (mu, hi)
        step = -float(sec[n - 1]) / float(np.sum((Y @ vecs[:, n - 1]) ** 2))
        del Y  # so the next solve does not hold two n x k blocks (peak RSS)
        if not np.isfinite(step):
            raise EigenSolveError(f"non-finite Newton step at shift {mu!r}")
        if abs(step) <= tol:
            mu += 1.5 * tol if mu == lo else -1.5 * tol
        else:
            mu = mu + step if lo < mu + step < hi else 0.5 * (lo + hi)
    raise EigenSolveError(f"constrained minimum not bracketed within {_SECULAR_MAX_PROBES} "
                          f"probes: [{lo!r}, {hi!r}]")


def constrained_form_minimum(prof: SampledProfile, constraints,
                             previous: CoercivityReport | None = None) -> CoercivityReport:
    """Minimum of <L xi, xi>/<xi, xi> over the complement of the constraints,
    for the ground state and on the grid that prof samples (T is built from it).

    constraints maps names to Fields on prof's grid (GridError otherwise); an
    empty mapping returns the unconstrained minimum, raw_min. The secular
    search (_secular_minimum) runs on [theta_0, theta_1] for one constraint and
    on [theta_0, r^2] for two, from the certified bound states
    (_certified_bound_states). With three or more, when the certificate fails,
    and when no probe finds a constrained eigenvalue below r^2, it runs on the
    interlacing bracket [lambda_1, lambda_{k+1}] from index-range eigensolves
    on T's halves (_lowest). raw_min is the bracket's lower end. When previous,
    a coarser grid's report, has the same constraints, the first probe is
    _predicted_minimum from previous.ladder, the minima of one or two coarser
    grids; a grid that is not resolved (CoercivityReport.resolved) passes on no
    minima.
    """
    gs, grid = prof.gs, prof.grid
    kh = gs.decay_rate * grid.h
    diag, off = discretize_weinstein(prof)
    refl = _Reflection(diag, off)
    names = tuple(constraints.keys())
    k = len(names)
    tol = _resolution(diag)
    closed = _certified_bound_states(diag, off, refl, prof, tol) if k <= 2 else None
    w = _lowest(refl, k + 1) if closed is None else closed
    if not names:
        return CoercivityReport(float(w[0]), (), float(w[0]), kh)

    cols = []
    for name in names:
        c = constraints[name]
        if not isinstance(c, Field) or c.grid != grid:
            raise GridError(f"constraint {name!r} is not a Field on the profile's grid "
                            f"(an array, or a Field on another grid)")
        cols.append(c.values[1:])
    Q, R = qr(np.stack(cols, axis=1), mode="economic")
    s = np.linalg.svd(R, compute_uv=False)  # the constraints' singular values
    if s[-1] <= 1e-10 * s[0]:
        raise ValueError(f"constraints {names} are (numerically) linearly dependent")

    h2 = grid.h ** 2
    ladder = previous.ladder if previous is not None and previous.constraints_used == names else ()
    mu = _predicted_minimum(ladder, h2)
    minimum = _secular_minimum(diag, off, Q, w[:k + 1], mu, tol)
    if closed is not None and minimum == closed[2]:
        # no constrained eigenvalue below r^2: the minimum is a box mode
        w = _lowest(refl, k + 1)
        minimum = _secular_minimum(diag, off, Q, w, mu, tol)
    report = CoercivityReport(minimum, names, float(w[0]), kh)
    return replace(report, ladder=ladder[-1:] + ((h2, minimum),)) if report.resolved else report


def inverse_pairing(gs: GroundState, f: Field) -> float:
    """<L^{-1} f, f> by a banded solve on f's grid; sign decides constrained
    positivity.

    For a constraint direction f orthogonal to the kernel, the form minimum on
    {xi : <xi, f> = 0} is nonnegative exactly when this pairing is <= 0.
    """
    diag, off = discretize_weinstein(gs.sample(f.grid))
    rhs = f.values[1:]
    return float(f.grid.h * np.dot(_shifted_solve(diag, off, 0.0, rhs), rhs))


@dataclass(frozen=True)
class NegativeDirectionReport:
    closed_form: float
    quadrature_value: float

    @property
    def rel_error(self) -> float:
        return abs(self.closed_form - self.quadrature_value) / abs(self.closed_form)


def negative_direction_check(gs: GroundState, grid: Grid) -> NegativeDirectionReport:
    """Quadratic form of the literal Hessian on the omega-derivative direction.

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
    return NegativeDirectionReport(closed, quad)

