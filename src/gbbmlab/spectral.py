"""Discretized eigen-analysis of the linearization around the ground state.

Everything here works with the Weinstein-sign operator

    L f = -f_xx + (1 - omega^2) f - (p+1) psi_omega^p f,
    psi_omega^p = phi_c^p / c,

which is bounded below, has exactly one negative eigenvalue, a kernel spanned
by the translation mode phi_c', and essential spectrum starting at
(c-1)/c. The literal action Hessian of the functionals module is -c times
this operator; results are reported in the Weinstein sign so that eigenvalue
counts are meaningful, and callers translate when they need the literal form.

Discretization: Dirichlet truncation, second-order central differences. The
matrix T is symmetric tridiagonal and is only ever used in banded form: the
lowest eigenvalues come from a tridiagonal eigensolve, and every solve with
T - mu (the inverse pairing, the constrained minimum) is one banded solve.
No dense n x n matrix is formed, so the cost is linear in the grid size.

A discretization footnote that matters: the discrete image of the kernel mode
sits O(h^2) below zero (Dirichlet truncation pushes it negative), so a raw
count of negative matrix eigenvalues is one too high at every practical
resolution. SpectrumReport therefore identifies the kernel candidate (the
eigenvalue nearest zero) and excludes it from negative_count.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh, eigh_tridiagonal, qr, solve_banded

from .grid import DIRICHLET, Field, Grid, inner
from .ground_state import GroundState, normalized_profile_norm_sq
from .functionals import hessian_apply


class EigenSolveError(RuntimeError):
    """Eigen-solver did not converge; never returns silent garbage."""


_SECULAR_MAX_PROBES = 100  # bisection alone reaches 2 tol in at most about 50


def _interior(grid: Grid) -> np.ndarray:
    if grid.boundary != DIRICHLET:
        raise ValueError("Weinstein discretization requires a dirichlet_truncated grid")
    return grid.nodes[1:-1]


def discretize_weinstein(gs: GroundState, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric tridiagonal (diagonal, off-diagonal) on the interior nodes."""
    x = _interior(grid)
    h = grid.h
    pot_profile = gs.profile_pow_p(grid).values[1:-1] / gs.c
    diag = 2.0 / h ** 2 + (1.0 - gs.omega ** 2) - (gs.p + 1.0) * pot_profile
    off = np.full(x.size - 1, -1.0 / h ** 2)
    return diag, off


def _shifted_solve(diag: np.ndarray, off: np.ndarray, shift: float, rhs) -> np.ndarray:
    """(T - shift)^{-1} rhs by one banded solve, T the tridiagonal (diag, off)."""
    ab = np.vstack([np.r_[0.0, off], diag - shift, np.r_[off, 0.0]])
    try:
        return solve_banded((1, 1), ab, rhs)
    except np.linalg.LinAlgError as exc:
        raise EigenSolveError(f"singular banded solve at shift {shift!r}: {exc}") from exc


@dataclass(frozen=True)
class SpectrumReport:
    eigenvalues: np.ndarray
    negative_count: int
    kernel_candidate: Field
    kernel_eigenvalue: float
    kernel_overlap: float


def eigenpairs(gs: GroundState, grid: Grid, m: int = 6) -> SpectrumReport:
    """Lowest m eigenpairs of the Weinstein operator, with kernel bookkeeping.

    negative_count excludes the kernel candidate (eigenvalue nearest zero),
    whose discrete image sits O(h^2) below zero; kernel_overlap is its
    normalized projection onto the sampled translation mode.
    """
    if m < 3:
        raise ValueError(f"need at least 3 eigenpairs, got m={m!r}")
    diag, off = discretize_weinstein(gs, grid)
    try:
        w, v = eigh_tridiagonal(diag, off, select="i", select_range=(0, m - 1))
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise EigenSolveError(f"tridiagonal eigensolve failed: {exc}") from exc
    if not np.all(np.isfinite(w)):  # pragma: no cover
        raise EigenSolveError("eigensolve produced non-finite eigenvalues")

    kernel_idx = int(np.argmin(np.abs(w)))
    dphi = gs.profile_dx(grid).values[1:-1]
    vec = v[:, kernel_idx]
    overlap = abs(float(vec @ dphi)) / (
        float(np.linalg.norm(vec)) * float(np.linalg.norm(dphi))
    )
    neg = int(np.sum((w < 0.0) & (np.arange(w.size) != kernel_idx)))
    kernel_field = Field(grid, np.pad(vec, 1))
    return SpectrumReport(w, neg, kernel_field, float(w[kernel_idx]), overlap)


@dataclass(frozen=True)
class CoercivityReport:
    constrained_min: float
    constraints_used: tuple
    raw_min: float


def constrained_form_minimum(gs: GroundState, grid: Grid, constraints) -> CoercivityReport:
    """Minimum of <L xi, xi>/<xi, xi> over the complement of the constraints.

    constraints maps names to Fields (or interior arrays); an empty mapping
    returns the unconstrained minimum. For an orthonormal basis Q of the k
    constraints, the constrained eigenvalues below mu number n_-(T - mu) +
    n_+(S) - k, with the secular matrix S = Q^T Y, Y = (T - mu)^{-1} Q (Golub,
    SIAM Rev. 15, 1973). Each probe mu of the interlacing bracket
    [lambda_1, lambda_{k+1}] of T is one banded solve for Y and one k x k eigh
    of S, and its count moves one end of the bracket. With n = n_-(T - mu),
    the secular eigenvalue s_{n-1} (0-based, ascending) crosses zero at the
    minimum, with derivative ||Y z||^2 from the same solve (S' = Y^T Y, z its
    eigenvector). The next probe is the Newton iterate when it lies strictly
    inside the bracket and the midpoint otherwise, which handles the poles of
    S and a minimum on the bracket top, where no secular eigenvalue vanishes.
    T - mu changes only when mu moves by an ulp of the diagonal, so a Newton
    step within tol = 8 eps max|diag| is followed by a probe 1.5 tol across
    the root (not 2 tol, which rounding can leave just short of closing the
    bracket), and hi (count positive; 0 at lo) returns once hi - lo <= 2 tol.
    """
    diag, off = discretize_weinstein(gs, grid)
    names = tuple(constraints.keys())
    k = len(names)
    w = eigh_tridiagonal(diag, off, eigvals_only=True, select="i", select_range=(0, k))
    raw = float(w[0])
    if not names:
        return CoercivityReport(raw, (), raw)

    cols = []
    for name in names:
        c = constraints[name]
        vec = c.values[1:-1] if isinstance(c, Field) else np.asarray(c, dtype=float)
        if vec.shape != diag.shape:
            raise ValueError(f"constraint {name!r} has wrong length {vec.shape}")
        cols.append(vec)
    C = np.stack(cols, axis=1)
    s = np.linalg.svd(C, compute_uv=False)
    if s[-1] <= 1e-10 * s[0]:
        raise ValueError(f"constraints {names} are (numerically) linearly dependent")
    Q, _ = qr(C, mode="economic")

    tol = 8.0 * float(np.finfo(float).eps) * float(np.max(np.abs(diag)))
    lo, hi = raw, float(w[k])
    mu = 0.5 * (lo + hi)
    for _ in range(_SECULAR_MAX_PROBES):
        if hi - lo <= 2.0 * tol:
            return CoercivityReport(hi, names, raw)
        Y = _shifted_solve(diag, off, mu, Q)
        secular = Q.T @ Y
        if not np.all(np.isfinite(secular)):
            raise EigenSolveError(f"non-finite secular matrix at shift {mu!r}")
        # QR iteration: the default driver's MRRR vectors come with eigenvalues
        # that can err by ~20 eps ||S|| near zero, enough to flip the count
        sec, vecs = eigh(secular, driver="ev")
        # mu < lambda_{k+1}, so the k+1 lowest eigenvalues give n_-(T - mu)
        n = np.count_nonzero(w < mu)
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


def inverse_pairing(gs: GroundState, grid: Grid, f: Field) -> float:
    """<L^{-1} f, f> by a banded solve; sign decides constrained positivity.

    For a constraint direction f orthogonal to the kernel, the form minimum on
    {xi : <xi, f> = 0} is nonnegative exactly when this pairing is <= 0.
    """
    diag, off = discretize_weinstein(gs, grid)
    rhs = f.values[1:-1]
    return float(grid.h * np.dot(_shifted_solve(diag, off, 0.0, rhs), rhs))


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


def essential_spectrum_edge(gs: GroundState) -> float:
    return (gs.c - 1.0) / gs.c
