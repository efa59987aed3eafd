import math

import numpy as np
import pytest
from scipy.linalg import eigh, eigh_tridiagonal, qr

from gbbmlab import (
    DIRICHLET,
    Field,
    GroundState,
    constrained_form_minimum,
    critical_speed,
    discretize_weinstein,
    eigenpairs,
    essential_spectrum_edge,
    hessian_apply,
    inner,
    inverse_pairing,
    kappa_closed_form,
    make_grid,
    negative_direction_check,
)
from gbbmlab import spectral
from gbbmlab.spectral import EigenSolveError, _shifted_solve

L50 = 50.0 * math.pi


def dense_weinstein(gs, grid):
    """The tridiagonal Weinstein matrix as a dense n x n array (reference only)."""
    diag, off = discretize_weinstein(gs, grid)
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


def dense_constrained_minimum(gs, grid, constraints):
    """Reference path: project the dense matrix onto the orthogonal complement
    of the constraints (QR of [C, I]) and take the lowest eigenvalue."""
    T = dense_weinstein(gs, grid)
    n = T.shape[0]
    C = np.stack([f.values[1:-1] for f in constraints.values()], axis=1)
    Qfull, _ = qr(np.concatenate([C, np.eye(n)], axis=1), mode="economic")
    Z = Qfull[:, C.shape[1]:n]
    return float(eigh(Z.T @ (T @ Z), eigvals_only=True, subset_by_index=[0, 0])[0])


def bisection_constrained_minimum(gs, grid, constraints):
    """Reference path: bisection on the same inertia count over the same
    bracket, one banded solve and one k x k eigh per step, until the midpoint
    equals an endpoint."""
    diag, off = discretize_weinstein(gs, grid)
    k = len(constraints)
    w = eigh_tridiagonal(diag, off, eigvals_only=True, select="i", select_range=(0, k))
    Q, _ = qr(np.stack([f.values[1:-1] for f in constraints.values()], axis=1),
              mode="economic")

    def any_below(mu):
        secular = Q.T @ _shifted_solve(diag, off, mu, Q)
        n_pos = np.count_nonzero(eigh(secular, eigvals_only=True) > 0.0)
        return np.count_nonzero(w < mu) + n_pos - k > 0

    lo, hi = float(w[0]), float(w[k])
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (lo, mid) if any_below(mid) else (mid, hi)
    return hi


def assert_matches_bisection(gs, grid, constraints):
    """The Newton search stops on a bracket of 2 tol, tol = 8 eps max|diag|;
    bisection runs to the last representable midpoint."""
    diag, _ = discretize_weinstein(gs, grid)
    tol = 8.0 * np.finfo(float).eps * np.max(np.abs(diag))
    newton = constrained_form_minimum(gs, grid, constraints).constrained_min
    assert abs(newton - bisection_constrained_minimum(gs, grid, constraints)) <= 2.0 * tol


def coercivity_constraints(gs, grid):
    prof = gs.sample(grid)
    return {"translation_mode": Field(grid, prof.phi_x), "kappa": kappa_closed_form(prof)}


@pytest.fixture(scope="module")
def grid2048():
    return make_grid(L50, 2048, DIRICHLET)


@pytest.fixture(scope="module")
def negative_eigvec(gs5, grid2048):
    diag, off = discretize_weinstein(gs5, grid2048)
    w, v = eigh_tridiagonal(diag, off, select="i", select_range=(0, 1))
    return w, Field(grid2048, np.pad(v[:, 0], 1))


class TestDiscretization:
    def test_potential_free_ground_mode(self, gs5, grid2048):
        # lowest Dirichlet eigenvalue of -d_xx + (1 - omega^2)
        h = grid2048.h
        n = grid2048.node_count - 2
        diag = np.full(n, 2.0 / h ** 2 + (1.0 - gs5.omega ** 2))
        off = np.full(n - 1, -1.0 / h ** 2)
        w = eigh_tridiagonal(diag, off, select="i", select_range=(0, 0))[0][0]
        expected = (math.pi / (2.0 * L50)) ** 2 + (1.0 - gs5.omega ** 2)
        assert w == pytest.approx(expected, rel=1e-4)

    def test_matrix_symmetric(self, gs5, grid2048):
        T = dense_weinstein(gs5, grid2048)
        assert np.array_equal(T, T.T)

    def test_kernel_action_small(self, gs5):
        # the sampled translation mode is annihilated up to O(h^2) truncation
        grid = make_grid(L50, 4096, DIRICHLET)
        T = dense_weinstein(gs5, grid)
        dpsi = gs5.c ** (-1.0 / gs5.p) * gs5.profile_dx(grid).values[1:-1]
        resid = T @ dpsi
        edge = essential_spectrum_edge(gs5)
        assert np.linalg.norm(resid) / np.linalg.norm(dpsi) < 2e-2 * edge

    def test_requires_dirichlet(self, gs5):
        with pytest.raises(ValueError):
            discretize_weinstein(gs5, make_grid(L50, 2048, "periodic"))


class TestEigenpairs:
    @pytest.mark.parametrize("p", [5.0, 6.0, 10.0])
    @pytest.mark.parametrize("N", [1024, 2048, 4096])
    @pytest.mark.parametrize("L", [40.0 * math.pi, L50])
    def test_single_negative_eigenvalue(self, p, N, L):
        gs = GroundState(p, critical_speed(p))
        rep = eigenpairs(gs, make_grid(L, N, DIRICHLET))
        assert rep.negative_count == 1

    @pytest.mark.parametrize("p", [5.0, 6.0, 10.0])
    def test_kernel_overlap(self, p):
        gs = GroundState(p, critical_speed(p))
        rep = eigenpairs(gs, make_grid(L50, 4096, DIRICHLET))
        assert rep.kernel_overlap > 0.999

    def test_kernel_eigenvalue_refines_to_zero(self, gs5):
        # tolerance derived from the observed O(h^2) convergence of the
        # discrete kernel mode; at N=32768 it sits below 1e-5 of the gap
        rep = eigenpairs(gs5, make_grid(L50, 32768, DIRICHLET))
        assert abs(rep.kernel_eigenvalue) < 1e-5 * abs(rep.eigenvalues[0])
        assert rep.kernel_overlap > 0.999

    def test_third_eigenvalue_near_essential_edge(self, gs5, grid2048):
        rep = eigenpairs(gs5, grid2048)
        edge = essential_spectrum_edge(gs5)
        third = rep.eigenvalues[2]
        assert third > 0.0
        assert third == pytest.approx(edge, rel=0.05)

    def test_eigenvalues_stable_under_refinement(self, gs5):
        w1 = eigenpairs(gs5, make_grid(L50, 2048, DIRICHLET)).eigenvalues[:3]
        w2 = eigenpairs(gs5, make_grid(L50, 4096, DIRICHLET)).eigenvalues[:3]
        scale = abs(w2[0])
        assert np.max(np.abs(w1 - w2)) < 1e-3 * scale

    def test_rayleigh_quotient_identity(self, gs5, grid2048):
        diag, off = discretize_weinstein(gs5, grid2048)
        w, v = eigh_tridiagonal(diag, off, select="i", select_range=(0, 2))
        T = dense_weinstein(gs5, grid2048)
        for i in range(3):
            rq = v[:, i] @ (T @ v[:, i]) / (v[:, i] @ v[:, i])
            assert rq == pytest.approx(w[i], abs=1e-10 * max(1.0, abs(w[i])))

    def test_m_validation(self, gs5, grid2048):
        with pytest.raises(ValueError):
            eigenpairs(gs5, grid2048, m=2)


class TestConstrainedMinimum:
    def test_unconstrained_equals_raw(self, gs5, grid2048):
        rep = constrained_form_minimum(gs5, grid2048, {})
        assert rep.constrained_min == rep.raw_min

    def test_blocking_negative_mode_yields_second_eigenvalue(
        self, gs5, grid2048, negative_eigvec
    ):
        # spectral decomposition oracle: removing the lowest eigenvector
        # leaves exactly the second-lowest eigenvalue
        w, xi0 = negative_eigvec
        rep = constrained_form_minimum(gs5, grid2048, {"negative_mode": xi0})
        assert rep.constrained_min == pytest.approx(w[1], abs=1e-8 * abs(w[0]))

    def test_blocking_negative_and_kernel_is_positive(self, gs5, grid2048, negative_eigvec):
        _, xi0 = negative_eigvec
        rep = constrained_form_minimum(
            gs5, grid2048,
            {"translation_mode": gs5.profile_dx(grid2048), "negative_mode": xi0},
        )
        assert rep.constrained_min > 1e-3 * essential_spectrum_edge(gs5)

    def test_kappa_constraint_minimum_matches_inverse_criterion(self, gs5, grid2048):
        # the form minimum on the kappa-orthogonal complement is negative
        # exactly when <L^{-1} kappa, kappa> > 0; both paths must agree
        kap = kappa_closed_form(gs5.sample(grid2048))
        rep = constrained_form_minimum(
            gs5, grid2048,
            {"translation_mode": gs5.profile_dx(grid2048), "kappa": kap},
        )
        pairing = inverse_pairing(gs5, grid2048, kap)
        assert pairing > 0.0
        assert rep.constrained_min < 0.0
        assert rep.constrained_min > rep.raw_min

    def test_adding_constraints_never_decreases_minimum(self, gs5, grid2048, rng):
        sets = [{}]
        sets.append({"translation_mode": gs5.profile_dx(grid2048)})
        extra = Field(grid2048, np.exp(-(grid2048.nodes ** 2) / 30.0))
        sets.append({**sets[1], "bump": extra})
        mins = [constrained_form_minimum(gs5, grid2048, s).constrained_min for s in sets]
        assert mins[0] <= mins[1] + 1e-12
        assert mins[1] <= mins[2] + 1e-12

    def test_rejects_rank_deficient(self, gs5, grid2048):
        dphi = gs5.profile_dx(grid2048)
        double = Field(grid2048, 2.0 * dphi.values)
        with pytest.raises(ValueError):
            constrained_form_minimum(gs5, grid2048, {"a": dphi, "b": double})

    def test_singular_banded_solve_is_typed(self):
        # T - shift = [[1, 1], [1, 1]] is singular
        with pytest.raises(EigenSolveError):
            _shifted_solve(np.ones(2), np.ones(1), 0.0, np.ones(2))

    @pytest.mark.parametrize(
        "p, second",
        [(5.0, "kappa"), (6.0, "kappa"), (10.0, "kappa"), (5.0, "bump")],
    )
    def test_matches_dense_reference(self, p, second):
        gs = GroundState(p, critical_speed(p))
        grid = make_grid(L50, 1024, DIRICHLET)
        prof = gs.sample(grid)
        seconds = {
            "kappa": kappa_closed_form(prof),
            "bump": Field(grid, np.exp(-(grid.nodes ** 2) / 30.0)),
        }
        constraints = {"translation_mode": Field(grid, prof.phi_x), second: seconds[second]}
        banded = constrained_form_minimum(gs, grid, constraints).constrained_min
        dense = dense_constrained_minimum(gs, grid, constraints)
        assert banded == pytest.approx(dense, rel=1e-10)

    @pytest.mark.parametrize("N", [1024, 16384])
    @pytest.mark.parametrize("p", [5.0, 6.0, 10.0])
    def test_newton_matches_bisection_reference(self, p, N, monkeypatch):
        gs = GroundState(p, critical_speed(p))
        grid = make_grid(L50, N, DIRICHLET)
        shifts = []

        def counting_solve(diag, off, shift, rhs):
            shifts.append(shift)
            return _shifted_solve(diag, off, shift, rhs)

        monkeypatch.setattr(spectral, "_shifted_solve", counting_solve)
        assert_matches_bisection(gs, grid, coercivity_constraints(gs, grid))
        assert len(shifts) <= 12  # bisection takes 58-60

    def test_newton_matches_bisection_with_a_third_constraint(self, rng):
        # a bump beside {phi', kappa} makes ||S|| large against the crossing
        # eigenvalue's slope, so the count near the root is only as good as
        # the k x k eigensolve's small eigenvalues
        gs = GroundState(10.0, critical_speed(10.0))
        grid = make_grid(L50, 128, DIRICHLET)
        for centre, width in zip(rng.uniform(-20.0, 20.0, 20), rng.uniform(1.0, 40.0, 20)):
            constraints = coercivity_constraints(gs, grid)
            constraints["bump"] = Field(grid, np.exp(-((grid.nodes - centre) ** 2) / width))
            assert_matches_bisection(gs, grid, constraints)

    def test_far_bump_closes_the_bracket(self):
        # the bump barely touches the ground mode, so the minimum sits about
        # 2 tol above lambda_1 = -21.88, where an ulp of mu is a tenth of tol:
        # a probe 2 tol across the root rounds to a bracket just wider than
        # 2 tol, and such a search stalled until the probe cap
        gs = GroundState(10.0, critical_speed(10.0))
        grid = make_grid(L50, 128, DIRICHLET)
        bump = Field(grid, np.exp(-((grid.nodes + 19.6) ** 2) / 23.0))
        assert_matches_bisection(gs, grid, {"bump": bump})

    def test_probe_cap_is_typed(self, gs5, grid2048, monkeypatch):
        monkeypatch.setattr(spectral, "_SECULAR_MAX_PROBES", 2)
        with pytest.raises(EigenSolveError, match="not bracketed within 2 probes"):
            constrained_form_minimum(gs5, grid2048, coercivity_constraints(gs5, grid2048))

    def test_resolution_sequence_beyond_dense_size(self, gs5):
        # N = 16384 is four times the size the dense projection could take;
        # the kappa-constrained minimum rises toward its O(h^2) limit from below
        mins = []
        for N in (2048, 4096, 8192, 16384):
            grid = make_grid(L50, N, DIRICHLET)
            prof = gs5.sample(grid)
            constraints = {
                "translation_mode": Field(grid, prof.phi_x),
                "kappa": kappa_closed_form(prof),
            }
            mins.append(constrained_form_minimum(gs5, grid, constraints).constrained_min)
        assert all(a < b for a, b in zip(mins, mins[1:]))
        assert mins[-1] < 0.0


class TestNegativeDirection:
    @pytest.mark.parametrize("p", [5.0, 10.0])
    def test_closed_form_negative(self, p):
        gs = GroundState(p, critical_speed(p))
        grid = make_grid(L50, 8192, DIRICHLET)
        rep = negative_direction_check(gs, grid)
        assert rep.closed_form < 0.0
        assert rep.quadrature_value < 0.0

    def test_quadrature_matches_closed_form(self, gs5):
        grid = make_grid(L50, 8192, DIRICHLET)
        rep = negative_direction_check(gs5, grid)
        assert rep.rel_error < 1e-4

    def test_amplitude_vanishes_toward_p4(self):
        # prefactor 2(2/p - 1/2) goes to zero as p -> 4 (profiles below p=4.1
        # no longer fit the default box, so the sweep stops there)
        grid = make_grid(L50, 8192, DIRICHLET)
        mags = []
        for p in (5.0, 4.5, 4.1):
            gs = GroundState(p, critical_speed(p))
            rep = negative_direction_check(gs, grid)
            from gbbmlab import normalized_profile_norm_sq

            scale = (1.0 - gs.omega ** 2) ** (2.0 / p - 1.5) * normalized_profile_norm_sq(p)
            mags.append(abs(rep.closed_form) / scale)
        assert mags[0] > mags[1] > mags[2]
        assert mags[2] == pytest.approx(abs(2.0 * (2.0 / 4.1 - 0.5)), rel=1e-12)

    def test_rejects_subcritical_exponent(self, grid2048):
        gs = GroundState(3.0, 1.5)
        with pytest.raises(ValueError):
            negative_direction_check(gs, grid2048)


def test_weinstein_form_through_hessian(gs5, periodic_8192):
    # sign dictionary: <L f, f> = -<hessian(f), f> / c, checked on the profile
    phi = gs5.profile(periodic_8192)
    val = -inner(hessian_apply(gs5, phi), phi) / gs5.c
    # independent evaluation from the closed-form hessian image of phi
    p, c = gs5.p, gs5.c

    img = Field(
        periodic_8192,
        -p * c * gs5.profile_dxx(periodic_8192).values
        + p * (c - 1.0) * gs5.profile(periodic_8192).values,
    )
    assert val == pytest.approx(-inner(img, phi) / c, rel=1e-8)
