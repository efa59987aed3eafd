import dataclasses
import math

import numpy as np
import pytest
from scipy.linalg import eigh, eigh_tridiagonal, qr, solve_banded

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
    diag, off = discretize_weinstein(gs.sample(grid))
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
    diag, off = discretize_weinstein(gs.sample(grid))
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
    diag, _ = discretize_weinstein(gs.sample(grid))
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
    diag, off = discretize_weinstein(gs5.sample(grid2048))
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
            discretize_weinstein(gs5.sample(make_grid(L50, 2048, "periodic")))


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
        diag, off = discretize_weinstein(gs5.sample(grid2048))
        w, v = eigh_tridiagonal(diag, off, select="i", select_range=(0, 2))
        T = dense_weinstein(gs5, grid2048)
        for i in range(3):
            rq = v[:, i] @ (T @ v[:, i]) / (v[:, i] @ v[:, i])
            assert rq == pytest.approx(w[i], abs=1e-10 * max(1.0, abs(w[i])))

    @pytest.mark.parametrize("p", [5.0, 6.0, 10.0])
    def test_kernel_vector_matches_the_tridiagonal_eigenvectors(self, p):
        # reference: the eigenvector stein returns from the full-T eigensolve;
        # eigenpairs solves on T's halves, so its values agree within 2 tol
        gs = GroundState(p, critical_speed(p))
        grid = make_grid(L50, 4096, DIRICHLET)
        rep = eigenpairs(gs, grid)
        diag, off = discretize_weinstein(gs.sample(grid))
        w, v = eigh_tridiagonal(diag, off, select="i", select_range=(0, 5))
        assert np.all(np.abs(rep.eigenvalues - w) <= 2.0 * spectral._resolution(diag))
        vec = v[:, int(np.argmin(np.abs(w)))]
        dphi = gs.profile_dx(grid).values[1:-1]
        overlap = abs(vec @ dphi) / (np.linalg.norm(vec) * np.linalg.norm(dphi))
        assert abs(rep.kernel_overlap - overlap) <= 1e-12

    def test_m_validation(self, gs5, grid2048):
        with pytest.raises(ValueError):
            eigenpairs(gs5, grid2048, m=2)


def tridiagonal_apply(diag, off, x):
    """T x for the tridiagonal (diag, off); x may have columns."""
    out = diag.reshape((-1,) + (1,) * (x.ndim - 1)) * x
    off = off.reshape((-1,) + (1,) * (x.ndim - 1))
    out[:-1] += off * x[1:]
    out[1:] += off * x[:-1]
    return out


class TestReflectionHalves:
    @pytest.mark.parametrize("N", [64, 512, 1024, 2048, 4096, 32768])
    @pytest.mark.parametrize("L", [40.0 * math.pi, L50])
    @pytest.mark.parametrize("p", [4.5, 5.0, 6.0, 10.0])
    def test_halves_match_the_full_eigensolve(self, p, L, N):
        # reference: one index-range eigensolve on the full T
        gs = GroundState(p, critical_speed(p))
        grid = make_grid(L, N, DIRICHLET)
        diag, off = discretize_weinstein(gs.sample(grid))
        tol = spectral._resolution(diag)
        w = eigh_tridiagonal(diag, off, eigvals_only=True, select="i", select_range=(0, 5))
        rep = eigenpairs(gs, grid)
        assert np.all(np.abs(rep.eigenvalues - w) <= 2.0 * tol)
        # with vectors, as the coarsest coercivity grid takes them: unit,
        # orthogonal, of exact parity, with their eigenvalues' Rayleigh quotients
        refl = spectral._Reflection(diag, off)
        w3, parity, v = spectral._lowest(diag, off, refl, 3, tol, vectors=True)
        assert np.all(np.abs(w3 - w[:3]) <= 2.0 * tol)
        assert np.max(np.abs(v.T @ v - np.eye(3))) <= 1e-12
        assert np.array_equal(v[::-1], v * np.where(parity, -1.0, 1.0))
        rq = np.sum(v * tridiagonal_apply(diag, off, v), axis=0)
        assert np.all(np.abs(rq - w[:3]) <= 2.0 * tol)

    def test_fold_unfold_round_trip(self, gs5, grid2048, rng):
        diag, off = discretize_weinstein(gs5.sample(grid2048))
        refl = spectral._Reflection(diag, off)
        n = diag.size
        x = rng.standard_normal(n)
        even, odd = refl.fold(x)
        assert (even.size, odd.size) == (n // 2 + 1, n // 2)
        back = refl.unfold(even, 0) + refl.unfold(odd, 1)
        assert np.max(np.abs(back - x)) <= 4.0 * np.finfo(float).eps * np.max(np.abs(x))
        assert np.linalg.norm(np.concatenate([even, odd])) == pytest.approx(
            np.linalg.norm(x), rel=1e-14)
        # each half is T in its basis: T unfold(u) = unfold(T_half u)
        for parity, (d, o) in enumerate(refl.halves):
            u = rng.standard_normal(d.size)
            lhs = tridiagonal_apply(diag, off, refl.unfold(u, parity))
            rhs = refl.unfold(tridiagonal_apply(d, o, u), parity)
            assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.max(np.abs(lhs))

    def test_more_eigenpairs_than_nodes_are_refused(self, gs5):
        # m from each half would return all 15 eigenvalues of T, not 16
        with pytest.raises(ValueError, match="at most 15 eigenpairs"):
            eigenpairs(gs5, make_grid(L50, 16, DIRICHLET), m=16)

    def test_asymmetric_diagonal_is_refused(self, gs5, grid2048):
        diag, off = discretize_weinstein(gs5.sample(grid2048))
        skewed = diag.copy()
        skewed[0] = np.nextafter(skewed[0], np.inf)
        with pytest.raises(ValueError, match="mirror-symmetric"):
            spectral._Reflection(skewed, off)


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

    @pytest.mark.parametrize("columns", [1, 2])
    @pytest.mark.parametrize("where", ["zero", "mid_bracket", "near_eigenvalue"])
    @pytest.mark.parametrize("N", [1024, 16384])
    def test_shifted_solve_matches_solve_banded(self, gs5, N, where, columns, rng):
        # reference: scipy's solve_banded on the assembled 3 x n band
        diag, off = discretize_weinstein(gs5.sample(make_grid(L50, N, DIRICHLET)))
        w = eigh_tridiagonal(diag, off, eigvals_only=True, select="i", select_range=(0, 2))
        shift = {"zero": 0.0, "mid_bracket": 0.5 * (w[0] + w[2]),
                 "near_eigenvalue": w[1] + 1e-7}[where]
        rhs = rng.standard_normal(diag.size if columns == 1 else (diag.size, columns))
        inputs = [a.copy() for a in (diag, off, rhs)]
        ab = np.vstack([np.r_[0.0, off], diag - shift, np.r_[off, 0.0]])
        ref = solve_banded((1, 1), ab, rhs)
        x = _shifted_solve(diag, off, shift, rhs)
        assert x.shape == ref.shape
        assert np.max(np.abs(x - ref)) <= 1e-14 * np.max(np.abs(ref))
        assert all(np.array_equal(a, b) for a, b in zip(inputs, (diag, off, rhs)))

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


def resolution_chain(gs, L, sizes):
    """(grid, seeded report, unseeded report) per size, each seeded from the
    report before it, as `coercivity` walks its grids."""
    out, previous = [], None
    for N in sizes:
        grid = make_grid(L, N, DIRICHLET)
        constraints = coercivity_constraints(gs, grid)
        previous = constrained_form_minimum(gs, grid, constraints, previous)
        out.append((grid, previous, constrained_form_minimum(gs, grid, constraints)))
    return out


def took_seed(report, previous):
    # a certified seed passes its vectors on; the eigensolve takes new ones
    return report.seed.vectors is previous.seed.vectors


class TestSeededEigenvalues:
    @pytest.mark.parametrize("L", [40.0 * math.pi, L50])
    @pytest.mark.parametrize("p", [4.5, 5.0, 6.0, 10.0])
    def test_seeded_matches_unseeded(self, p, L):
        # the Newton search stops anywhere in a 2 tol bracket, so changing
        # lambda_1..lambda_{k+1} within their accuracy moves it that far
        gs = GroundState(p, critical_speed(p))
        chain = resolution_chain(gs, L, (1024, 2048, 4096, 8192, 16384))
        for (_, before, _), (grid, seeded, unseeded) in zip(chain, chain[1:]):
            assert took_seed(seeded, before)
            tol = spectral._resolution(discretize_weinstein(gs.sample(grid))[0])
            assert abs(seeded.constrained_min - unseeded.constrained_min) <= 2.0 * tol
            assert abs(seeded.raw_min - unseeded.raw_min) <= 2.0 * tol
            assert np.all(np.abs(seeded.seed.values - unseeded.seed.values) <= 2.0 * tol)

    def test_near_degenerate_box_pair_keeps_its_parity(self, gs5):
        # lambda_3 (even) and lambda_4 (odd) are 2.2e-5 apart at p = 5; the
        # seeded lambda_3 comes from the even coarse vector and stays even
        chain = resolution_chain(gs5, L50, (1024, 2048, 4096))
        coarse = chain[0][1].seed
        even = coarse.vectors[:, 2]
        assert np.linalg.norm(even - even[::-1]) < 1e-8
        for grid, seeded, _ in chain[1:]:
            diag, off = discretize_weinstein(gs5.sample(grid))
            w = eigh_tridiagonal(diag, off, eigvals_only=True, select="i", select_range=(0, 3))
            assert w[3] - w[2] == pytest.approx(2.2e-5, rel=0.05)
            tol = spectral._resolution(diag)
            assert abs(seeded.seed.values[2] - w[2]) <= tol
            start = np.interp(grid.nodes[1:-1], coarse.nodes, even)
            _, residual, x = spectral._inverse_iteration(diag, off, start, coarse.values[2], tol)
            assert residual <= tol
            assert np.linalg.norm(x - x[::-1]) < 1e-8

    @pytest.mark.parametrize(
        "case", ["other_p", "swapped", "overlapping", "skips_lowest", "singular", "mixed_parity"])
    def test_certificate_refusal_returns_the_unseeded_result(self, gs5, case, monkeypatch):
        grid = make_grid(L50, 2048, DIRICHLET)
        constraints = coercivity_constraints(gs5, grid)
        unseeded = constrained_form_minimum(gs5, grid, constraints)
        coarse = make_grid(L50, 1024, DIRICHLET)
        previous = constrained_form_minimum(gs5, coarse, coercivity_constraints(gs5, coarse))
        seed = previous.seed
        if case == "other_p":
            gs10 = GroundState(10.0, critical_speed(10.0))
            previous = constrained_form_minimum(gs10, coarse, coercivity_constraints(gs10, coarse))
        elif case == "swapped":
            # the ground and box values exchanged: both iterates reach lambda_3
            seed = dataclasses.replace(seed, values=seed.values[::-1])
        elif case == "skips_lowest":
            # lambda_2..lambda_4 and their vectors: disjoint, converged, and
            # only the Sturm count sees that lambda_1 is missing
            diag, off = discretize_weinstein(gs5.sample(coarse))
            w, v = eigh_tridiagonal(diag, off, select="i", select_range=(1, 3))
            seed = spectral.EigenSeed(w, coarse.nodes, np.pad(v, ((1, 1), (0, 0))))
        elif case == "mixed_parity":
            # the even ground vector and the odd kernel vector in equal parts:
            # refined on either half it would converge, so only the parity
            # check refuses it
            mixed = (seed.vectors[:, 0] + seed.vectors[:, 1]) / np.sqrt(2.0)
            seed = dataclasses.replace(seed, vectors=np.column_stack([mixed, seed.vectors[:, 1:]]))
        elif case == "overlapping":
            # three copies of the lowest pair: three equal Rayleigh quotients
            seed = dataclasses.replace(seed, values=seed.values[[0, 0, 0]],
                                       vectors=seed.vectors[:, [0, 0, 0]])
        else:
            # the exact eigenvalues, with T - theta singular at each, which
            # LAPACK reports only on an exactly zero pivot
            seed = dataclasses.replace(seed, values=unseeded.seed.values)
            exact = set(seed.values.tolist())

            def singular_at_exact(diag, off, shift, rhs):
                if shift in exact:
                    raise EigenSolveError(f"singular banded solve at shift {shift!r}")
                return _shifted_solve(diag, off, shift, rhs)

            monkeypatch.setattr(spectral, "_shifted_solve", singular_at_exact)
        if case != "other_p":
            previous = dataclasses.replace(previous, seed=seed)
        # without a ladder the secular search starts at the midpoint, as unseeded
        previous = dataclasses.replace(previous, ladder=())
        rep = constrained_form_minimum(gs5, grid, constraints, previous)
        assert not took_seed(rep, previous)
        assert rep == unseeded
        assert np.array_equal(rep.seed.values, unseeded.seed.values)

    def test_exact_eigenvalue_seed_is_certified(self, gs5, grid2048):
        # T - theta at a computed eigenvalue is singular only to working
        # precision: the iterate grows, and the values are accepted
        constraints = coercivity_constraints(gs5, grid2048)
        unseeded = constrained_form_minimum(gs5, grid2048, constraints)
        coarse = make_grid(L50, 1024, DIRICHLET)
        previous = constrained_form_minimum(gs5, coarse, coercivity_constraints(gs5, coarse))
        previous = dataclasses.replace(
            previous, seed=dataclasses.replace(previous.seed, values=unseeded.seed.values))
        rep = constrained_form_minimum(gs5, grid2048, constraints, previous)
        tol = spectral._resolution(discretize_weinstein(gs5.sample(grid2048))[0])
        assert took_seed(rep, previous)
        assert abs(rep.constrained_min - unseeded.constrained_min) <= 2.0 * tol

    def test_seed_for_another_constraint_count_is_not_used(self, gs5, grid2048):
        coarse = make_grid(L50, 1024, DIRICHLET)
        previous = constrained_form_minimum(gs5, coarse, {})
        constraints = coercivity_constraints(gs5, grid2048)
        rep = constrained_form_minimum(gs5, grid2048, constraints, previous)
        assert not took_seed(rep, previous)
        assert rep == constrained_form_minimum(gs5, grid2048, constraints)


def warm_chain(gs, L, sizes, monkeypatch, previous=None):
    """(grid, warm report, cold report, the warm search's probe shifts) per
    size; each warm call gets the warm report before it (the first gets
    previous), as `coercivity` walks its grids, and each cold call no
    previous report."""
    shifts = []

    def recording(diag, off, shift, rhs):
        if np.ndim(rhs) == 2:  # a secular probe; inverse iteration solves one vector
            shifts.append(shift)
        return _shifted_solve(diag, off, shift, rhs)

    monkeypatch.setattr(spectral, "_shifted_solve", recording)
    out = []
    for N in sizes:
        grid = make_grid(L, N, DIRICHLET)
        constraints = coercivity_constraints(gs, grid)
        cold = constrained_form_minimum(gs, grid, constraints)
        shifts.clear()
        previous = constrained_form_minimum(gs, grid, constraints, previous)
        out.append((grid, previous, cold, list(shifts)))
    return out


def line_through(points, h2):
    """The line through two (h^2, minimum) points, evaluated at h2."""
    (a, fa), (b, fb) = points
    return float(np.polyval(np.polyfit([a, b], [fa, fb], 1), h2))


class TestWarmStart:
    @pytest.mark.parametrize("sizes", [(1024, 2048, 4096, 8192, 16384),
                                       (1024, 1500, 2048, 4096, 8192, 16384)],
                             ids=["halving", "N1500"])
    @pytest.mark.parametrize("L", [40.0 * math.pi, L50])
    @pytest.mark.parametrize("p", [4.5, 5.0, 6.0, 10.0])
    def test_warm_matches_cold(self, p, L, sizes, monkeypatch):
        # the first probe is the coarsest grid's bracket midpoint, then the
        # previous minimum, then the line through the last two (h^2, minimum);
        # both searches stop anywhere in a bracket of 2 tol around the minimum
        gs = GroundState(p, critical_speed(p))
        chain = warm_chain(gs, L, sizes, monkeypatch)
        points = []
        for grid, warm, cold, shifts in chain:
            h2 = grid.h ** 2
            tol = spectral._resolution(discretize_weinstein(gs.sample(grid))[0])
            if not points:
                assert shifts[0] == 0.5 * (warm.raw_min + warm.seed.values[2])
            elif len(points) == 1:
                assert shifts[0] == points[0][1]
            else:
                assert shifts[0] == pytest.approx(line_through(points[-2:], h2), abs=tol)
            assert abs(warm.constrained_min - cold.constrained_min) <= 2.0 * tol
            points.append((h2, warm.constrained_min))
        assert all(len(shifts) <= 6 for *_, shifts in chain[1:])

    @pytest.mark.parametrize("L", [40.0 * math.pi, L50])
    def test_prediction_outside_the_bracket_starts_at_the_midpoint(self, gs5, L, monkeypatch):
        # N = 16 and 32 resolve neither the soliton nor the O(h^2) law: the
        # line through their minima passes above lambda_3 at N = 1024
        (g16, r16, *_), (g32, r32, *_), (grid, warm, cold, shifts) = warm_chain(
            gs5, L, (16, 32, 1024), monkeypatch)
        predicted = line_through(
            [(g16.h ** 2, r16.constrained_min), (g32.h ** 2, r32.constrained_min)], grid.h ** 2)
        lo, hi = warm.raw_min, float(warm.seed.values[2])
        assert not lo < predicted < hi
        assert shifts[0] == 0.5 * (lo + hi)
        tol = spectral._resolution(discretize_weinstein(gs5.sample(grid))[0])
        assert abs(warm.constrained_min - cold.constrained_min) <= 2.0 * tol

    def test_other_constraints_give_no_prediction(self, gs5, monkeypatch):
        # as many constraints, so the eigenvalues are seeded, but other ones:
        # the coarser minimum predicts nothing and the search starts mid-bracket
        coarse = make_grid(L50, 1024, DIRICHLET)
        other = {"translation_mode": gs5.profile_dx(coarse),
                 "bump": Field(coarse, np.exp(-(coarse.nodes ** 2) / 30.0))}
        previous = constrained_form_minimum(gs5, coarse, other)
        (_, rep, _, shifts), = warm_chain(gs5, L50, (2048,), monkeypatch, previous)
        assert took_seed(rep, previous)
        assert shifts[0] == 0.5 * (rep.raw_min + rep.seed.values[2])


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
