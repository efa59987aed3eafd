import dataclasses
import math

import numpy as np
import pytest
from scipy.linalg import eigh, eigh_tridiagonal, qr, solve_banded

from gbbmlab import (
    Field,
    GroundState,
    bound_states,
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
from gbbmlab.cli import RESOLUTION_SEQUENCE
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
    C = np.stack([f.values[1:] for f in constraints.values()], axis=1)
    Qfull, _ = qr(np.concatenate([C, np.eye(n)], axis=1), mode="economic")
    Z = Qfull[:, C.shape[1]:n]
    return float(eigh(Z.T @ (T @ Z), eigvals_only=True, subset_by_index=[0, 0])[0])


def bisection_constrained_minimum(gs, grid):
    """Reference path: bisection on the scalar count over T's bracket
    [lambda_0, lambda_2] (interlacing, two constraints), until the midpoint
    equals an endpoint. On each half h, with q_h the unit fold of its
    constraint, n_-(T_h - mu) + [s_h(mu) > 0] - 1 constrained eigenvalues lie
    below mu, s_h(mu) = q_h^T (T_h - mu)^{-1} q_h; n_- from a Sturm count."""
    prof = gs.sample(grid)
    diag, off = discretize_weinstein(prof)
    refl = spectral._Reflection(diag, off)
    folds = (refl.fold(kappa_closed_form(prof).values[1:])[0], refl.fold(prof.phi_x[1:])[1])
    halves = [(d, o, q / np.linalg.norm(q)) for (d, o), q in zip(refl.halves, folds)]
    w = eigh_tridiagonal(diag, off, eigvals_only=True, select="i", select_range=(0, 2))

    def below(mu):
        count = 0
        for d, o, q in halves:
            n_neg = eigh_tridiagonal(d, o, eigvals_only=True, select="v",
                                     select_range=(w[0] - 1.0, mu)).size
            count += n_neg + (float(q @ _shifted_solve(d, o, mu, q)) > 0.0) - 1
        return count > 0

    lo, hi = float(w[0]), float(w[2])
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (lo, mid) if below(mid) else (mid, hi)
    return hi


def coercivity_constraints(gs, grid):
    prof = gs.sample(grid)
    return {"translation_mode": Field(grid, prof.phi_x), "kappa": kappa_closed_form(prof)}


def counting_secular(monkeypatch):
    """A list that records the half size of each secular probe from now on."""
    sizes, secular = [], spectral._secular

    def counting(d, o, q, mu):
        sizes.append(d.size)
        return secular(d, o, q, mu)

    monkeypatch.setattr(spectral, "_secular", counting)
    return sizes


@pytest.fixture(scope="module")
def grid2048():
    return make_grid(L50, 2048)


@pytest.fixture(scope="module")
def negative_eigvec(gs5, grid2048):
    diag, off = discretize_weinstein(gs5.sample(grid2048))
    w, v = eigh_tridiagonal(diag, off, select="i", select_range=(0, 1))
    return w, Field(grid2048, np.pad(v[:, 0], (1, 0)))


class TestDiscretization:
    def test_potential_free_ground_mode(self, gs5, grid2048):
        # lowest Dirichlet eigenvalue of -d_xx + (1 - omega^2)
        h = grid2048.h
        n = grid2048.points - 1
        diag = np.full(n, 2.0 / h ** 2 + (1.0 - gs5.omega ** 2))
        off = np.full(n - 1, -1.0 / h ** 2)
        w = eigh_tridiagonal(diag, off, select="i", select_range=(0, 0))[0][0]
        expected = (math.pi / (2.0 * L50)) ** 2 + (1.0 - gs5.omega ** 2)
        assert w == pytest.approx(expected, rel=1e-4)

    @pytest.mark.parametrize("N", [1500, 2048])
    def test_built_on_the_box_without_its_edge(self, gs5, N):
        # T lives on nodes[1:], the N - 1 nodes other than x = -L: its
        # diagonal samples the potential there, mirrors bitwise about x = 0
        # and is deepest at x = 0
        grid = make_grid(L50, N)
        diag, off = discretize_weinstein(gs5.sample(grid))
        x = grid.nodes[1:]
        assert diag.size == N - 1 and off.size == N - 2
        assert np.array_equal(diag, diag[::-1])
        pot = (gs5.p + 1.0) * gs5.profile(grid).values[1:] ** gs5.p / gs5.c
        expected = 2.0 / grid.h ** 2 + (1.0 - gs5.omega ** 2) - pot
        assert np.max(np.abs(diag - expected)) <= 1e-12 * np.max(np.abs(diag))
        assert x[np.argmin(diag)] == 0.0  # the well's floor, at phi_c's peak

    def test_matrix_symmetric(self, gs5, grid2048):
        T = dense_weinstein(gs5, grid2048)
        assert np.array_equal(T, T.T)

    def test_kernel_action_small(self, gs5):
        # the sampled translation mode is annihilated up to O(h^2) truncation
        grid = make_grid(L50, 4096)
        T = dense_weinstein(gs5, grid)
        dpsi = gs5.c ** (-1.0 / gs5.p) * gs5.profile_dx(grid).values[1:]
        resid = T @ dpsi
        edge = essential_spectrum_edge(gs5)
        assert np.linalg.norm(resid) / np.linalg.norm(dpsi) < 2e-2 * edge


class TestEigenpairs:
    @pytest.mark.parametrize("p", [5.0, 6.0, 10.0])
    @pytest.mark.parametrize("N", [1024, 2048, 4096])
    @pytest.mark.parametrize("L", [40.0 * math.pi, L50])
    def test_single_negative_eigenvalue(self, p, N, L):
        gs = GroundState(p, critical_speed(p))
        rep = eigenpairs(gs, make_grid(L, N))
        assert rep.negative_count == 1

    @pytest.mark.parametrize("p", [5.0, 6.0, 10.0])
    def test_kernel_overlap(self, p):
        gs = GroundState(p, critical_speed(p))
        rep = eigenpairs(gs, make_grid(L50, 4096))
        assert rep.kernel_overlap > 0.999

    def test_kernel_eigenvalue_refines_to_zero(self, gs5):
        # tolerance derived from the observed O(h^2) convergence of the
        # discrete kernel mode; at N=32768 it sits below 1e-5 of the gap
        rep = eigenpairs(gs5, make_grid(L50, 32768))
        assert abs(rep.kernel_eigenvalue) < 1e-5 * abs(rep.eigenvalues[0])
        assert rep.kernel_overlap > 0.999

    def test_third_eigenvalue_near_essential_edge(self, gs5, grid2048):
        rep = eigenpairs(gs5, grid2048)
        edge = essential_spectrum_edge(gs5)
        third = rep.eigenvalues[2]
        assert third > 0.0
        assert third == pytest.approx(edge, rel=0.05)

    def test_eigenvalues_stable_under_refinement(self, gs5):
        w1 = eigenpairs(gs5, make_grid(L50, 2048)).eigenvalues[:3]
        w2 = eigenpairs(gs5, make_grid(L50, 4096)).eigenvalues[:3]
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
        grid = make_grid(L50, 4096)
        rep = eigenpairs(gs, grid)
        diag, off = discretize_weinstein(gs.sample(grid))
        w, v = eigh_tridiagonal(diag, off, select="i", select_range=(0, 5))
        assert np.all(np.abs(rep.eigenvalues - w) <= 2.0 * spectral._resolution(diag))
        vec = v[:, int(np.argmin(np.abs(w)))]
        dphi = gs.profile_dx(grid).values[1:]
        overlap = abs(vec @ dphi) / (np.linalg.norm(vec) * np.linalg.norm(dphi))
        assert abs(rep.kernel_overlap - overlap) <= 1e-12

    def test_even_kernel_candidate_has_zero_overlap(self):
        # at p = 30 on N = 4096 the eigenvalue nearest zero is T's third, an
        # even box mode, so it is orthogonal to the odd phi_c' exactly
        gs = GroundState(30.0, critical_speed(30.0))
        rep = eigenpairs(gs, make_grid(L50, 4096))
        assert rep.kernel_eigenvalue == rep.eigenvalues[2]
        assert rep.kernel_overlap == 0.0


def unfold(refl, u, parity):
    """The vector on T's nodes, nodes[1:], with coordinates u in refl's even
    (parity 0) or odd (parity 1) basis: the inverse of refl.fold."""
    c = refl.c
    x = np.zeros(2 * c + 1)
    wing = u[1 - parity:] / np.sqrt(2.0)
    x[c + 1:] = wing
    x[c - 1::-1] = -wing if parity else wing
    if not parity:
        x[c] = u[0]
    return x


def tridiagonal_apply(diag, off, x):
    """T x for the tridiagonal (diag, off); x may have columns."""
    out = diag.reshape((-1,) + (1,) * (x.ndim - 1)) * x
    off = off.reshape((-1,) + (1,) * (x.ndim - 1))
    out[:-1] += off * x[1:]
    out[1:] += off * x[:-1]
    return out


class TestReflectionHalves:
    @pytest.mark.parametrize("N", [16, 32, 64, 512, 1024, 2048, 4096, 32768])
    @pytest.mark.parametrize("L", [40.0 * math.pi, L50])
    @pytest.mark.parametrize("p", [4.5, 5.0, 6.0, 10.0, 30.0])
    def test_halves_match_the_full_eigensolve(self, p, L, N):
        # reference: one index-range eigensolve on the full T
        gs = GroundState(p, critical_speed(p))
        grid = make_grid(L, N)
        diag, off = discretize_weinstein(gs.sample(grid))
        tol = spectral._resolution(diag)
        w = eigh_tridiagonal(diag, off, eigvals_only=True, select="i", select_range=(0, 5))
        rep = eigenpairs(gs, grid)
        assert np.all(np.abs(rep.eigenvalues - w) <= 2.0 * tol)

    @pytest.mark.parametrize("sign", [-1.0, 1.0])
    @pytest.mark.parametrize("n", [3, 5, 9, 17])
    def test_halves_interleave_on_random_mirror_symmetric_matrices(self, n, sign, rng):
        # the alternation theorem on seeded random Jacobi matrices, mirror-
        # symmetric on n nodes with one-signed off-diagonals: the m lowest
        # eigenvalues are the halves' interleaved, for every m
        for _ in range(20):
            centre_out = rng.uniform(-1.0, 1.0, n // 2 + 1)
            diag = np.concatenate([centre_out[::-1], centre_out[1:]])
            wing = sign * rng.uniform(0.5, 1.5, n // 2)
            off = np.concatenate([wing[::-1], wing])
            full = eigh_tridiagonal(diag, off, eigvals_only=True)
            refl = spectral._Reflection(diag, off)
            for m in range(1, n + 1):
                assert np.max(np.abs(spectral._lowest(refl, m) - full[:m])) <= 1e-13

    def test_fold_unfold_round_trip(self, gs5, grid2048, rng):
        diag, off = discretize_weinstein(gs5.sample(grid2048))
        refl = spectral._Reflection(diag, off)
        n = diag.size
        x = rng.standard_normal(n)
        even, odd = refl.fold(x)
        assert (even.size, odd.size) == (n // 2 + 1, n // 2)
        back = unfold(refl, even, 0) + unfold(refl, odd, 1)
        assert np.max(np.abs(back - x)) <= 4.0 * np.finfo(float).eps * np.max(np.abs(x))
        assert np.linalg.norm(np.concatenate([even, odd])) == pytest.approx(
            np.linalg.norm(x), rel=1e-14)
        # each half is T in its basis: T unfold(u) = unfold(T_half u)
        for parity, (d, o) in enumerate(refl.halves):
            u = rng.standard_normal(d.size)
            lhs = tridiagonal_apply(diag, off, unfold(refl, u, parity))
            rhs = unfold(refl, tridiagonal_apply(d, o, u), parity)
            assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.max(np.abs(lhs))

    def test_more_eigenpairs_than_nodes_are_refused(self, gs5):
        # the halves hold 8 and 7 eigenvalues: all 15 of T, not 16
        prof = gs5.sample(make_grid(L50, 16))
        refl = spectral._Reflection(*discretize_weinstein(prof))
        with pytest.raises(ValueError, match="at most 15 eigenpairs"):
            spectral._lowest(refl, 16)

    def test_asymmetric_diagonal_is_refused(self, gs5, grid2048):
        diag, off = discretize_weinstein(gs5.sample(grid2048))
        skewed = diag.copy()
        skewed[0] = np.nextafter(skewed[0], np.inf)
        with pytest.raises(ValueError, match="mirror-symmetric"):
            spectral._Reflection(skewed, off)


class TestConstraintParity:
    @pytest.mark.parametrize("N", [16, 1000, 1024, 1500, 16384])
    @pytest.mark.parametrize("p", [4.1, 5.0, 30.0, 100.0])
    def test_kappa_is_even_and_the_translation_mode_odd_to_the_bit(self, p, N):
        # on T's nodes, nodes[1:]: each constraint lives in one half of T, and
        # its fold into the other half is exactly zero
        gs = GroundState(p, critical_speed(p))
        prof = gs.sample(make_grid(L50, N))
        kappa, dphi = kappa_closed_form(prof).values[1:], prof.phi_x[1:]
        assert np.array_equal(kappa, kappa[::-1])
        assert np.array_equal(dphi, -dphi[::-1])
        refl = spectral._Reflection(*discretize_weinstein(prof))
        assert not np.any(refl.fold(kappa)[1]) and not np.any(refl.fold(dphi)[0])


class TestConstrainedMinimum:
    def test_kappa_constraint_minimum_matches_inverse_criterion(self, gs5, grid2048):
        # the form minimum on the kappa-orthogonal complement is negative
        # exactly when <L^{-1} kappa, kappa> > 0; both paths must agree
        kap = kappa_closed_form(gs5.sample(grid2048))
        rep = constrained_form_minimum(gs5.sample(grid2048))
        pairing = inverse_pairing(gs5, kap)
        assert pairing > 0.0
        assert rep.constrained_min < 0.0
        assert rep.constrained_min > rep.raw_min

    @pytest.mark.parametrize("N, resolved", [(16, False), (32, False), (1024, True)])
    def test_report_carries_its_grid_kh(self, gs5, N, resolved):
        # k h <= 1 decides whether coercivity's claim grid resolves phi_c
        grid = make_grid(L50, N)
        rep = constrained_form_minimum(gs5.sample(grid))
        assert rep.kh == gs5.decay_rate * grid.h
        assert rep.resolved is resolved

    def test_singular_banded_solve_is_typed(self):
        # T - shift = [[1, 1], [1, 1]] is singular
        with pytest.raises(EigenSolveError):
            _shifted_solve(np.ones(2), np.ones(1), 0.0, np.ones(2))

    @pytest.mark.parametrize("columns", [1, 2])
    @pytest.mark.parametrize("where", ["zero", "mid_bracket", "near_eigenvalue"])
    @pytest.mark.parametrize("N", [1024, 16384])
    def test_shifted_solve_matches_solve_banded(self, gs5, N, where, columns, rng):
        # reference: scipy's solve_banded on the assembled 3 x n band
        diag, off = discretize_weinstein(gs5.sample(make_grid(L50, N)))
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

    @pytest.mark.parametrize("p", [4.5, 5.0, 6.0, 10.0, 30.0])
    def test_matches_dense_reference(self, p):
        # reference: the full T projected onto the complement of both
        # constraints, with no use of the halves
        gs = GroundState(p, critical_speed(p))
        grid = make_grid(L50, 1024)
        banded = constrained_form_minimum(gs.sample(grid)).constrained_min
        dense = dense_constrained_minimum(gs, grid, coercivity_constraints(gs, grid))
        assert banded == pytest.approx(dense, rel=1e-10)

    @pytest.mark.parametrize("N", [1024, 16384])
    @pytest.mark.parametrize("p", [4.1, 4.5, 5.0, 6.0, 10.0])
    def test_newton_matches_bisection_reference(self, p, N, monkeypatch):
        # Newton stops on a bracket of 2 tol, tol = 8 eps max|diag|; bisection
        # runs to the last representable midpoint
        gs = GroundState(p, critical_speed(p))
        grid = make_grid(L50, N)
        probes, solves = counting_secular(monkeypatch), []

        def counting_solve(diag, off, shift, rhs):
            solves.append(shift)
            return _shifted_solve(diag, off, shift, rhs)

        monkeypatch.setattr(spectral, "_shifted_solve", counting_solve)
        newton = constrained_form_minimum(gs.sample(grid)).constrained_min
        # bisection takes 58-60 steps; Newton from the even bracket's
        # midpoint 7-8, and the two bound states 2-3 solves each
        assert len(probes) <= 8 and len(solves) - len(probes) <= 6
        assert set(probes) == {N // 2}  # the even half holds the minimum
        tol = spectral._resolution(discretize_weinstein(gs.sample(grid))[0])
        assert abs(newton - bisection_constrained_minimum(gs, grid)) <= 2.0 * tol

    def test_far_bump_closes_the_bracket(self):
        # a constraint that barely touches the ground mode puts the minimum
        # 1-2 tol above lambda_0 = -21.88, where an ulp of mu is a tenth of
        # tol: a probe 2 tol across the root rounds to a bracket just wider
        # than 2 tol, and such a search stalled until the probe cap
        gs = GroundState(10.0, critical_speed(10.0))
        grid = make_grid(L50, 128)
        diag, off = discretize_weinstein(gs.sample(grid))
        refl = spectral._Reflection(diag, off)
        tol = spectral._resolution(diag)
        d, o = refl.halves[0]
        w = eigh_tridiagonal(d, o, eigvals_only=True, select="i", select_range=(0, 1))
        x = grid.nodes[1:]
        for centre, width in ((19.6, 23.0), (30.0, 5.0)):
            q = refl.fold(np.exp(-((np.abs(x) - centre) ** 2) / width))[0]
            q /= np.linalg.norm(q)
            # reference: bisection on the sign of the secular function
            lo, hi = w
            while lo < (mid := 0.5 * (lo + hi)) < hi:
                lo, hi = (lo, mid) if q @ _shifted_solve(d, o, mid, q) > 0.0 else (mid, hi)
            minimum = spectral._secular_root(d, o, q, w[0], w[1], tol)
            assert abs(minimum - hi) <= 2.0 * tol
            assert minimum - w[0] <= 3.0 * tol

    def test_probe_cap_is_typed(self, gs5, grid2048, monkeypatch):
        monkeypatch.setattr(spectral, "_SECULAR_MAX_PROBES", 2)
        with pytest.raises(EigenSolveError, match="not bracketed within 2 probes"):
            constrained_form_minimum(gs5.sample(grid2048))

    def test_non_finite_secular_function_is_typed(self, gs5, grid2048, monkeypatch):
        # a nan solve fails the certificate's residuals, then the first probe
        def nan_solve(diag, off, shift, rhs):
            return np.full(np.shape(rhs), np.nan)

        monkeypatch.setattr(spectral, "_shifted_solve", nan_solve)
        with pytest.raises(EigenSolveError, match="non-finite secular function at shift"):
            constrained_form_minimum(gs5.sample(grid2048))

    def test_resolution_sequence_beyond_dense_size(self, gs5):
        # N = 16384 is four times the size the dense projection could take;
        # the kappa-constrained minimum rises toward its O(h^2) limit from below
        mins = [constrained_form_minimum(gs5.sample(make_grid(L50, N))).constrained_min
                for N in (2048, 4096, 8192, 16384)]
        assert all(a < b for a, b in zip(mins, mins[1:]))
        assert mins[-1] < 0.0

    def test_odd_probe_at_p100(self, monkeypatch):
        # at p = 100 on N = 16384 the certificate fails: T-'s lowest eigenvalue
        # is -4.08, below the even minimum -1.495, so one probe of the odd
        # half at the even minimum decides that the odd minimum lies above it.
        # Reference: the value of the k-constraint secular search on the
        # full T that this reduction replaced
        gs = GroundState(100.0, critical_speed(100.0))
        grid = make_grid(L50, 16384)
        calls, probes = counting_lowest(monkeypatch), counting_secular(monkeypatch)
        rep = constrained_form_minimum(gs.sample(grid))
        tol = spectral._resolution(discretize_weinstein(gs.sample(grid))[0])
        assert calls == [3] and probes[-1] == 8191 and probes.count(8191) == 1
        assert abs(rep.constrained_min - -1.4948371778479128) <= 2.0 * tol
        assert rep.raw_min < -4.08 < rep.constrained_min

    def test_ground_mode_constraint_falls_back_to_the_box_mode(
            self, gs5, grid2048, negative_eigvec, monkeypatch):
        # with T's ground eigenvector in place of kappa, no even constrained
        # eigenvalue lies below r^2: the search on [theta_0, r^2] returns r^2,
        # and on the brackets from the index-range eigensolves the minimum is
        # T's third eigenvalue, T+'s second, a box mode above r^2
        _, xi0 = negative_eigvec
        monkeypatch.setattr(spectral, "kappa_closed_form", lambda prof: xi0)
        calls = counting_lowest(monkeypatch)
        rep = constrained_form_minimum(gs5.sample(grid2048))
        assert calls == [3]
        tol = spectral._resolution(discretize_weinstein(gs5.sample(grid2048))[0])
        edge = essential_spectrum_edge(gs5)
        assert edge == pytest.approx(0.10294372515229, abs=1e-13)
        assert abs(rep.constrained_min - 0.10334424990141) <= 2.0 * tol
        assert rep.constrained_min - edge > 1e-4

    def test_odd_half_holds_the_minimum(self, gs5, grid2048, negative_eigvec, monkeypatch):
        # the ground eigenvector in place of kappa lifts the even minimum to the
        # box mode, and an odd bump far out in place of phi_c' barely blocks the
        # kernel mode: the odd probe is positive and the odd search runs.
        # Reference: the dense projection onto the complement of both
        _, xi0 = negative_eigvec
        x = grid2048.nodes
        bump = Field(grid2048, np.sign(x) * np.exp(-((np.abs(x) - 20.0) ** 2) / 4.0))
        prof = gs5.sample(grid2048)
        vars(prof)["phi_x"] = bump.values  # where SampledProfile caches phi_c'
        monkeypatch.setattr(spectral, "kappa_closed_form", lambda prof: xi0)
        probes = counting_secular(monkeypatch)
        rep = constrained_form_minimum(prof)
        assert probes.count(1023) > 1
        dense = dense_constrained_minimum(gs5, grid2048, {"ground": xi0, "bump": bump})
        tol = spectral._resolution(discretize_weinstein(prof)[0])
        assert abs(rep.constrained_min - dense) <= 2.0 * tol
        assert rep.constrained_min < essential_spectrum_edge(gs5)


def lowest_bracket(gs, grid, monkeypatch):
    """constrained_form_minimum with the bound states refused, so that its
    brackets come from the index-range eigensolves (_lowest)."""
    with monkeypatch.context() as patch:
        patch.setattr(spectral, "_certified_bound_states", lambda *args: None)
        return constrained_form_minimum(gs.sample(grid))


def counting_lowest(monkeypatch):
    """A list that records each _lowest call from now on."""
    calls, lowest = [], spectral._lowest

    def counting(*args):
        calls.append(args[-1])
        return lowest(*args)

    monkeypatch.setattr(spectral, "_lowest", counting)
    return calls


class TestBoundStates:
    @pytest.mark.parametrize("p", [4.1, 4.5, 5.0, 6.0, 10.0, 30.0, 100.0])
    def test_poschl_teller_levels(self, p):
        # lambda_0 = r^2 - k^2 nu^2 and 0 = r^2 - k^2 (nu - 1)^2 as identities
        gs = GroundState(p, critical_speed(p))
        bound = bound_states(gs)
        edge, k = essential_spectrum_edge(gs), gs.decay_rate
        assert (bound.nu, bound.edge, bound.kernel) == (1.0 + 2.0 / p, edge, 0.0)
        assert bound.ground == pytest.approx(edge - k ** 2 * bound.nu ** 2, rel=1e-14)
        assert abs(edge - k ** 2 * (bound.nu - 1.0) ** 2) <= 1e-14 * edge  # nu - 1 cancels
        # and the well: (p+1) phi_c^p / c = nu (nu+1) k^2 sech^2(kx) at x = 0
        assert (p + 1.0) * gs.amplitude ** p / gs.c == pytest.approx(
            bound.nu * (bound.nu + 1.0) * k ** 2, rel=1e-13)

    @pytest.mark.parametrize("p, bound", [(4.5, 1e-8), (5.0, 1e-7), (6.0, 1e-6)])
    def test_ground_value_is_the_richardson_limit(self, p, bound):
        # the FD ground eigenvalue converges at O(h^2); measured 3.4e-9,
        # 3.6e-8 and 4.7e-7 from N = 4096 and 8192
        gs = GroundState(p, critical_speed(p))
        ground = []
        for N in (4096, 8192):
            diag, off = discretize_weinstein(gs.sample(make_grid(L50, N)))
            ground.append(eigh_tridiagonal(diag, off, eigvals_only=True, select="i",
                                           select_range=(0, 0))[0])
        assert abs((4.0 * ground[1] - ground[0]) / 3.0 - bound_states(gs).ground) <= bound

    def test_inverse_iteration_from_the_ground_mode(self, gs5):
        # on the full T, from the closed-form mode at the closed-form value;
        # measured 1 - 2.3e-9
        prof = gs5.sample(make_grid(L50, 8192))
        diag, off = discretize_weinstein(prof)
        tol = spectral._resolution(diag)
        mode = prof.ground_mode[1:] / np.linalg.norm(prof.ground_mode[1:])
        _, residual, x = spectral._inverse_iteration(
            diag, off, mode, bound_states(gs5).ground, tol)
        assert residual <= tol
        assert abs(float(x @ mode)) >= 1.0 - 1e-8

    @pytest.mark.parametrize("p", [4.5, 5.0, 6.0, 10.0])
    def test_one_eigenvalue_below_the_edge_in_each_half(self, p):
        # on every default coercivity grid: the ground state in the even half,
        # the kernel in the odd one, and every box mode above r^2
        gs = GroundState(p, critical_speed(p))
        edge = essential_spectrum_edge(gs)
        for N in RESOLUTION_SEQUENCE:
            diag, off = discretize_weinstein(gs.sample(make_grid(L50, N)))
            for d, o in spectral._Reflection(diag, off).halves:
                w = eigh_tridiagonal(d, o, eigvals_only=True, select="i", select_range=(0, 1))
                assert w[0] < edge < w[1]


class TestCertifiedBoundStates:
    @pytest.mark.parametrize("L", [40.0 * math.pi, L50])
    @pytest.mark.parametrize("p", [4.5, 5.0, 6.0, 10.0])
    def test_closed_form_path_matches_the_lowest_bracket(self, p, L, monkeypatch):
        # on the coercivity grids; the Newton search stops anywhere in a 2 tol
        # bracket, so changing its ends within their accuracy moves it that far
        gs = GroundState(p, critical_speed(p))
        for N in RESOLUTION_SEQUENCE:
            grid = make_grid(L, N)
            calls = counting_lowest(monkeypatch)
            rep = constrained_form_minimum(gs.sample(grid))
            assert calls == []
            reference = lowest_bracket(gs, grid, monkeypatch)
            diag, off = discretize_weinstein(gs.sample(grid))
            tol = spectral._resolution(diag)
            assert abs(rep.constrained_min - reference.constrained_min) <= 2.0 * tol
            assert abs(rep.raw_min - reference.raw_min) <= 2.0 * tol
            w = eigh_tridiagonal(diag, off, eigvals_only=True, select="i", select_range=(0, 0))
            assert abs(rep.raw_min - w[0]) <= 2.0 * tol

    @pytest.mark.parametrize("case", ["N16", "N32", "N128", "sturm_count", "singular"])
    def test_refusal_returns_the_lowest_bracket_result(self, gs5, case, monkeypatch):
        # N = 16 and 32 do not resolve phi_c; at N = 128 the two lowest values
        # converge but the Sturm count finds one eigenvalue up to r^2
        N = int(case[1:]) if case.startswith("N") else 2048
        grid = make_grid(L50, N)
        reference = lowest_bracket(gs5, grid, monkeypatch)
        if case == "sturm_count":
            monkeypatch.setattr(spectral, "_count_up_to", lambda *args: 3)
        elif case == "singular":
            # T - lambda_0 singular at the closed-form value, which LAPACK
            # reports only on an exactly zero pivot
            ground = bound_states(gs5).ground

            def singular_at_ground(diag, off, shift, rhs):
                if shift == ground:
                    raise EigenSolveError(f"singular banded solve at shift {shift!r}")
                return _shifted_solve(diag, off, shift, rhs)

            monkeypatch.setattr(spectral, "_shifted_solve", singular_at_ground)
        calls = counting_lowest(monkeypatch)
        rep = constrained_form_minimum(gs5.sample(grid))
        assert calls == [3]
        assert rep == reference

    def test_exact_eigenvalue_shift_is_certified(self, gs5, grid2048, monkeypatch):
        # T - theta at a computed eigenvalue is singular only to working
        # precision: the iterate grows, and the values are accepted
        reference = lowest_bracket(gs5, grid2048, monkeypatch)
        diag, off = discretize_weinstein(gs5.sample(grid2048))
        w = eigh_tridiagonal(diag, off, eigvals_only=True, select="i", select_range=(0, 1))
        exact = dataclasses.replace(bound_states(gs5), ground=w[0], kernel=w[1])
        monkeypatch.setattr(spectral, "bound_states", lambda gs: exact)
        calls = counting_lowest(monkeypatch)
        rep = constrained_form_minimum(gs5.sample(grid2048))
        assert calls == []
        tol = spectral._resolution(diag)
        assert abs(rep.constrained_min - reference.constrained_min) <= 2.0 * tol


class TestNegativeDirection:
    @pytest.mark.parametrize("p", [5.0, 10.0])
    def test_closed_form_negative(self, p):
        gs = GroundState(p, critical_speed(p))
        grid = make_grid(L50, 8192)
        quad, closed = negative_direction_check(gs, grid)
        assert closed < 0.0
        assert quad < 0.0

    def test_quadrature_matches_closed_form(self, gs5):
        grid = make_grid(L50, 8192)
        quad, closed = negative_direction_check(gs5, grid)
        assert abs(closed - quad) / abs(closed) < 1e-4

    def test_amplitude_vanishes_toward_p4(self):
        # prefactor 2(2/p - 1/2) goes to zero as p -> 4 (profiles below p=4.1
        # no longer fit the default box, so the sweep stops there)
        grid = make_grid(L50, 8192)
        mags = []
        for p in (5.0, 4.5, 4.1):
            gs = GroundState(p, critical_speed(p))
            _, closed = negative_direction_check(gs, grid)
            from gbbmlab import normalized_profile_norm_sq

            scale = (1.0 - gs.omega ** 2) ** (2.0 / p - 1.5) * normalized_profile_norm_sq(p)
            mags.append(abs(closed) / scale)
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
