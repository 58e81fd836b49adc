from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from terragp import exact_gp, kernels, linalg, svgp
from terragp.datasets import from_arrays
from terragp.errors import InvalidConfigError, InvalidInputError
from terragp.linalg import chol_with_jitter
from terragp.means import ConstantMean, ZeroMean
from terragp.methods import method_defaults, with_overrides

from conftest import PANEL_EDGES, all_family_configs, family_id, random_gp_problem
from helpers import (
    log_marginal_likelihood, pack_gradients, pack_state, peak_bytes, unpack_state,
)


def random_state(rng, m=5, family=kernels.RATIONAL_QUADRATIC, homosc=True, mean_const=0.3):
    Z = rng.normal(size=(m, 2))
    mvec = rng.normal(size=m) * 0.5
    L = np.tril(rng.normal(size=(m, m)) * 0.2, -1) + np.diag(
        np.exp(rng.normal(size=m) * 0.2 - 1.0)
    )
    kernel = kernels.KernelConfig(
        family,
        log_lengthscale=rng.normal() * 0.2,
        log_outputscale=rng.normal() * 0.2,
        log_alpha=rng.normal() * 0.2,
    )
    return svgp.SvgpState(
        Z=Z,
        mvec=mvec,
        L=L,
        kernel=kernel,
        mean_fn=ConstantMean(mean_const, False),
        log_noise_var=np.log(0.05) if homosc else None,
    )


def prior_kzz(kernel, Z):
    """The prior covariance of the inducing values the model uses: Kzz
    with `svgp.KZZ_FLOOR` s2 on its diagonal.  Every oracle below builds
    its Kzz here, so oracle and program share one prior on u."""
    return kernels.gram(kernel, Z, Z) + svgp.KZZ_FLOOR * kernel.outputscale * np.eye(len(Z))


def unwhitened(state):
    """(mean offset, factor of S) of the state's q(u) = N(m(Z) + Lz mw,
    Lz Lw Lw^T Lz^T), with Lz from numpy's own Cholesky of Kzz."""
    Lz = np.linalg.cholesky(prior_kzz(state.kernel, state.Z))
    return Lz @ state.mvec, Lz @ state.L


def from_unwhitened(Z, mvec, L, kernel, mean_fn, log_noise_var=None):
    """The state whose q(u) is N(m(Z) + mvec, L L^T), for a lower-triangular
    L with a positive diagonal."""
    Lz = np.linalg.cholesky(prior_kzz(kernel, Z))
    return svgp.SvgpState(
        Z=Z,
        mvec=solve_triangular(Lz, mvec, lower=True),
        L=np.tril(solve_triangular(Lz, L, lower=True)),
        kernel=kernel,
        mean_fn=mean_fn,
        log_noise_var=log_noise_var,
    )


def dense_unwhitened_qf(state, X):
    """q(f) mean and unclamped variance from the unwhitened forms, with
    A = Kxz Kzz^-1 by a dense solve and S = L L^T."""
    mvec, L = unwhitened(state)
    Kzz = prior_kzz(state.kernel, state.Z)
    Kxz = kernels.gram(state.kernel, X, state.Z)
    A = np.linalg.solve(Kzz, Kxz.T).T
    S = L @ L.T
    var = (
        kernels.gram_diag(state.kernel, X)
        - np.einsum("ij,ij->i", A, Kxz)
        + np.einsum("ij,ij->i", A @ S, A)
    )
    return state.mean_fn(X) + A @ mvec, var


def dense_unwhitened_kl(state):
    """KL[N(mvec, S) || N(0, Kzz)] with dense solves and slogdet."""
    mvec, L = unwhitened(state)
    Kzz = prior_kzz(state.kernel, state.Z)
    S = L @ L.T
    m = state.num_inducing
    return 0.5 * (
        np.trace(np.linalg.solve(Kzz, S))
        + mvec @ np.linalg.solve(Kzz, mvec)
        - m
        + np.linalg.slogdet(Kzz)[1]
        - np.linalg.slogdet(S)[1]
    )


class TestInitInducing:
    def test_full_subset_is_permutation(self, rng):
        X = rng.normal(size=(9, 2))
        Z = svgp.init_inducing(X, 9, seed=4)
        assert sorted(map(tuple, Z)) == sorted(map(tuple, X))

    def test_single_point(self, rng):
        X = rng.normal(size=(5, 2))
        Z = svgp.init_inducing(X, 1, seed=0)
        assert Z.shape == (1, 2)
        assert any(np.array_equal(Z[0], x) for x in X)

    def test_deterministic(self, rng):
        X = rng.normal(size=(30, 2))
        np.testing.assert_array_equal(
            svgp.init_inducing(X, 10, seed=7), svgp.init_inducing(X, 10, seed=7)
        )

    def test_distinct_rows(self, rng):
        X = rng.normal(size=(40, 2))
        Z = svgp.init_inducing(X, 20, seed=1)
        assert len({tuple(z) for z in Z}) == 20

    def test_oversized_request_rejected(self, rng):
        with pytest.raises(InvalidConfigError):
            svgp.init_inducing(rng.normal(size=(4, 2)), 5, seed=0)


class TestPredictive:
    def test_prior_matching_state(self, rng):
        # q(u) = p(u): zero mean offset, S = Kzz
        X = rng.normal(size=(8, 2))
        kernel = kernels.KernelConfig(kernels.RATIONAL_QUADRATIC, log_outputscale=0.2)
        mean_fn = ConstantMean(0.7, False)
        Z = X[:5]
        Lz = np.linalg.cholesky(prior_kzz(kernel, Z))
        state = from_unwhitened(Z, np.zeros(5), Lz, kernel, mean_fn)
        Xs = rng.normal(size=(6, 2))
        mean, var = svgp.predictive_qf(state, Xs)
        np.testing.assert_allclose(mean, mean_fn(Xs), atol=1e-9)
        np.testing.assert_allclose(var, kernel.outputscale, atol=1e-9)

    def test_full_inducing_interpolates_exact_posterior(self, rng):
        # m = n, Z = X, S -> 0, q(u) centred on the data: the mean is the
        # posterior m + K (K + floor s2 I)^-1 (Y - m) of the floored prior,
        # which treats the floor as a noise on u
        n = 7
        X = rng.normal(size=(n, 2))
        Y = rng.normal(size=n)
        kernel = kernels.KernelConfig(kernels.RBF, log_lengthscale=0.4)
        mean_fn = ConstantMean(0.1, False)
        state = from_unwhitened(X.copy(), Y - mean_fn(X), 1e-8 * np.eye(n), kernel, mean_fn)
        mean, _ = svgp.predictive_qf(state, X)
        K = kernels.gram(kernel, X, X)
        want = mean_fn(X) + K @ np.linalg.solve(prior_kzz(kernel, X), Y - mean_fn(X))
        np.testing.assert_allclose(mean, want, atol=1e-6)

    def test_far_point_reverts_to_prior_variance(self, rng):
        state = random_state(rng, m=1)
        mean, var = svgp.predictive_qf(state, np.array([[300.0, 300.0]]))
        assert var[0] == pytest.approx(state.kernel.outputscale, abs=1e-8)

    @pytest.mark.parametrize("kernel", all_family_configs(), ids=family_id)
    def test_matches_dense_unwhitened_reference(self, rng, small_panels, kernel):
        # queries across several panel boundaries
        state = replace(random_state(rng, m=8), Z=rng.normal(size=(8, 2)) * 2, kernel=kernel)
        Xs = rng.normal(size=(3 * small_panels + 37, 2)) * 2
        mean, var = svgp.predictive_qf(state, Xs)
        ref_mean, ref_var = dense_unwhitened_qf(state, Xs)
        np.testing.assert_allclose(mean, ref_mean, rtol=1e-10)
        np.testing.assert_allclose(var, ref_var, rtol=1e-10)

    def test_peak_memory_is_one_panel(self, rng):
        """Three panels of queries hold one panel x m array at a time, next
        to one m x m array: Lz, inverted in place, the Gram multiplied by
        Lz^-1 in place, B Lw written over B once its row norms are taken,
        and the previous panel's array released before the next Gram is
        built.  Lz beside a copy of its inverse was two m x m arrays."""
        m = 32
        state = random_state(rng, m=m)
        q = 3 * exact_gp._PANEL_BYTES // (8 * m)
        peak = peak_bytes(svgp.predictive_qf, state, rng.normal(size=(q, 2)) * 2)
        # B, Lz^-1, q-sized outputs and panel-sized vectors
        assert peak <= exact_gp._PANEL_BYTES + m * m * 8 + 6 * q * 8

    def test_variance_nonnegative(self, rng):
        state = random_state(rng, m=8)
        _, var = svgp.predictive_qf(state, rng.normal(size=(100, 2)) * 2)
        assert np.all(var >= 0.0)

    def test_clamp_magnitude_small_when_well_conditioned(self, rng):
        # compute the variance without the clamp and check how far below
        # zero roundoff can push it on a benign state
        X = rng.normal(size=(20, 2)) * 2
        kernel = kernels.KernelConfig(kernels.MATERN, nu=1.5)
        Z = svgp.init_inducing(X, 10, seed=0)
        Kzz = prior_kzz(kernel, Z)
        Lz = np.linalg.cholesky(Kzz)
        state = from_unwhitened(Z, np.zeros(10), 0.1 * Lz, kernel, ZeroMean())
        _, L = unwhitened(state)
        Xs = np.vstack([X, Z])
        Ksz = kernels.gram(kernel, Xs, state.Z)
        A = np.linalg.solve(Kzz, Ksz.T).T
        raw = (
            kernels.gram_diag(kernel, Xs)
            - np.einsum("ij,ij->i", A, Ksz)
            + np.einsum("ij,ij->i", A @ (L @ L.T), A)
        )
        assert raw.min() > -1e-8


class TestExpectedLoglik:
    def test_unit_density(self):
        v = 1.0 / (2 * np.pi)
        assert svgp.expected_loglik(0.3, 0.0, 0.3, v) == pytest.approx(0.0, abs=1e-12)

    def test_variance_penalty(self):
        v = 0.7
        got = svgp.expected_loglik(1.0, v, 1.0, v)
        assert got == pytest.approx(-0.5 * np.log(2 * np.pi * v) - 0.5, abs=1e-12)

    def test_monte_carlo_oracle(self, rng):
        for _ in range(5):
            mu = rng.normal()
            s2 = float(np.exp(rng.normal() * 0.5 - 0.5))
            y = rng.normal()
            v = float(np.exp(rng.normal() * 0.5 - 1.0))
            samples = rng.normal(mu, np.sqrt(s2), size=10**6)
            logdens = -0.5 * np.log(2 * np.pi * v) - (y - samples) ** 2 / (2 * v)
            mc = logdens.mean()
            se = logdens.std() / np.sqrt(logdens.size)
            assert svgp.expected_loglik(mu, s2, y, v) == pytest.approx(mc, abs=3 * se)

    def test_nonpositive_noise_rejected(self):
        with pytest.raises(InvalidInputError):
            svgp.expected_loglik(0.0, 1.0, 0.0, 0.0)


class TestKlTerm:
    def test_zero_at_prior(self, rng):
        X = rng.normal(size=(6, 2))
        kernel = kernels.KernelConfig(kernels.RBF)
        Lz = np.linalg.cholesky(prior_kzz(kernel, X))
        state = from_unwhitened(X, np.zeros(6), Lz, kernel, ZeroMean())
        assert svgp.kl_term(state) == pytest.approx(0.0, abs=1e-9)

    def test_mean_shift_quadratic_form(self, rng):
        X = rng.normal(size=(5, 2))
        kernel = kernels.KernelConfig(kernels.RATIONAL_QUADRATIC)
        Kzz = prior_kzz(kernel, X)
        Lz = np.linalg.cholesky(Kzz)
        delta = rng.normal(size=5) * 0.4
        state = from_unwhitened(X, delta, Lz, kernel, ZeroMean())
        expected = 0.5 * delta @ np.linalg.solve(Kzz, delta)
        assert svgp.kl_term(state) == pytest.approx(expected, abs=1e-9)

    def test_nonnegative(self, rng):
        for _ in range(20):
            state = random_state(rng, m=int(rng.integers(2, 8)))
            assert svgp.kl_term(state) >= -1e-9

    def test_invariant_under_inducing_reorder(self, rng):
        state = random_state(rng, m=6)
        base = svgp.kl_term(state)
        perm = rng.permutation(6)
        mvec, L = unwhitened(state)
        S = (L @ L.T)[np.ix_(perm, perm)]
        L2, _ = chol_with_jitter(S)
        state2 = from_unwhitened(state.Z[perm], mvec[perm], L2, state.kernel, state.mean_fn)
        assert svgp.kl_term(state2) == pytest.approx(base, abs=1e-9)


class TestKzzFloor:
    def test_clustered_inducing_points_factor_at_jitter_zero(self, rng, monkeypatch):
        """Clustered inducing points under a long length-scale make Kzz
        numerically singular: unfloored, this one needs jitter 1e-8, and
        its factor then has cond 8e4.  With the floor it factors at
        jitter 0, and cond(Lz) <= sqrt(1 + m / floor), since the floored
        eigenvalues lie in [floor s2, (m + floor) s2]."""
        m = 40
        Z = 0.05 * rng.normal(size=(m, 2))
        kernel = kernels.KernelConfig(
            kernels.RBF, log_lengthscale=np.log(3.0), log_outputscale=0.5
        )
        jitters = []

        def recording(mat):
            L, jitter = chol_with_jitter(mat)
            jitters.append(jitter)
            return L, jitter

        monkeypatch.setattr(svgp, "chol_with_jitter", recording)
        Lz = svgp._kzz_factor(kernel, Z)
        assert jitters == [0.0]
        assert np.linalg.cond(Lz) <= np.sqrt(1.0 + m / svgp.KZZ_FLOOR)
        np.testing.assert_allclose(Lz @ Lz.T, prior_kzz(kernel, Z), rtol=0, atol=1e-14)


# the ELBO the trainer follows; it takes a state and returns gradient
# blocks named and laid out as the state's own, which `pack_gradients`
# flattens in `pack_state` order
ELBO_ENTRY_POINTS = pytest.mark.parametrize(
    "elbo_fn", [svgp.elbo_minibatch], ids=lambda f: f.__name__
)


class TestElbo:
    def test_peak_memory_above_the_inputs(self, rng):
        """At m = 512, b = 256 a step holds two m x m arrays at a time (Lz
        with Kzz's adjoint, then Lw's), b x m arrays and the panel-sized
        temporaries of the Kzz passes; the full-square Kzz with every
        dKzz/dtheta, the factor's copy and three adjoints took 19.0 MiB."""
        m, b = 512, 256
        state = random_state(rng, m=m, family=kernels.RATIONAL_QUADRATIC)
        state = replace(state, Z=rng.uniform(-3.0, 3.0, size=(m, 2)))
        Xb, yb = rng.uniform(-3.0, 3.0, size=(b, 2)), rng.normal(size=b)
        peak = peak_bytes(svgp.elbo_minibatch, state, Xb, yb, 4 * b, 0.05)
        assert peak <= (2 * m * m + 7 * b * m + 7 * kernels._PANEL * m) * 8

    def test_step_inverts_lz_once_and_makes_no_triangular_solve(self, rng, monkeypatch):
        """The step's two projections through Lz, B = Kxz Lz^-T and
        B_bar Lz^-1, are dtrmm products with one explicit Lz^-1: a dtrsm
        solve with b = 256 right-hand sides ran at 16 Gflop/s at m = 256,
        the product in 0.35 of its time.  So the step inverts the whole
        Lz once, beside the Cholesky reverse's diagonal blocks, and solves
        nothing with a matrix right-hand side."""
        m, b = 2 * svgp._CHOL_BLOCK, 40
        state = random_state(rng, m=m)
        Xb, yb = rng.normal(size=(b, 2)), rng.normal(size=b)
        calls = []

        def counting(name, original):
            def counted(*args, **kwargs):
                arg = args[0] if name == "tri_inverse" else args[1]
                calls.append((name, np.shape(arg)))
                return original(*args, **kwargs)

            return counted

        for name in ("tri_solve", "tri_inverse", "solve_triangular"):
            wrapper = counting(name, getattr(linalg, name))
            for module in (linalg, svgp):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, wrapper)
        svgp.elbo_minibatch(state, Xb, yb, 4 * b, 0.05)
        blocks = [(svgp._CHOL_BLOCK, svgp._CHOL_BLOCK)] * (m // svgp._CHOL_BLOCK)
        assert calls == [("tri_inverse", (m, m))] + [("tri_inverse", s) for s in blocks]

    @pytest.mark.parametrize("m", PANEL_EDGES)
    def test_gradients_match_finite_differences_across_panels(self, rng, m):
        """Where Kzz's gradient sums cross the row panels of
        `kernels.sym_gradient_sums`: each kernel hyperparameter and the
        noise against central differences, and every block along one
        random direction."""
        b = 40
        state = random_state(rng, m=m, family=kernels.RATIONAL_QUADRATIC)
        state = replace(
            state, Z=rng.uniform(-3.0, 3.0, size=(m, 2)),
            kernel=replace(state.kernel, log_lengthscale=np.log(0.8)),
        )
        Xb = rng.uniform(-3.0, 3.0, size=(b, 2))
        yb = rng.normal(size=b)
        _, grads = svgp.elbo_minibatch(state, Xb, yb, 4 * b, np.exp(state.log_noise_var))
        p0 = pack_state(state)

        def f(p):
            moved = unpack_state(state, p)
            return svgp.elbo_minibatch(moved, Xb, yb, 4 * b, np.exp(moved.log_noise_var))[0]

        h = 1e-5
        gvec = pack_gradients(state, grads)
        # the last blocks are the three kernel hyperparameters and the noise
        directions = [np.zeros(p0.size) for _ in range(4)]
        for k, d in enumerate(directions):
            d[p0.size - 4 + k] = 1.0
        d = rng.normal(size=p0.size)
        directions.append(d / np.linalg.norm(d))
        for d in directions:
            numeric = (f(p0 + h * d) - f(p0 - h * d)) / (2 * h)
            assert abs(gvec @ d - numeric) / max(1.0, abs(numeric)) < 1e-4

    def test_public_name_is_the_training_step(self):
        assert svgp.elbo_minibatch is svgp._elbo_whitened

    def test_full_batch_scale_factor_one(self, rng):
        state = random_state(rng, m=4)
        n = 11
        X = rng.normal(size=(n, 2))
        y = rng.normal(size=n)
        v = np.exp(state.log_noise_var)
        elbo, _ = svgp.elbo_minibatch(state, X, y, n, v)
        mean, s2 = dense_unwhitened_qf(state, X)
        manual = float(np.sum(svgp.expected_loglik(mean, s2, y, v))) - dense_unwhitened_kl(state)
        assert elbo == pytest.approx(manual, abs=1e-8)

    @ELBO_ENTRY_POINTS
    def test_gradients_match_finite_differences(self, rng, elbo_fn):
        for trial in range(6):
            homosc = trial % 2 == 0
            family = [kernels.RBF, kernels.RATIONAL_QUADRATIC, kernels.MATERN][trial % 3]
            m = int(rng.integers(2, 9))
            b = int(rng.integers(2, 17))
            state = random_state(rng, m=m, family=family, homosc=homosc)
            Xb = rng.normal(size=(b, 2))
            yb = rng.normal(size=b)
            noise = (
                np.exp(state.log_noise_var)
                if homosc
                else np.exp(rng.normal(size=b) * 0.3 - 2.0)
            )
            _, grads = elbo_fn(state, Xb, yb, 3 * b, noise)
            gvec = pack_gradients(state, grads)
            p0 = pack_state(state)

            def f(p):
                s2 = unpack_state(state, p)
                nv = np.exp(s2.log_noise_var) if homosc else noise
                return elbo_fn(s2, Xb, yb, 3 * b, nv)[0]

            h = 1e-5
            for i in range(p0.size):
                pp, pm = p0.copy(), p0.copy()
                pp[i] += h
                pm[i] -= h
                numeric = (f(pp) - f(pm)) / (2 * h)
                assert abs(gvec[i] - numeric) / max(1.0, abs(numeric)) < 1e-4

    def test_elbo_bounded_by_exact_lml(self, rng):
        violations = 0
        for _ in range(20):
            n, m = 12, 6
            X, Y, mean_fn, kernel, _ = random_gp_problem(rng, n=n)
            sigma2 = float(np.exp(rng.normal() * 0.3 - 1.5))
            lml = log_marginal_likelihood(X, Y, mean_fn, kernel, sigma2)
            state = random_state(rng, m=m)
            state = svgp.SvgpState(
                Z=X[:m].copy(), mvec=state.mvec, L=state.L, kernel=kernel,
                mean_fn=mean_fn, log_noise_var=np.log(sigma2),
            )
            elbo, _ = svgp.elbo_minibatch(state, X, Y, n, sigma2)
            if elbo > lml + 1e-6:
                violations += 1
        assert violations == 0

    def test_monotone_under_small_gradient_ascent(self, rng):
        state = random_state(rng, m=4)
        n = 10
        X = rng.normal(size=(n, 2))
        y = rng.normal(size=n)
        p = pack_state(state)
        prev = -np.inf
        increases = 0
        steps = 200
        for _ in range(steps):
            st = unpack_state(state, p)
            elbo, grads = svgp.elbo_minibatch(st, X, y, n, np.exp(st.log_noise_var))
            if elbo >= prev - 1e-12:
                increases += 1
            prev = elbo
            p = p + 1e-3 * pack_gradients(st, grads)
        assert increases >= 0.95 * steps

    @ELBO_ENTRY_POINTS
    def test_empty_batch_rejected(self, rng, elbo_fn):
        state = random_state(rng, m=3)
        with pytest.raises(InvalidInputError):
            elbo_fn(state, np.zeros((0, 2)), np.zeros(0), 5, 0.1)


def symbolic_chol_backward(L, L_bar):
    """Adjoint of A with respect to L = chol(A) by the dense symbolic
    formula sym(L^-T Phi(L^T tril(L_bar)) L^-1), Phi halving the diagonal
    of the lower triangle, with two full triangular solves."""
    P = np.tril(L.T @ np.tril(L_bar))
    P[np.diag_indices_from(P)] *= 0.5
    U_t = solve_triangular(L, P.T, lower=True, trans="T")
    T = solve_triangular(L, U_t.T, lower=True, trans="T")
    return 0.5 * (T + T.T)


def one_triangle(S):
    """The lower-triangular adjoint equivalent to the symmetric S:
    off-diagonal pairs folded onto the lower triangle, 2 tril(S) - diag(S)."""
    return 2.0 * np.tril(S) - np.diag(np.diag(S))


def max_rel(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


class TestCholBackward:
    """`_chol_backward` returns the one-triangle adjoint: dF/dA_ij for
    i >= j, zero above the diagonal, written over its L_bar argument."""

    def check(self, rng, L, L_bar):
        S = symbolic_chol_backward(L, L_bar)
        got = svgp._chol_backward(L, L_bar.copy())
        assert np.all(np.triu(got, 1) == 0.0)
        assert max_rel(got, one_triangle(S)) < 1e-12
        # contracted with a symmetric matrix it gives the symmetric adjoint's sum
        for _ in range(3):
            D = rng.normal(size=L.shape)
            D += D.T
            scale = np.vdot(np.abs(S), np.abs(D))
            assert abs(np.vdot(got, D) - np.vdot(S, D)) <= 1e-12 * scale

    # m straddles the block size and covers more than two blocks
    @pytest.mark.parametrize("m", [1, 2, 63, 64, 65, 127, 128, 129, 300])
    def test_blocked_reverse_matches_symbolic_formula(self, rng, m):
        A = rng.normal(size=(m, m))
        L = np.linalg.cholesky(A @ A.T / m + np.eye(m))  # well conditioned
        self.check(rng, L, rng.normal(size=(m, m)))

    def test_blocked_reverse_on_an_inducing_covariance(self, rng):
        kernel = kernels.KernelConfig(kernels.RATIONAL_QUADRATIC, log_lengthscale=np.log(0.5))
        Z = rng.uniform(-4.0, 4.0, size=(300, 2))
        Lz = np.linalg.cholesky(kernels.gram(kernel, Z, Z))
        self.check(rng, Lz, rng.normal(size=(300, 300)))

    def test_result_is_written_over_l_bar(self, rng):
        L = np.linalg.cholesky(np.eye(70) * 2.0)
        L_bar = rng.normal(size=(70, 70))
        assert svgp._chol_backward(L, L_bar) is L_bar

    def test_elbo_directional_derivative_across_blocks(self, rng):
        # m = 140 spans three blocks of the reverse; one finite difference
        # along a random direction of every parameter block
        m, b = 140, 30
        state = random_state(rng, m=m, family=kernels.RATIONAL_QUADRATIC)
        state = replace(
            state, Z=rng.uniform(-6.0, 6.0, size=(m, 2)),
            kernel=replace(state.kernel, log_lengthscale=np.log(0.6)),
        )
        Xb = rng.uniform(-6.0, 6.0, size=(b, 2))
        yb = rng.normal(size=b)
        _, grads = svgp.elbo_minibatch(state, Xb, yb, 4 * b, np.exp(state.log_noise_var))
        p0 = pack_state(state)
        d = rng.normal(size=p0.size)
        d /= np.linalg.norm(d)

        def f(t):
            moved = unpack_state(state, p0 + t * d)
            return svgp.elbo_minibatch(moved, Xb, yb, 4 * b, np.exp(moved.log_noise_var))[0]

        h = 1e-5
        numeric = (f(h) - f(-h)) / (2 * h)
        analytic = pack_gradients(state, grads) @ d
        assert abs(analytic - numeric) / max(1.0, abs(numeric)) < 1e-4


class TestInitialQ:
    @pytest.mark.parametrize("per_point", [False, True], ids=["scalar", "per_point"])
    def test_factor_inverts_the_optimal_precision(self, rng, per_point):
        n, m = 60, 25
        X = rng.uniform(-3.0, 3.0, size=(n, 2))
        Y = rng.normal(size=n)
        kernel = kernels.KernelConfig(kernels.RATIONAL_QUADRATIC, log_lengthscale=np.log(0.7))
        mean_fn = ConstantMean(0.2, False)
        noise = np.exp(rng.normal(size=n) * 0.3 - 2.0) if per_point else 0.1
        Z = X[:m].copy()
        mw, Lw = svgp._optimal_whitened_q(Z, kernel, mean_fn, X, Y, noise)
        assert np.all(np.triu(Lw, 1) == 0.0)
        assert np.all(np.diag(Lw) > 0.0)
        # dense (I + B^T V^-1 B)^-1 with B = Kxz Lz^-T
        Lz = np.linalg.cholesky(prior_kzz(kernel, Z))
        B = np.linalg.solve(Lz, kernels.gram(kernel, X, Z).T).T
        v = np.broadcast_to(noise, n)
        S_w = np.linalg.inv(np.eye(m) + B.T @ (B / v[:, None]))
        assert max_rel(Lw @ Lw.T, S_w) < 1e-12
        assert max_rel(mw, S_w @ (B.T @ ((Y - mean_fn(X)) / v))) < 1e-10
        assert Lw.flags.c_contiguous

    def test_peak_memory_above_the_inputs(self, rng, monkeypatch):
        """B = Kxz Lz^-T is written over Kxz by dtrmm with Lz inverted in
        place, and M, J M J, its factor U, U^-1 and Lw share one buffer:
        n x m plus one m x m array, beside the Kzz pass's panels and
        vectors, and no triangular solve.  Lz kept beside Kxz, B, M's
        reversed copy, U's inverse and Lw's contiguous copy took 2.6
        times n m + m^2 at n = 768, m = 512."""
        n, m = 768, 512
        X = rng.uniform(-3.0, 3.0, size=(n, 2))
        kernel = kernels.KernelConfig(kernels.RATIONAL_QUADRATIC, log_lengthscale=-1.0)
        args = (X[:m].copy(), kernel, ConstantMean(0.0, False), X, rng.normal(size=n), 0.05)
        for name in ("tri_solve", "solve_triangular"):
            if hasattr(svgp, name):
                monkeypatch.setattr(svgp, name, None)
        peak = peak_bytes(svgp._optimal_whitened_q, *args)
        assert peak <= (n * m + m * m + kernels._PANEL * m) * 8


class TestFitSvgp:
    def test_table_configs(self):
        torroba = method_defaults("torroba")
        assert torroba.kernel_family == kernels.MATERN
        assert torroba.learning_rate == 0.1 and torroba.epochs == 75
        assert torroba.batch_size == 256 and torroba.num_inducing == 1024
        ours = method_defaults("ours-variational")
        assert ours.kernel_family == kernels.RATIONAL_QUADRATIC
        assert ours.learning_rate == 0.05 and ours.epochs == 40
        assert ours.batch_size == 256 and ours.num_inducing == 1024

    def test_deterministic(self, rng):
        data = from_arrays(rng.normal(size=(40, 2)), rng.normal(size=40))
        method = with_overrides(
            method_defaults("torroba"), epochs=3, num_inducing=8, batch_size=16
        )
        a = svgp.fit_svgp(data, method, seed=5)
        b = svgp.fit_svgp(data, method, seed=5)
        np.testing.assert_array_equal(a.Z, b.Z)
        np.testing.assert_array_equal(a.mvec, b.mvec)
        np.testing.assert_array_equal(a.L, b.L)
        assert a.kernel == b.kernel

    def test_chol_diagonal_stays_positive(self, rng):
        data = from_arrays(rng.normal(size=(30, 2)), rng.normal(size=30))
        method = with_overrides(
            method_defaults("torroba"), epochs=4, num_inducing=6, batch_size=10
        )
        state = svgp.fit_svgp(data, method, seed=0)
        assert np.all(np.diag(state.L) > 0)

    def test_close_to_exact_on_known_gp(self, rng):
        # sample a surface from a known GP smooth enough for 64 inducing
        # points to cover, fit both models, compare held-out accuracy
        n = 500
        X = rng.uniform(-2, 2, size=(n, 2))
        kernel = kernels.KernelConfig(kernels.RBF, log_lengthscale=np.log(0.8))
        K = kernels.gram(kernel, X, X) + 1e-10 * np.eye(n)
        f = np.linalg.cholesky(K) @ rng.standard_normal(n)
        Y = f + 0.1 * rng.standard_normal(n)
        train = from_arrays(X[:400], Y[:400])
        Xtest_n = train.stats.normalize_points(X[400:])
        truth = Y[400:]

        exact_model = exact_gp.fit_exact(
            train, with_overrides(method_defaults("hayner"), epochs=30), seed=0
        )
        em, _ = exact_gp.predict_exact(exact_model, Xtest_n)
        exact_rmse = float(
            np.sqrt(np.mean((train.stats.denormalize_y(em) - truth) ** 2))
        )

        sparse_method = with_overrides(
            method_defaults("torroba"), kernel_family=kernels.RBF,
            epochs=40, num_inducing=64, batch_size=128,
        )
        state = svgp.fit_svgp(train, sparse_method, seed=0)
        sm, _ = svgp.predictive_qf(state, Xtest_n)
        sparse_rmse = float(
            np.sqrt(np.mean((train.stats.denormalize_y(sm) - truth) ** 2))
        )
        assert sparse_rmse <= 2.0 * exact_rmse

    @pytest.mark.parametrize("bad", [-0.1, 0.0, np.nan, np.inf])
    def test_bad_noise_vector_is_input_error(self, rng, bad):
        data = from_arrays(rng.normal(size=(20, 2)), rng.normal(size=20))
        method = with_overrides(
            method_defaults("ours-variational"), epochs=2, num_inducing=4, batch_size=8
        )
        noise = np.full(20, 0.1)
        noise[3] = bad
        with pytest.raises(InvalidInputError, match=r"noise_vector\[3\]"):
            svgp.fit_svgp(data, method, seed=0, noise_vector=noise)

    def test_heteroscedastic_requires_vector(self, rng):
        data = from_arrays(rng.normal(size=(20, 2)), rng.normal(size=20))
        method = with_overrides(
            method_defaults("ours-variational"), epochs=2, num_inducing=4, batch_size=8
        )
        with pytest.raises(InvalidConfigError):
            svgp.fit_svgp(data, method, seed=0)

    def test_prior_mean_needs_mean_fn(self, rng):
        data = from_arrays(rng.normal(size=(20, 2)), rng.normal(size=20))
        method = with_overrides(
            method_defaults("ours-variational"), epochs=2, num_inducing=4, batch_size=8
        )
        with pytest.raises(InvalidConfigError, match="prior grid"):
            svgp.fit_svgp(data, method, seed=0, noise_vector=np.full(20, 0.1))

    @pytest.mark.parametrize("unset", ["batch_size", "num_inducing"])
    def test_variational_method_needs_batch_and_inducing(self, unset):
        with pytest.raises(InvalidConfigError, match=unset):
            replace(method_defaults("torroba"), **{unset: None})

    def test_fixed_noise_not_learned(self, rng):
        data = from_arrays(rng.normal(size=(30, 2)), rng.normal(size=30))
        method = with_overrides(
            method_defaults("torroba"), epochs=3, num_inducing=6, batch_size=10,
            fixed_noise_var=0.123,
        )
        state = svgp.fit_svgp(data, method, seed=0)
        assert state.log_noise_var == np.log(0.123)
