import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from terragp import kernels
from terragp.errors import InvalidConfigError, InvalidInputError
from terragp.linalg import chol_with_jitter

from conftest import all_family_configs, family_id

FAMILY_CONFIGS = all_family_configs()


class TestKernelValues:
    def test_rbf_identity(self):
        cfg = kernels.KernelConfig(kernels.RBF)
        assert kernels.eval_kernel(cfg, (0, 0), (0, 0)) == 1.0

    def test_rbf_unit_diagonal_offset(self):
        # ||d||^2 = 2, l = 1 -> exp(-1)
        cfg = kernels.KernelConfig(kernels.RBF)
        val = kernels.eval_kernel(cfg, (0, 0), (1, 1))
        assert val == pytest.approx(np.exp(-1.0), abs=1e-12)

    def test_rq_halving_point(self):
        # (1 + 2 / (2*1*1))^-1 = 0.5
        cfg = kernels.KernelConfig(kernels.RATIONAL_QUADRATIC)
        val = kernels.eval_kernel(cfg, (0, 0), (1, 1))
        assert val == pytest.approx(0.5, abs=1e-12)

    def test_abs_exp_unit_distance(self):
        cfg = kernels.KernelConfig(kernels.ABS_EXP)
        val = kernels.eval_kernel(cfg, (0, 0), (1, 0))
        assert val == pytest.approx(np.exp(-1.0), abs=1e-12)

    def test_matern32_unit_distance(self):
        cfg = kernels.KernelConfig(kernels.MATERN, nu=1.5)
        val = kernels.eval_kernel(cfg, (0, 0), (1, 0))
        expected = (1 + np.sqrt(3)) * np.exp(-np.sqrt(3))
        assert val == pytest.approx(expected, abs=1e-12)

    def test_outputscale_multiplies(self):
        cfg = kernels.KernelConfig(kernels.RBF, log_outputscale=np.log(2.5))
        assert kernels.eval_kernel(cfg, (0, 0), (0, 0)) == pytest.approx(2.5)

    def test_non_finite_input_rejected(self):
        cfg = kernels.KernelConfig(kernels.RBF)
        with pytest.raises(InvalidInputError):
            kernels.eval_kernel(cfg, (np.nan, 0), (0, 0))
        with pytest.raises(InvalidInputError):
            kernels.gram(cfg, [[np.inf, 0]], [[0, 0]])

    def test_unknown_family_rejected(self):
        with pytest.raises(InvalidConfigError):
            kernels.KernelConfig("periodic")

    def test_bad_matern_nu_rejected(self):
        with pytest.raises(InvalidConfigError):
            kernels.KernelConfig(kernels.MATERN, nu=2.0)


class TestGramMatrix:
    def test_single_point(self):
        cfg = kernels.KernelConfig(kernels.RBF, log_outputscale=np.log(3.0))
        G = kernels.gram(cfg, [[1.0, 2.0]], [[1.0, 2.0]])
        assert G.shape == (1, 1)
        assert G[0, 0] == pytest.approx(3.0)

    def test_symmetric_for_equal_sets(self, rng):
        pts = rng.normal(size=(3, 2))
        for cfg in all_family_configs():
            G = kernels.gram(cfg, pts, pts)
            np.testing.assert_allclose(G, G.T, rtol=0, atol=0)
            np.testing.assert_allclose(np.diag(G), cfg.outputscale, atol=1e-12)

    def test_swap_is_transpose(self, rng):
        A = rng.normal(size=(4, 2))
        B = rng.normal(size=(6, 2))
        for cfg in all_family_configs():
            np.testing.assert_allclose(
                kernels.gram(cfg, A, B), kernels.gram(cfg, B, A).T, atol=0
            )

    def test_empty_set_gives_empty_matrix(self):
        cfg = kernels.KernelConfig(kernels.RBF)
        G = kernels.gram(cfg, np.zeros((0, 2)), np.zeros((5, 2)))
        assert G.shape == (0, 5)


@pytest.mark.parametrize("family", [kernels.RBF, kernels.RATIONAL_QUADRATIC])
def test_gram_peak_memory_is_one_matrix(rng, family):
    """`gram` evaluates the profile in place on its own squared distances,
    so it holds one q x n array; r2 beside K (beside RQ's base) was two
    (three)."""
    A, B = rng.normal(size=(600, 2)), rng.normal(size=(500, 2))
    cfg = kernels.KernelConfig(family, log_lengthscale=0.3, log_alpha=0.2)
    kernels.gram(cfg, A, B)  # warm any lazy set-up
    tracemalloc.start()
    try:
        kernels.gram(cfg, A, B)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * A.shape[0] * B.shape[0] * 8


class TestInvariants:
    def test_symmetry_random_pairs(self, rng):
        for cfg in all_family_configs(rng, jitter_params=True):
            a = rng.normal(size=(1000, 2))
            b = rng.normal(size=(1000, 2))
            k_ab = np.array([kernels.eval_kernel(cfg, a[i], b[i]) for i in range(20)])
            k_ba = np.array([kernels.eval_kernel(cfg, b[i], a[i]) for i in range(20)])
            np.testing.assert_array_equal(k_ab, k_ba)
            # vectorized check over the full thousand
            G1 = np.diag(kernels.gram(cfg, a, b))
            G2 = np.diag(kernels.gram(cfg, b, a))
            np.testing.assert_array_equal(G1, G2)

    def test_diagonal_equals_outputscale(self, rng):
        for cfg in all_family_configs(rng, jitter_params=True):
            pts = rng.normal(size=(50, 2))
            diag = np.diag(kernels.gram(cfg, pts, pts))
            np.testing.assert_allclose(diag, cfg.outputscale, atol=1e-12)

    def test_psd_with_jitter(self, rng):
        for cfg in all_family_configs():
            for _ in range(50):
                n = int(rng.integers(2, 21))
                pts = rng.normal(size=(n, 2)) * 2.0
                G = kernels.gram(cfg, pts, pts) + 1e-8 * np.eye(n)
                L, _ = chol_with_jitter(G)
                assert np.all(np.isfinite(L))

    def test_matern_half_equals_abs_exp(self, rng):
        m = kernels.KernelConfig(kernels.MATERN, log_lengthscale=0.3, nu=0.5)
        ae = kernels.KernelConfig(kernels.ABS_EXP, log_lengthscale=0.3)
        pts = rng.normal(size=(40, 2))
        qts = rng.normal(size=(40, 2))
        np.testing.assert_allclose(
            kernels.gram(m, pts, qts), kernels.gram(ae, pts, qts), atol=1e-12
        )


class TestGradients:
    def test_outputscale_gradient_is_kernel(self, rng):
        for cfg in all_family_configs(rng, jitter_params=True):
            A = rng.normal(size=(5, 2))
            B = rng.normal(size=(4, 2))
            grads = kernels.gram_gradients(cfg, A, B)
            np.testing.assert_allclose(
                grads[kernels.LOG_OUTPUTSCALE], kernels.gram(cfg, A, B), atol=0
            )

    @pytest.mark.parametrize("cfg", FAMILY_CONFIGS, ids=family_id)
    def test_fused_pass_matches_gram_bitwise(self, cfg, rng):
        cfg = replace(cfg, log_lengthscale=0.4, log_outputscale=0.3, log_alpha=0.2)
        A = rng.normal(size=(7, 2))
        B = rng.normal(size=(5, 2))
        K, grads = kernels.gram_and_gradients(cfg, kernels.sq_dists(A, B))
        np.testing.assert_array_equal(K, kernels.gram(cfg, A, B))
        want = kernels.gram_gradients(cfg, A, B)
        assert list(grads) == list(want) == kernels.param_names(cfg)
        for name in want:
            np.testing.assert_array_equal(grads[name], want[name])

    @pytest.mark.parametrize("cfg", FAMILY_CONFIGS, ids=family_id)
    @pytest.mark.parametrize("rows", [7, 0], ids=["points", "empty"])
    def test_fused_pass_with_dr2_matches_separate_calls_bitwise(self, cfg, rows, rng):
        # one sq_dists and one _profile pass give what gram and
        # gram_gradients give from two, coincident points (r2 = 0) and an
        # empty point set included
        cfg = replace(cfg, log_lengthscale=0.4, log_outputscale=0.3, log_alpha=0.2)
        B = rng.normal(size=(5, 2))
        A = np.vstack([B[:3], rng.normal(size=(4, 2))])[:rows]
        K, grads = kernels.gram_and_gradients(cfg, kernels.sq_dists(A, B))
        assert K.shape == (rows, 5)
        np.testing.assert_array_equal(K, kernels.gram(cfg, A, B))
        want = kernels.gram_gradients(cfg, A, B)
        assert list(grads) == list(want) == kernels.param_names(cfg)
        for name in want:
            np.testing.assert_array_equal(grads[name], want[name])

    @pytest.mark.parametrize("cfg", FAMILY_CONFIGS, ids=family_id)
    def test_lengthscale_gradient_zero_on_diagonal(self, cfg, rng):
        A = rng.normal(size=(6, 2))
        grads = kernels.gram_gradients(cfg, A, A)
        assert all(np.all(np.isfinite(g)) for g in grads.values())
        assert np.all(np.diag(grads[kernels.LOG_LENGTHSCALE]) == 0.0)

    @pytest.mark.parametrize("cfg", FAMILY_CONFIGS, ids=family_id)
    def test_dr2_at_coincident_points_is_the_limit(self, cfg):
        # lim dK/d(r2) as r2 -> 0, in units of s2 / l^2; the subgradient 0
        # where that limit is infinite
        limit = {"rbf": -1 / 2, "rq": -1 / 2, "abs_exp": 0.0, "matern0.5": 0.0,
                 "matern1.5": -3 / 2, "matern2.5": -5 / 6}[family_id(cfg)]
        cfg = replace(cfg, log_lengthscale=0.4, log_outputscale=0.3, log_alpha=0.2)
        A = np.array([[0.3, -1.2], [2.0, 0.5]])
        np.testing.assert_allclose(
            np.diag(kernels.gram_dr2(cfg, A, A)),
            limit * cfg.outputscale / cfg.lengthscale**2,
            rtol=1e-14,
        )

    def test_rbf_lengthscale_gradient_value(self):
        # l=1, ||d||^2=2: dk/d(log l) = exp(-1) * 2
        cfg = kernels.KernelConfig(kernels.RBF)
        grads = kernels.gram_gradients(cfg, [[0.0, 0.0]], [[1.0, 1.0]])
        assert grads[kernels.LOG_LENGTHSCALE][0, 0] == pytest.approx(
            2 * np.exp(-1.0), abs=1e-12
        )

    def test_matches_finite_differences(self, rng):
        step = 1e-5
        for cfg in all_family_configs(rng, jitter_params=True):
            A = rng.normal(size=(4, 2))
            B = rng.normal(size=(5, 2))
            names = kernels.param_names(cfg)
            grads = kernels.gram_gradients(cfg, A, B)
            x0 = kernels.get_params(cfg)
            for k, name in enumerate(names):
                xp, xm = x0.copy(), x0.copy()
                xp[k] += step
                xm[k] -= step
                numeric = (
                    kernels.gram(kernels.with_params(cfg, xp), A, B)
                    - kernels.gram(kernels.with_params(cfg, xm), A, B)
                ) / (2 * step)
                denom = np.maximum(1.0, np.abs(numeric))
                rel = np.abs(grads[name] - numeric) / denom
                assert rel.max() < 1e-5, (cfg.family, cfg.nu, name)

    def test_location_gradient_matches_fd(self, rng):
        for cfg in all_family_configs(rng, jitter_params=True):
            a = rng.normal(size=(1, 2))
            b = rng.normal(size=(1, 2))
            g = kernels.gram_dr2(cfg, a, b)[0, 0]
            h = 1e-6
            for d in range(2):
                bp, bm = b.copy(), b.copy()
                bp[0, d] += h
                bm[0, d] -= h
                numeric = (
                    kernels.gram(cfg, a, bp)[0, 0] - kernels.gram(cfg, a, bm)[0, 0]
                ) / (2 * h)
                analytic = g * 2 * (b[0, d] - a[0, d])
                assert abs(analytic - numeric) < 1e-6
