from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from terragp import kernels, linalg
from terragp.errors import InvalidConfigError, InvalidInputError
from terragp.linalg import chol_with_jitter

from conftest import PANEL_EDGES, all_family_configs, family_id
from helpers import peak_bytes

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

    @pytest.mark.parametrize("name", [kernels.LOG_LENGTHSCALE, kernels.LOG_OUTPUTSCALE,
                                      kernels.LOG_ALPHA])
    def test_log_hyperparameters_are_bounded(self, name):
        """+-LOG_BOUND is a kernel; the next double beyond it, an infinity
        or a NaN is a configuration error naming the parameter."""
        for sign in (-1.0, 1.0):
            edge = sign * kernels.LOG_BOUND
            cfg = kernels.KernelConfig(kernels.RATIONAL_QUADRATIC, **{name: edge})
            assert getattr(cfg, name) == edge
            for bad in (np.nextafter(edge, sign * np.inf), sign * np.inf, np.nan):
                with pytest.raises(InvalidConfigError, match=name):
                    kernels.KernelConfig(kernels.RATIONAL_QUADRATIC, **{name: bad})


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
    assert peak_bytes(kernels.gram, cfg, A, B) <= 1.1 * A.shape[0] * B.shape[0] * 8


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(
    log_scale=st.floats(-300.0, 150.0), seed=st.integers(0, 2**32 - 1),
    near=st.sampled_from([None, 0.0, 1e-15, 1e-8]),
)
def test_sq_dists_has_nothing_to_clamp(log_scale, seed, near):
    """cdist sums squared differences, so no squared distance is negative,
    with coordinates from 1e-300 to 1e150 and with pairs that coincide or
    nearly do (relative offsets `near`): clamping at zero is a no-op."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(9, 2)) * 10.0**log_scale
    b = rng.normal(size=(7, 2)) * 10.0**log_scale if near is None else (
        a * (1.0 + near * rng.normal(size=a.shape))
    )
    r2 = kernels.sq_dists(a, b)
    assert np.all(np.isfinite(r2)) and np.all(r2 >= 0.0)
    assert r2.tobytes() == np.maximum(r2, 0.0).tobytes()


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

    @pytest.mark.parametrize("log_alpha", [-1.5, 0.0, 0.2, 2.0])
    def test_rq_log_alpha_gradient_against_long_double(self, log_alpha):
        # alpha K (u / (1 + u) - log1p u) for u = r2 / (2 alpha l^2) from
        # 1e-12 to 1e3.  Below u = 1 the two terms cancel to about -u^2 / 2,
        # so the relative error of any double evaluation grows as eps / u;
        # the form 1 - 1/(1 + u) - log(1 + u) is off by more than 1e4 there.
        # Above u = 1 it scales with the alpha log1p(u) ulps in the exponent
        # of K = (1 + u)^-alpha.  Both pow and exp(-alpha log1p u) for K
        # stay within 2.7 eps / u below u = 1 and 1.14 eps (1 + alpha log1p u)
        # above it.
        cfg = kernels.KernelConfig(
            kernels.RATIONAL_QUADRATIC, log_lengthscale=0.4, log_outputscale=0.3,
            log_alpha=log_alpha,
        )
        eps = np.finfo(float).eps
        u = np.logspace(-12, 3, 301)
        r2 = 2.0 * cfg.alpha * cfg.lengthscale**2 * u
        _, grads = kernels.gram_and_gradients(cfg, r2[None, :].copy())
        alpha = np.longdouble(cfg.alpha)
        u_ld = r2.astype(np.longdouble) / (2 * alpha * np.longdouble(cfg.lengthscale) ** 2)
        K_ld = np.longdouble(cfg.outputscale) * np.exp(-alpha * np.log1p(u_ld))
        want = alpha * K_ld * (u_ld / (1 + u_ld) - np.log1p(u_ld))
        rel = np.abs(grads[kernels.LOG_ALPHA][0] - want) / np.abs(want)
        small = u < 1.0
        assert np.all(rel[small] <= 3.0 * eps / u[small])
        assert np.all(rel[~small] <= 1.25 * eps * (1.0 + cfg.alpha * np.log1p(u[~small])))

    def test_rq_gradients_at_zero_and_underflow(self):
        # r2 = 0 gives exactly 0; an r2 whose K underflows gives finite zeros
        cfg = kernels.KernelConfig(kernels.RATIONAL_QUADRATIC, log_alpha=2.0)
        r2 = np.array([[0.0, 1e60, 1e300]])
        with np.errstate(all="raise", under="ignore"):
            K, grads = kernels.gram_and_gradients(cfg, r2.copy())
        assert K[0, 0] == cfg.outputscale and np.all(K[0, 1:] == 0.0)
        for name in (kernels.LOG_LENGTHSCALE, kernels.LOG_ALPHA):
            assert grads[name][0, 0] == 0.0
            assert np.all(np.isfinite(grads[name])) and np.all(grads[name][0, 1:] == 0.0)

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


class TestOneTrianglePasses:
    """`sym_gram` evaluates each entry of K(X, X) once, a row panel at a
    time, and `sym_gradient_sums` recomputes every dK/dtheta the same way
    against one triangle of an adjoint; sizes straddle the panel edges."""

    @pytest.mark.parametrize("n", PANEL_EDGES)
    @pytest.mark.parametrize("cfg", FAMILY_CONFIGS, ids=family_id)
    def test_sym_gram_is_gram_bitwise(self, rng, cfg, n):
        cfg = replace(cfg, log_lengthscale=0.4, log_outputscale=0.3, log_alpha=0.2)
        X = rng.normal(size=(n, 2))
        K = kernels.sym_gram(cfg, X)
        assert K.flags.c_contiguous
        np.testing.assert_array_equal(K, kernels.gram(cfg, X, X))

    @pytest.mark.parametrize("n", PANEL_EDGES)
    @pytest.mark.parametrize("cfg", FAMILY_CONFIGS, ids=family_id)
    def test_gradient_sums_match_full_square(self, rng, cfg, n):
        cfg = replace(cfg, log_lengthscale=0.4, log_outputscale=0.3, log_alpha=0.2)
        X = rng.normal(size=(n, 2))
        a = rng.normal(size=n)
        # an upper-triangular T, C- and Fortran-ordered, its strict lower zero
        T = np.triu(rng.normal(size=(n, n)))
        want = kernels.gram_gradients(cfg, X, X)
        for layout in (T, np.asfortranarray(T)):
            sums, quad = kernels.sym_gradient_sums(cfg, X, layout, a)
            assert list(sums) == list(quad) == kernels.param_names(cfg)
            for name, dK in want.items():
                scale = np.vdot(np.abs(T), np.abs(dK))
                assert abs(sums[name] - np.vdot(T, dK)) <= 1e-13 * scale, name
                quad_scale = np.abs(a) @ np.abs(dK) @ np.abs(a)
                assert abs(quad[name] - a @ dK @ a) <= 1e-13 * quad_scale, name
        assert kernels.sym_gradient_sums(cfg, X, T)[1] is None

    def test_gradient_sums_hold_panel_sized_temporaries(self, rng):
        n = 4 * linalg.ROW_PANEL
        X = rng.normal(size=(n, 2))
        T = np.triu(rng.normal(size=(n, n)))
        cfg = kernels.KernelConfig(kernels.RATIONAL_QUADRATIC, log_lengthscale=-1.0)
        peak = peak_bytes(kernels.sym_gradient_sums, cfg, X, T, np.ones(n))
        # the squared distances, the RQ profile's four arrays and T's panel
        assert peak <= 7 * linalg.ROW_PANEL * n * 8
