from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import cho_solve, cholesky, solve_triangular

from terragp import exact_gp, kernels, linalg, svgp
from terragp.datasets import from_arrays, grid_cells, grid_to_dataset
from terragp.errors import IllConditionedKernelError, InvalidConfigError, InvalidInputError
from terragp.grids import make_grid
from terragp.linalg import chol_with_jitter
from terragp.means import ConstantMean, ZeroMean
from terragp.methods import method_defaults, with_overrides
from terragp.pipeline import fit_method, make_scene, predict_grid
from terragp.synth import SynthParams

from conftest import (
    PANEL_EDGES,
    all_family_configs,
    brute_force_lml,
    brute_force_posterior,
    random_gp_problem,
)
from helpers import check_gradient, log_marginal_likelihood, peak_bytes, with_nodata


class TestLogMarginalLikelihood:
    def test_unit_density_scalar(self):
        # one point, residual 0, total variance 1/(2 pi): log density 0
        total_var = 1.0 / (2 * np.pi)
        kernel = kernels.KernelConfig(
            kernels.RBF, log_outputscale=np.log(total_var / 2)
        )
        lml = log_marginal_likelihood(
            [[0.0, 0.0]], [0.5], ConstantMean(0.5, False), kernel, total_var / 2
        )
        assert lml == pytest.approx(0.0, abs=1e-12)

    def test_scalar_gaussian_value(self):
        # residual 1, total variance 1: -log(2 pi)/2 - 1/2
        kernel = kernels.KernelConfig(kernels.RBF, log_outputscale=np.log(0.5))
        lml = log_marginal_likelihood(
            [[0.0, 0.0]], [1.0], ZeroMean(), kernel, 0.5
        )
        assert lml == pytest.approx(-0.5 * np.log(2 * np.pi) - 0.5, abs=1e-12)

    def test_matches_dense_oracle(self, rng):
        for _ in range(10):
            X, Y, mean, kernel, noise = random_gp_problem(rng, n=3)
            got = log_marginal_likelihood(X, Y, mean, kernel, noise)
            want = brute_force_lml(X, Y, mean, kernel, noise)
            assert got == pytest.approx(want, abs=1e-9)

    def test_permutation_invariant(self, rng):
        X, Y, mean, kernel, noise = random_gp_problem(rng, n=9)
        base = log_marginal_likelihood(X, Y, mean, kernel, noise)
        perm = rng.permutation(9)
        shuffled = log_marginal_likelihood(
            X[perm], Y[perm], mean, kernel, noise[perm]
        )
        assert shuffled == pytest.approx(base, abs=1e-9)


class TestLmlGradients:
    def test_matches_finite_differences(self, rng):
        for trial in range(20):
            n = int(rng.integers(3, 16))
            fam_cfg = all_family_configs(rng, jitter_params=True)[trial % 6]
            X = rng.normal(size=(n, 2))
            Y = rng.normal(size=n)
            mean = ConstantMean(rng.normal() * 0.3, learnable=True)
            sigma2 = float(np.exp(rng.normal() * 0.3 - 1.5))
            _, grads = exact_gp.lml_gradients(
                X, Y, mean, fam_cfg, np.full(n, sigma2), noise_learned=True
            )
            names = kernels.param_names(fam_cfg)
            x0 = np.concatenate(
                [kernels.get_params(fam_cfg), [mean.constant, np.log(sigma2)]]
            )
            analytic = np.array(
                [grads[nm] for nm in names]
                + [grads[exact_gp.MEAN_CONSTANT], grads[exact_gp.LOG_NOISE_VARIANCE]]
            )

            def f(v):
                k2 = kernels.with_params(fam_cfg, v[: len(names)])
                m2 = ConstantMean(v[-2], False)
                return log_marginal_likelihood(
                    X, Y, m2, k2, np.full(n, np.exp(v[-1]))
                )

            assert check_gradient(f, x0, analytic) < 1e-5

    @pytest.mark.parametrize("n", PANEL_EDGES)
    @pytest.mark.parametrize("family", range(6))
    def test_matches_finite_differences_across_panels(self, rng, n, family):
        """Against central differences where the gradient sums cross the
        row panels of `kernels.sym_gradient_sums`."""
        kernel = all_family_configs(rng, jitter_params=True)[family]
        X = rng.uniform(-2.0, 2.0, size=(n, 2))
        Y = np.sin(2.0 * X[:, 0]) + 0.3 * rng.normal(size=n)
        mean = ConstantMean(0.2, learnable=True)
        sigma2 = 0.1
        _, grads = exact_gp.lml_gradients(X, Y, mean, kernel, np.full(n, sigma2), True)
        names = kernels.param_names(kernel)
        x0 = np.concatenate([kernels.get_params(kernel), [mean.constant, np.log(sigma2)]])
        analytic = np.array(
            [grads[nm] for nm in names]
            + [grads[exact_gp.MEAN_CONSTANT], grads[exact_gp.LOG_NOISE_VARIANCE]]
        )

        def f(v):
            k2 = kernels.with_params(kernel, v[: len(names)])
            return log_marginal_likelihood(
                X, Y, ConstantMean(v[-2], False), k2, np.full(n, np.exp(v[-1]))
            )

        assert check_gradient(f, x0, analytic) < 1e-5

    def test_noise_gradient_vanishes_at_optimum(self, rng):
        # optimize only log sigma^2 for a fixed kernel, then the gradient
        # with respect to it should be near zero
        X, Y, mean, kernel, _ = random_gp_problem(rng, n=12)
        log_s = np.log(0.5)
        for _ in range(400):
            _, grads = exact_gp.lml_gradients(
                X, Y, mean, kernel, np.full(12, np.exp(log_s)), noise_learned=True
            )
            log_s += 0.01 * grads[exact_gp.LOG_NOISE_VARIANCE]
        _, grads = exact_gp.lml_gradients(
            X, Y, mean, kernel, np.full(12, np.exp(log_s)), noise_learned=True
        )
        assert abs(grads[exact_gp.LOG_NOISE_VARIANCE]) < 1e-3

    def test_duplicate_points_stay_finite(self):
        X = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
        Y = np.array([1.0, 1.0, 2.0])
        kernel = kernels.KernelConfig(kernels.RBF)
        lml, grads = exact_gp.lml_gradients(
            X, Y, ZeroMean(), kernel, np.full(3, 1e-6), noise_learned=True
        )
        assert np.isfinite(lml)
        assert all(np.isfinite(v) for v in grads.values())


def dense_reference_gradients(X, Y, mean_fn, kernel, noise_vec, noise_learned):
    """0.5 tr((a a^T - Ky^-1) dKy/dtheta) from the explicit inverse
    cho_solve(L, I) of the same jittered factor; and that jitter."""
    n = X.shape[0]
    L, jitter = chol_with_jitter(kernels.gram(kernel, X, X) + np.diag(noise_vec))
    Kinv = cho_solve((L, True), np.eye(n))
    a = cho_solve((L, True), Y - mean_fn(X))
    M = np.outer(a, a) - Kinv
    dKs = kernels.gram_gradients(kernel, X, X)
    if noise_learned:
        dKs[exact_gp.LOG_NOISE_VARIANCE] = noise_vec[0] * np.eye(n)
    grads = {name: 0.5 * np.sum(M * dK) for name, dK in dKs.items()}
    # the size of the summands, which bounds the roundoff of either sum
    scales = {name: 0.5 * np.sum(np.abs(M * dK)) for name, dK in dKs.items()}
    if mean_fn.learnable:
        grads[exact_gp.MEAN_CONSTANT] = np.sum(a)
        scales[exact_gp.MEAN_CONSTANT] = np.sum(np.abs(a))
    return grads, scales, jitter


@pytest.mark.parametrize("family", range(6))
def test_lml_gradients_match_explicit_inverse(rng, family):
    n = 200
    kernel = all_family_configs(rng, jitter_params=True)[family]
    # (noise, learned, duplicate points): a learned constant, a pinned
    # constant, a heteroscedastic vector, and duplicates with zero noise,
    # whose factor needs jitter
    cases = [
        (np.full(n, 0.05), True, False),
        (np.full(n, 0.2), False, False),
        (np.exp(rng.normal(size=n) * 0.5 - 3.0), False, False),
        (np.zeros(n), False, True),
    ]
    for noise_vec, learned, duplicates in cases:
        X = rng.uniform(-2.0, 2.0, size=(n, 2))
        if duplicates:
            X[n // 2 :] = X[: n // 2]
        Y = np.sin(2.0 * X[:, 0]) + 0.3 * rng.normal(size=n)
        mean = ConstantMean(0.2, learnable=True)
        _, got = exact_gp.lml_gradients(X, Y, mean, kernel, noise_vec, learned)
        want, scales, jitter = dense_reference_gradients(X, Y, mean, kernel, noise_vec, learned)
        assert (jitter > 0.0) == duplicates
        assert got.keys() == want.keys()
        for name in want:
            # at jitter 1e-8 the summands are ~1e8 times the gradient, and
            # neither sum is accurate beyond their roundoff
            scale = scales[name] if duplicates else abs(want[name])
            assert abs(got[name] - want[name]) <= 1e-10 * scale, (name, learned)


@pytest.mark.parametrize(
    "family, panels, grid",
    [
        (kernels.RBF, 5, False),
        (kernels.RATIONAL_QUADRATIC, 7.5, False),
        (kernels.ABS_EXP, 6, False),
        (kernels.RBF, None, True),
    ],
    ids=["rbf", "rq", "abs_exp", "rbf-grid-0.05"],
)
def test_lml_gradients_peak_memory(rng, family, panels, grid):
    """A dense epoch holds one n x n float64 array, K and then its factor
    and the inverse's triangle in its place, beside `panels` arrays of
    `linalg.ROW_PANEL` x n (the recursive inverse takes no scratch): K.copy(),
    scipy's copy inside the Cholesky and every whole dK/dtheta took 4.13
    n^2 doubles (RBF) and 5.13 (RQ) at n = 512.  On a complete 32 x 32 grid
    (n = 1024) the RBF epoch holds only 1-D Grams and n-vectors."""
    X = complete_grid(32, 32) if grid else rng.uniform(-2.0, 2.0, size=(512, 2))
    n = X.shape[0]
    Y = rng.normal(size=n)
    kernel = kernels.KernelConfig(family, log_lengthscale=-1.0)
    args = (X, Y, ConstantMean(0.0, learnable=True), kernel, np.full(n, 0.05), True)
    peak = peak_bytes(exact_gp.lml_gradients, *args)
    if grid:
        assert peak <= 0.05 * n * n * 8
    else:
        assert peak <= n * n * 8 + panels * linalg.ROW_PANEL * n * 8


@pytest.mark.parametrize("family", [kernels.RBF, kernels.RATIONAL_QUADRATIC, kernels.ABS_EXP])
def test_build_model_peak_memory(rng, family):
    """`build_model` holds one n x n array, K and then the factor in its
    place, beside panel-sized temporaries; scipy's copy inside the
    Cholesky made it 2.13 n^2 doubles, and the finite scan's n x n
    booleans added n^2 / 8."""
    n = 512
    X = rng.uniform(-2.0, 2.0, size=(n, 2))
    args = (X, rng.normal(size=n), ConstantMean(0.0, False),
            kernels.KernelConfig(family, log_lengthscale=-1.0), np.full(n, 0.05), False)
    assert peak_bytes(exact_gp.build_model, *args) <= n * n * 8 + 2 * linalg.ROW_PANEL * n * 8


def complete_grid(nx, ny):
    """Normalized cell centers of an ny x nx raster, as `grid_to_dataset` yields them."""
    return grid_to_dataset(make_grid(np.zeros((ny, nx)))).X


def holed_grid(nx, ny, missing):
    """Normalized centers of the cells of an ny x nx raster but those at
    the flat indices `missing`, which are nodata."""
    values = np.zeros((ny, nx))
    values.ravel()[missing] = -9999.0
    return grid_to_dataset(make_grid(values)).X


def gradient_term_sizes(X, Y, mean_fn, kernel, noise_vec):
    """Per gradient, the size of the terms it is the difference of:
    0.5 (|a^T dK a| + |<Ky^-1, dK>|) for a log-parameter and sum |a| for
    the mean.  Either path's roundoff scales with these, not with the
    gradient, which can be near zero."""
    n = X.shape[0]
    L, _ = chol_with_jitter(kernels.gram(kernel, X, X) + np.diag(noise_vec))
    Kinv = cho_solve((L, True), np.eye(n))
    a = Kinv @ (Y - mean_fn(X))
    dKs = kernels.gram_gradients(kernel, X, X)
    dKs[exact_gp.LOG_NOISE_VARIANCE] = noise_vec[0] * np.eye(n)
    sizes = {name: 0.5 * (abs(a @ dK @ a) + abs(np.vdot(Kinv, dK))) for name, dK in dKs.items()}
    sizes[exact_gp.MEAN_CONSTANT] = np.abs(a).sum()
    return sizes


# n = 1, panel - 1, panel, panel + 1 and 2 panel + 3 for a panel of 128
@pytest.mark.parametrize(
    "nx, ny", [(32, 32), (20, 45), (1, 30), (2, 2), (1, 1), (1, 127), (8, 16), (3, 43), (7, 37)]
)
def test_grid_lml_gradients_match_dense(rng, nx, ny):
    """The Kronecker branch against the dense path on the same points in
    shuffled order (the LML does not depend on row order), with a learned
    noise and a learnable constant mean."""
    X = complete_grid(nx, ny)
    n = X.shape[0]
    perm = rng.permutation(n)
    Y = np.sin(2.0 * X[:, 0]) * np.cos(X[:, 1]) + 0.3 * rng.normal(size=n)
    mean = ConstantMean(0.2, learnable=True)
    # (log lengthscale, noise / outputscale, tolerance).  At a noise of
    # 1e-6 s2 and ell >= 1, cond(K + s2n I) reaches about 1e9 on these
    # grids, and both paths' roundoff grows with it: 6e-7 was seen.
    cases = [(-1.0, 1.0, 1e-10), (-0.5, 1e-1, 1e-10), (0.0, 1e-2, 1e-10), (0.3, 1e-3, 1e-10),
             (1.0, 1e-6, 1e-5)]
    for log_ell, ratio, tol in cases:
        kernel = kernels.KernelConfig(
            kernels.RBF, log_lengthscale=log_ell, log_outputscale=rng.normal() * 0.5
        )
        noise = np.full(n, ratio * kernel.outputscale)
        got = exact_gp._grid_lml_gradients(X, Y, mean, kernel, noise, True)
        assert got is not None, (log_ell, ratio)
        lml, want = exact_gp.lml_gradients(X[perm], Y[perm], mean, kernel, noise, True)
        assert abs(got[0] - lml) <= tol * abs(lml)
        assert list(got[1]) == list(want)
        sizes = gradient_term_sizes(X, Y, mean, kernel, noise)
        for name in want:
            assert abs(got[1][name] - want[name]) <= tol * sizes[name], (name, log_ell, ratio)


def count_dense_factors(monkeypatch):
    """A list that grows by one on each Cholesky factor `exact_gp` takes."""
    calls = []
    real = exact_gp.chol_with_jitter

    def counted(mat):
        calls.append(mat.shape[0])
        return real(mat)

    monkeypatch.setattr(exact_gp, "chol_with_jitter", counted)
    return calls


def test_grid_branch_runs_only_on_its_inputs(rng, monkeypatch):
    X = complete_grid(6, 5)
    n = X.shape[0]
    Y = rng.normal(size=n)
    mean = ConstantMean(0.1, learnable=True)
    rbf = kernels.KernelConfig(kernels.RBF)
    noise = np.full(n, 0.1)
    perm = rng.permutation(n)
    # map-predict's stage 1: 1024 of the 4096 cells of a 64 x 64 grid
    sparse = np.sort(rng.choice(64 * 64, 1024, replace=False))
    twice = np.insert(np.arange(n), 8, 7)  # cell 7 appears twice, in its row
    dense = {
        "rows shuffled": (X[perm], Y[perm], rbf, noise),
        "heteroscedastic": (X, Y, rbf, noise * rng.uniform(0.5, 2.0, size=n)),
        "zero noise": (X, Y, rbf, np.zeros(n)),
        "scattered": (rng.uniform(-2.0, 2.0, size=(n, 2)), Y, rbf, noise),
        "cell twice": (X[twice], Y[twice], rbf, noise[twice]),
        "1024 of 64^2": (complete_grid(64, 64)[sparse], rng.normal(size=1024), rbf,
                         np.full(1024, 0.1)),
    }
    for kernel in all_family_configs()[1:]:
        dense[f"{kernel.family} {kernel.nu}"] = (X, Y, kernel, noise)
    calls = count_dense_factors(monkeypatch)
    for case, (Xc, Yc, kernel, noise_c) in dense.items():
        exact_gp.lml_gradients(Xc, Yc, mean, kernel, noise_c)
        assert calls == [Xc.shape[0]], case
        calls.clear()
    # the complete grid factors nothing; with a cell dropped, its 1 x 1 S
    exact_gp.lml_gradients(X, Y, mean, rbf, noise, noise_learned=True)
    exact_gp.lml_gradients(X[1:], Y[1:], mean, rbf, noise[1:], noise_learned=True)
    assert calls == [1]


HOLES = {
    "none": lambda nx, ny, rng: [],
    "one hole": lambda nx, ny, rng: [nx * (ny // 2) + nx // 2],
    "row": lambda nx, ny, rng: np.arange(nx) + nx * (ny // 3),
    "column": lambda nx, ny, rng: np.arange(ny) * nx + nx // 2,
    "row and hole": lambda nx, ny, rng: np.append(np.arange(nx), nx * ny - 1),
    "corner block": lambda nx, ny, rng: (
        np.arange(ny - ny // 4, ny)[:, None] * nx + np.arange(nx - nx // 4, nx)
    ).ravel(),
    "2 %": lambda nx, ny, rng: rng.choice(nx * ny, max(1, nx * ny // 50), replace=False),
    "10 %": lambda nx, ny, rng: rng.choice(nx * ny, nx * ny // 10, replace=False),
}


@pytest.mark.parametrize("holes", sorted(HOLES))
@pytest.mark.parametrize("nx, ny", [(24, 20), (12, 30)])
def test_holed_grid_lml_gradients_match_dense(rng, holes, nx, ny):
    """On a grid with cells missing, the Kronecker branch with its Schur
    correction against the dense path on the same points in shuffled
    order, with a learned noise and a learnable constant mean: the LML
    to 1e-10 relative, every gradient to 1e-10 of its terms' sizes.  No
    holes, or a missing whole row or column, leaves the complete product
    of the axes' cells, whose correction is empty."""
    X = holed_grid(nx, ny, HOLES[holes](nx, ny, rng))
    assert_grid_matches_dense(rng, X)


@pytest.mark.parametrize("edge", PANEL_EDGES)
def test_holed_grid_at_panel_edges(rng, edge):
    """Holed grids with an axis of each panel-edge length."""
    for nx, ny in ((edge, 3), (2, edge)):
        if nx * ny > 2:
            X = holed_grid(nx, ny, rng.choice(nx * ny, 2, replace=False))
            assert_grid_matches_dense(rng, X)


def assert_grid_matches_dense(rng, X):
    n = X.shape[0]
    perm = rng.permutation(n)
    Y = np.sin(2.0 * X[:, 0]) * np.cos(X[:, 1]) + 0.3 * rng.normal(size=n)
    mean = ConstantMean(0.2, learnable=True)
    # (log lengthscale, noise / outputscale, tolerance).  At a noise of
    # 1e-3 s2 the roundoff of a cond(K + s2n I) near 1e6 shows: the paths
    # differed by up to 2e-9 on a holed 259 x 3 grid, and by 1.5e-10 on
    # the complete one, which takes no correction.
    for log_ell, ratio, tol in [(-1.0, 1.0, 1e-10), (-0.5, 1e-1, 1e-10), (0.0, 1e-2, 1e-10),
                                (0.3, 1e-3, 1e-8)]:
        kernel = kernels.KernelConfig(
            kernels.RBF, log_lengthscale=log_ell, log_outputscale=rng.normal() * 0.5
        )
        noise = np.full(n, ratio * kernel.outputscale)
        got = exact_gp._grid_lml_gradients(X, Y, mean, kernel, noise, True)
        assert got is not None, (log_ell, ratio)
        lml, want = exact_gp.lml_gradients(X[perm], Y[perm], mean, kernel, noise, True)
        assert abs(got[0] - lml) <= tol * abs(lml)
        assert list(got[1]) == list(want)
        sizes = gradient_term_sizes(X, Y, mean, kernel, noise)
        for name in want:
            assert abs(got[1][name] - want[name]) <= tol * sizes[name], (name, log_ell, ratio)


def test_holed_grid_falls_back_when_its_schur_matrix_fails_to_factor(rng, monkeypatch):
    """If S factors only with jitter, or not even at the jitter ceiling,
    the epoch and the build each take exactly one dense factor and give
    the dense path's values."""
    X = holed_grid(12, 10, rng.choice(120, 6, replace=False))
    n = X.shape[0]
    Y = rng.normal(size=n)
    args = (X, Y, ConstantMean(0.0, learnable=True), kernels.KernelConfig(kernels.RBF),
            np.full(n, 0.1))
    assert exact_gp._grid_basis(X, args[3], args[4]).holes.P.shape[0] == 6
    want = exact_gp._factorize(kernels.sym_gram(args[3], X), X, Y, args[2], args[4])
    real = exact_gp.chol_with_jitter
    calls = []
    for failure in ("jitter", "ceiling"):

        def schur_fails(mat):
            calls.append(mat.shape[0])
            if mat.shape[0] == n:
                return real(mat)
            if failure == "ceiling":
                raise IllConditionedKernelError("forced")
            return real(mat)[0], 1e-8

        monkeypatch.setattr(exact_gp, "chol_with_jitter", schur_fails)
        assert exact_gp.lml_gradients(*args)[0] == want[2]
        assert calls == [6, n], failure
        model = exact_gp.build_model(*args, homoscedastic=True)
        assert calls == [6, n, 6, n] and model.chol is not None, failure
        assert model.alpha.tobytes() == want[1].tobytes()
        calls.clear()


def test_grid_detection_on_scattered_points_allocates_no_grid(rng):
    """About 3000 scattered points sorted into rows are a 'grid' of 3000
    rows of one cell each over 3000 columns: N = 9e6 cells, 72 MB of
    doubles.  Detection and the cost rule refuse it holding O(n)."""
    n = 3000
    X = rng.uniform(-2.0, 2.0, size=(n, 2))
    X = X[np.lexsort((X[:, 0], -X[:, 1]))]
    xs, ys, cells = grid_cells(X)
    assert xs.size * ys.size == n * n and cells.size == n
    noise = np.full(n, 0.1)
    rbf = kernels.KernelConfig(kernels.RBF)
    assert exact_gp._grid_basis(X, rbf, noise) is None
    assert peak_bytes(exact_gp._grid_basis, X, rbf, noise) <= 16 * n * 8


def test_grid_branch_falls_back_before_the_dense_path_needs_jitter(rng, monkeypatch):
    """Down a ladder of noise levels on a long-lengthscale grid, the branch
    returns only where the dense factor takes no jitter, and the smallest
    noises fall back to the dense path: in training, in `build_model`,
    which keeps the Cholesky factor, and in `predict_exact`, which runs
    through `_predict`."""
    X = complete_grid(16, 16)
    n = X.shape[0]
    Y = rng.normal(size=n)
    mean = ConstantMean(0.0, learnable=True)
    kernel = kernels.KernelConfig(kernels.RBF, log_lengthscale=1.0)
    K = kernels.gram(kernel, X, X)
    taken = []
    for ratio in 10.0 ** -np.arange(4, 19):
        noise = np.full(n, ratio)
        if exact_gp._grid_lml_gradients(X, Y, mean, kernel, noise, True) is not None:
            assert chol_with_jitter(K + ratio * np.eye(n))[1] == 0.0, ratio
            taken.append(ratio)
    assert 1e-6 in taken and 1e-18 not in taken
    calls = count_dense_factors(monkeypatch)
    exact_gp.lml_gradients(X, Y, mean, kernel, np.full(n, 1e-18), noise_learned=True)
    assert calls == [n]
    model = exact_gp.build_model(X, Y, mean, kernel, 1e-18, homoscedastic=True)
    assert calls == [n, n] and model.chol is not None
    dense = []
    real = exact_gp._predict
    monkeypatch.setattr(exact_gp, "_predict", lambda *args: dense.append(args) or real(*args))
    _, var = exact_gp.predict_exact(model, complete_grid(5, 5))
    assert len(dense) == 1 and np.all(var >= 0.0)


def test_hayner_on_a_scene_takes_no_dense_factor(monkeypatch):
    """hayner (RBF, learned constant noise) on a training grid, complete
    or with nodata cells, trains every epoch on the grid branch, takes its
    alpha from the same eigenbasis, and predicts its maps from it: neither
    the fit nor `predict_grid` factors or inverts an n x n matrix.  The
    only factors are the M x M Schur matrices of the M nodata cells, none
    on the complete grid."""
    scene = make_scene(SynthParams(size=16, seed=2), noise_mode="split")
    method = with_overrides(method_defaults("hayner"), epochs=4)
    calls = count_dense_factors(monkeypatch)
    inversions = []
    real = exact_gp.tri_inverse
    monkeypatch.setattr(exact_gp, "tri_inverse", lambda L: inversions.append(L) or real(L))
    for nodata in ([], [0, 9, 30, 31, 63]):
        model, stats, history = fit_method(
            method, with_nodata(scene.train, nodata), None, None, seed=0
        )
        assert model.X.shape[0] == 64 - len(nodata)
        assert len(history) == 4
        assert calls == [len(nodata)] * (5 if nodata else 0)  # four epochs and the build
        assert model.chol is None
        mean, latent, _ = predict_grid(model, stats, scene.truth)
        assert calls == [len(nodata)] * (6 if nodata else 0) and inversions == []
        calls.clear()
        assert np.all(np.isfinite(mean.values)) and np.all(latent.values >= 0.0)


def dense_posterior(X, Y, mean_fn, kernel, noise, Xstar):
    """(alpha, mean, latent variance) from a scipy Cholesky of K + s2n I."""
    L = cholesky(kernels.gram(kernel, X, X) + noise * np.eye(X.shape[0]), lower=True)
    alpha = cho_solve((L, True), Y - mean_fn(X))
    Ks = kernels.gram(kernel, X, Xstar)
    V = solve_triangular(L, Ks, lower=True)
    var = np.maximum(kernel.outputscale - np.sum(V * V, axis=0), 0.0)
    return alpha, mean_fn(Xstar) + Ks.T @ alpha, var


@pytest.mark.parametrize("nx, ny", [(7, 5), (40, 48), (1, 30), (16, 16)])
def test_grid_posterior_matches_dense_oracle(rng, small_panels, nx, ny):
    """An RBF model with one constant noise on a grid, complete or with a
    twentieth of its cells missing, holds no Cholesky factor.  Its alpha,
    and `predict_exact`'s mean and variance on a query grid and on
    scattered queries across panel boundaries, agree with a dense
    Cholesky.  The largest drifts seen were 7e-13 of max |alpha|, 4e-13
    of max |mean| and 4e-14 of the outputscale on complete grids, and
    1.6e-12, 7e-13 and 6.5e-14 with holes."""
    for holes in (0, max(1, nx * ny // 20)):
        X = holed_grid(nx, ny, rng.choice(nx * ny, holes, replace=False))
        n = X.shape[0]
        for _ in range(3):
            kernel = kernels.KernelConfig(
                kernels.RBF, log_lengthscale=rng.uniform(-1.5, 0.0),
                log_outputscale=rng.normal() * 0.5,
            )
            noise = rng.uniform(0.01, 0.5) * kernel.outputscale
            Y = np.sin(2.0 * X[:, 0]) * np.cos(X[:, 1]) + 0.3 * rng.normal(size=n)
            mean_fn = ConstantMean(rng.normal() * 0.3, learnable=True)
            model = exact_gp.build_model(
                X, Y, mean_fn, kernel, noise, homoscedastic=True
            )
            assert model.chol is None
            queries = {
                "grid": complete_grid(2 * nx + 1, ny + 3) * 1.2,
                "scattered": rng.uniform(-2.0, 2.0, size=(3 * small_panels + 37, 2)),
            }
            for case, Xstar in queries.items():
                alpha, want_mean, want_var = dense_posterior(X, Y, mean_fn, kernel, noise, Xstar)
                assert np.abs(model.alpha - alpha).max() <= 1e-11 * np.abs(alpha).max()
                mean, var = exact_gp.predict_exact(model, Xstar)
                assert mean.tobytes() == model.predict_mean(Xstar).tobytes(), case
                assert np.abs(mean - want_mean).max() <= 1e-11 * np.abs(want_mean).max(), case
                assert np.abs(var - want_var).max() <= 1e-12 * kernel.outputscale, case


def test_grid_predict_peak_memory(rng):
    """On a 48 x 48 training grid (n = 2304) and a 96 x 128 query grid
    (four panels of the variance), prediction holds no n x n array and no
    q x n Gram: first the mean's (96 + 128) x n axis factors, then one
    panel of cross-Grams, beside q-sized vectors."""
    X = complete_grid(48, 48)
    n = X.shape[0]
    kernel = kernels.KernelConfig(kernels.RBF, log_lengthscale=-1.0)
    model = exact_gp.build_model(
        X, rng.normal(size=n), ConstantMean(0.0, False), kernel, 0.05,
        homoscedastic=True,
    )
    Xstar = complete_grid(96, 128)
    q = Xstar.shape[0]
    assert q > 3 * exact_gp._PANEL_BYTES // (8 * 3 * 48)
    peak = peak_bytes(exact_gp.predict_exact, model, Xstar)
    factors = (96 + 128) * n * 8
    assert peak <= max(factors, exact_gp._PANEL_BYTES) + 8 * q * 8
    assert peak <= n * n * 8 / 4


PREDICTORS = pytest.mark.parametrize(
    "predict", [exact_gp.predict_exact, exact_gp.ExactGpModel.predict_mean],
    ids=["predict_exact", "predict_mean"],
)


class TestPredict:
    def test_interpolates_noise_free_point(self, rng):
        X = rng.normal(size=(5, 2))
        Y = rng.normal(size=5)
        kernel = kernels.KernelConfig(kernels.RBF, log_lengthscale=0.3)
        model = exact_gp.build_model(
            X, Y, ZeroMean(), kernel, np.zeros(5), homoscedastic=True
        )
        mean, var = exact_gp.predict_exact(model, X)
        np.testing.assert_allclose(mean, Y, atol=1e-6)
        np.testing.assert_allclose(var, 0.0, atol=1e-8)

    def test_far_field_reverts_to_prior(self, rng):
        X, Y, mean_fn, kernel, noise = random_gp_problem(rng, n=6)
        model = exact_gp.build_model(
            X, Y, mean_fn, kernel, noise, homoscedastic=False
        )
        far = np.array([[500.0, -500.0]])
        mean, var = exact_gp.predict_exact(model, far)
        assert mean[0] == pytest.approx(mean_fn(far)[0], abs=1e-8)
        assert var[0] == pytest.approx(kernel.outputscale, abs=1e-8)

    def test_matches_dense_oracle_all_families(self, rng):
        for trial in range(12):
            n = int(rng.integers(2, 6))
            kernel = all_family_configs(rng, jitter_params=True)[trial % 6]
            X = rng.normal(size=(n, 2))
            Y = rng.normal(size=n)
            mean_fn = ConstantMean(rng.normal() * 0.5, False)
            noise = np.exp(rng.normal(size=n) * 0.3 - 2)
            model = exact_gp.build_model(
                X, Y, mean_fn, kernel, noise, homoscedastic=False
            )
            Xstar = rng.normal(size=(7, 2))
            mean, var = exact_gp.predict_exact(model, Xstar)
            bmean, bvar = brute_force_posterior(X, Y, mean_fn, kernel, noise, Xstar)
            np.testing.assert_allclose(mean, bmean, atol=1e-9)
            np.testing.assert_allclose(var, np.maximum(bvar, 0), atol=1e-9)

    def test_variance_never_exceeds_prior(self, rng):
        X, Y, mean_fn, kernel, noise = random_gp_problem(rng, n=10)
        model = exact_gp.build_model(
            X, Y, mean_fn, kernel, noise, homoscedastic=False
        )
        Xstar = rng.normal(size=(200, 2)) * 3
        _, var = exact_gp.predict_exact(model, Xstar)
        assert np.all(var <= kernel.outputscale + 1e-9)

    def test_extra_point_never_increases_variance(self, rng):
        for _ in range(20):
            X, Y, mean_fn, kernel, noise = random_gp_problem(rng, n=7)
            Xstar = rng.normal(size=(15, 2))
            small = exact_gp.build_model(
                X[:6], Y[:6], mean_fn, kernel, noise[:6],
                homoscedastic=False,
            )
            full = exact_gp.build_model(
                X, Y, mean_fn, kernel, noise, homoscedastic=False
            )
            _, var_small = exact_gp.predict_exact(small, Xstar)
            _, var_full = exact_gp.predict_exact(full, Xstar)
            assert np.all(var_full <= var_small + 1e-9)

    def test_heteroscedastic_constant_equals_homoscedastic(self, rng):
        X, Y, mean_fn, kernel, _ = random_gp_problem(rng, n=8)
        sigma2 = 0.07
        het = exact_gp.build_model(
            X, Y, mean_fn, kernel, np.full(8, sigma2),
            homoscedastic=False,
        )
        hom = exact_gp.build_model(
            X, Y, mean_fn, kernel, sigma2, homoscedastic=True
        )
        Xstar = rng.normal(size=(20, 2))
        m1, v1 = exact_gp.predict_exact(het, Xstar)
        m2, v2 = exact_gp.predict_exact(hom, Xstar)
        np.testing.assert_allclose(m1, m2, atol=1e-12)
        np.testing.assert_allclose(v1, v2, atol=1e-12)

    @pytest.mark.parametrize("family", range(6))
    def test_predict_mean_is_predict_exact_mean(self, rng, small_panels, family):
        """Bitwise, across panel boundaries: the noise field reads this
        mean where it once read `predict_exact`'s."""
        kernel = all_family_configs(rng, jitter_params=True)[family]
        X = rng.normal(size=(20, 2))
        noise = np.exp(rng.normal(size=20) * 0.3 - 2)
        model = exact_gp.build_model(
            X, rng.normal(size=20), ConstantMean(0.4, learnable=True), kernel, noise,
            homoscedastic=False,
        )
        Xstar = rng.normal(size=(3 * small_panels + 37, 2))
        mean = model.predict_mean(Xstar)
        assert mean.tobytes() == exact_gp.predict_exact(model, Xstar)[0].tobytes()

    @pytest.mark.parametrize("jittered", [False, True], ids=["noisy", "jittered"])
    @pytest.mark.parametrize("family", range(6))
    def test_variance_matches_triangular_solve(self, rng, monkeypatch, small_panels, family,
                                               jittered):
        """`predict_exact` forms L^-1 K* from an explicit inverse; an
        independent solve on the same factor gives the same variances to
        1e-12 of the outputscale, across panel boundaries.  The jittered
        factor (zero noise, near-duplicate points) has cond(L) ~ 1e5 and
        drifts most, up to about 7e-13; the noisy ones about 3e-15."""
        n = 200
        kernel = all_family_configs(rng, jitter_params=True)[family]
        X = rng.uniform(-2.0, 2.0, size=(n, 2))
        if jittered:
            X[n // 2 :] = X[: n // 2] + 1e-9 * rng.normal(size=(n // 2, 2))
            noise = np.zeros(n)
        else:
            noise = np.exp(rng.normal(size=n) * 0.3 - 2)
        jitters = []
        real = exact_gp.chol_with_jitter
        monkeypatch.setattr(
            exact_gp, "chol_with_jitter", lambda mat: jitters.append(real(mat)) or jitters[-1]
        )
        model = exact_gp.build_model(
            X, rng.normal(size=n), ConstantMean(0.3, False), kernel, noise,
            homoscedastic=False,
        )
        (_, jitter), = jitters
        if jittered and family not in (2, 3):  # the two exponential kernels' need none
            assert jitter > 0.0
        Xstar = rng.uniform(-2.5, 2.5, size=(3 * small_panels + 37, 2))
        _, var = exact_gp.predict_exact(model, Xstar)
        V = solve_triangular(model.chol, kernels.gram(kernel, X, Xstar), lower=True)
        want = np.maximum(kernels.gram_diag(kernel, Xstar) - np.sum(V * V, axis=0), 0.0)
        assert np.max(np.abs(var - want)) <= 1e-12 * kernel.outputscale

    @PREDICTORS
    def test_peak_memory_is_one_panel(self, rng, predict):
        """Three panels of scattered queries hold one panel of the n x q
        Gram at a time, next to the factor's inverse; the previous
        panel's Gram once stayed referenced while the next was built."""
        assert_peak_is_one_panel(rng, predict, 64, 3 * exact_gp._PANEL_BYTES // (8 * 64))

    @PREDICTORS
    def test_peak_memory_at_a_raster_shape(self, rng, predict):
        """A 128 x 128 target against n = 512: 16 panels of 1024 rows at
        4 MiB, where a 4096-row chunk held a 16 MiB Gram."""
        assert_peak_is_one_panel(rng, predict, 512, 128 * 128)


def assert_peak_is_one_panel(rng, predict, n, q):
    """`predict` of a dense RQ model at q scattered queries holds L^-1,
    one panel and q-vectors at most."""
    X = rng.uniform(-2.0, 2.0, size=(n, 2))
    kernel = kernels.KernelConfig(kernels.RATIONAL_QUADRATIC, log_lengthscale=-0.5)
    model = exact_gp.build_model(
        X, rng.normal(size=n), ConstantMean(0.0, False), kernel, np.full(n, 0.05),
        homoscedastic=True,
    )
    peak = peak_bytes(predict, model, rng.uniform(-2.0, 2.0, size=(q, 2)))
    assert peak <= n * n * 8 + exact_gp._PANEL_BYTES + 6 * q * 8


def panel_cases(rng, n, q):
    """name -> (model, queries): a dense exact RQ model on n scattered
    points, an RBF model on a complete 24 x 20 grid (`_grid_basis`) and an
    m = 64 SVGP, each with q scattered queries."""
    X = rng.uniform(-2.0, 2.0, size=(n, 2))
    rq = kernels.KernelConfig(kernels.RATIONAL_QUADRATIC, log_lengthscale=-0.5, log_alpha=0.3)
    dense = exact_gp.build_model(
        X, rng.normal(size=n), ConstantMean(0.2, False), rq, np.full(n, 0.05), True,
    )
    G = complete_grid(24, 20)
    rbf = kernels.KernelConfig(kernels.RBF, log_lengthscale=-1.0)
    grid = exact_gp.build_model(
        G, rng.normal(size=G.shape[0]), ConstantMean(0.2, False), rbf, 0.05, True,
    )
    assert grid.chol is None
    m = 64
    Lw = np.tril(rng.normal(size=(m, m)) * 0.1, -1) + np.diag(rng.uniform(0.3, 1.0, size=m))
    sparse = svgp.SvgpState(
        Z=X[:m].copy(), mvec=rng.normal(size=m), L=Lw, kernel=rq,
        mean_fn=ConstantMean(0.2, False), log_noise_var=None,
    )
    Xstar = rng.uniform(-2.2, 2.2, size=(q, 2))
    return {"dense": (dense, Xstar), "grid": (grid, Xstar), "svgp": (sparse, Xstar)}


def predictions_by_budget(monkeypatch, cases, budgets):
    """Each case's predict and predict_mean outputs under each panel budget."""
    out = []
    for budget in budgets:
        monkeypatch.setattr(exact_gp, "_PANEL_BYTES", budget)
        out.append({
            name: (*model.predict(Xs), model.predict_mean(Xs))
            for name, (model, Xs) in cases.items()
        })
    return out


@pytest.mark.parametrize("q", [5 * 64 + 37, 5 * 64 + 1], ids=["q-37", "q-1"])
def test_panelling_leaves_every_bit(rng, monkeypatch, q):
    """`predict_exact` on dense and grid models, `predictive_qf` and
    `predict_mean` give bitwise the same arrays whatever the panel
    budget: one row (raised to `_PANEL_ALIGN` rows), 211 rows (rounded
    down to 192) and every query in one panel, with the queries no
    multiple of any panel, and one past a multiple of 64, where a panel
    of one row would be left over.  Here n = 96: see the next test for
    other n."""
    n = 96
    cases = panel_cases(rng, n, q)
    runs = predictions_by_budget(monkeypatch, cases, [8 * n, 8 * n * 211, 8 * n * q])
    for run in runs[1:]:
        for name, arrays in run.items():
            for got, want in zip(arrays, runs[0][name]):
                assert got.tobytes() == want.tobytes(), name


def test_panelling_moves_only_the_last_bit_of_some_variances(rng, monkeypatch):
    """OpenBLAS's dtrmm takes a panel's columns twelve at a time and,
    where n is not a multiple of 8, rounds its leftover columns another
    way: at n = 300, 12 to 14 of 357 dense variances differed from panel
    to panel, by up to 8e-16 of the outputscale.  The means, the grid
    model's variances and the m = 64 SVGP's stay bitwise."""
    n, q = 300, 5 * 64 + 37
    cases = panel_cases(rng, n, q)
    runs = predictions_by_budget(monkeypatch, cases, [8 * n, 8 * n * 211, 8 * n * q])
    for run in runs[1:]:
        for name, (mean, var, mean_only) in run.items():
            want_mean, want_var, _ = runs[0][name]
            assert mean.tobytes() == want_mean.tobytes() == mean_only.tobytes(), name
            assert np.abs(var - want_var).max() <= 2e-15, name
            if name != "dense":
                assert var.tobytes() == want_var.tobytes(), name


def rbf_field_model(rng, n=200):
    """An exact RBF model shaped like a stage-1 noise GP: learned constant
    mean, one constant noise, scattered training points."""
    X = rng.uniform(-2.0, 2.0, size=(n, 2))
    kernel = kernels.KernelConfig(kernels.RBF, log_lengthscale=-0.3, log_outputscale=0.4)
    Y = np.sin(2.0 * X[:, 0]) * np.cos(X[:, 1]) + 0.1 * rng.normal(size=n)
    return exact_gp.build_model(
        X, Y, ConstantMean(-0.3, learnable=True), kernel, np.full(n, 0.05),
        homoscedastic=True,
    )


def grid_mean(model, Xstar):
    return exact_gp._grid_mean(model.kernel, model.mean_fn, model.X, model.alpha, Xstar)


@pytest.mark.parametrize(
    "nx, ny", [(1, 1), (1, 40), (40, 1), (37, 53), (70, 70)],
    ids=["1x1", "1xk", "kx1", "37x53", "beyond-one-chunk"],
)
def test_grid_mean_matches_predict_exact_mean(rng, nx, ny):
    """On a complete query grid the RBF mean comes from the two axis
    factors.  It is `predict_exact`'s mean up to rounding: the worst drift
    seen on these grids was 6e-14 of max |mean|, at the 1 x 1 grid, whose
    one mean is small next to the terms it sums."""
    model = rbf_field_model(rng)
    Xstar = complete_grid(nx, ny) * 1.3
    grid = grid_mean(model, Xstar)
    assert grid is not None
    mean = model.predict_mean(Xstar)
    assert mean.tobytes() == grid.tobytes()
    want = exact_gp.predict_exact(model, Xstar)[0]
    assert np.abs(mean - want).max() <= 5e-13 * np.abs(want).max()


def test_off_grid_mean_is_bitwise_predict_exact_mean(rng):
    """Every input outside the grid branch takes the dense panels."""
    model = rbf_field_model(rng, n=20)
    Xstar = complete_grid(6, 5)
    perm = rng.permutation(Xstar.shape[0])
    wide = complete_grid(exact_gp._GRID_MEAN_MAX_AXES, 1)  # nx + ny one past the bound
    cases = {
        "rows shuffled": (model, Xstar[perm]),
        "cell dropped": (model, Xstar[:-1]),
        "scattered": (model, rng.normal(size=(40, 2))),
        "nx + ny > bound": (model, wide),
    }
    for kernel in all_family_configs(rng, jitter_params=True)[1:]:
        other = replace(model, kernel=kernel)
        cases[f"{kernel.family} {kernel.nu}"] = (other, Xstar)
    for case, (m, Xs) in cases.items():
        assert grid_mean(m, Xs) is None, case
        mean = m.predict_mean(Xs)
        assert mean.tobytes() == exact_gp.predict_exact(m, Xs)[0].tobytes(), case


def test_grid_mean_rejects_non_finite_coordinates(rng):
    model = rbf_field_model(rng, n=20)
    xx, yy = np.meshgrid([0.0, 1.0, np.inf], [0.0, 1.0])
    Xstar = np.column_stack([xx.ravel(), yy.ravel()])
    with pytest.raises(InvalidInputError, match="finite"):
        model.predict_mean(Xstar)


class TestFitExact:
    def test_table_configs(self):
        tomita = method_defaults("tomita")
        assert tomita.kernel_family == kernels.ABS_EXP
        assert tomita.learning_rate == 0.1 and tomita.epochs == 40
        hayner = method_defaults("hayner")
        assert hayner.kernel_family == kernels.RBF
        assert hayner.learning_rate == 0.1 and hayner.epochs == 50
        ours = method_defaults("ours-exact")
        assert ours.kernel_family == kernels.RATIONAL_QUADRATIC
        assert ours.learning_rate == 0.1 and ours.epochs == 30

    def test_recovers_lengthscale(self, rng):
        # draw from a known RBF GP and check the fitted lengthscale
        n = 200
        true_l = 0.5
        X = rng.uniform(-2, 2, size=(n, 2))
        kernel = kernels.KernelConfig(kernels.RBF, log_lengthscale=np.log(true_l))
        K = kernels.gram(kernel, X, X) + 1e-10 * np.eye(n)
        f = np.linalg.cholesky(K) @ rng.standard_normal(n)
        Y = f + 0.1 * rng.standard_normal(n)
        data = from_arrays(X, Y)
        method = method_defaults("hayner")
        model = exact_gp.fit_exact(data, method, seed=0)
        # the data were normalized; undo the x-scaling on the lengthscale
        fitted_l = model.kernel.lengthscale * data.stats.x_std.mean()
        assert abs(np.log(fitted_l) - np.log(true_l)) < 0.3

    def test_caller_mean_not_mutated(self, rng):
        data = from_arrays(rng.normal(size=(16, 2)), rng.normal(size=16) + 3.0)
        method = with_overrides(method_defaults("hayner"), epochs=5)
        cm = ConstantMean(0.0, learnable=True)
        model = exact_gp.fit_exact(data, method, seed=0, mean_fn=cm)
        assert cm.constant == 0.0
        assert model.mean_fn is not cm
        assert model.mean_fn.constant != 0.0

    def test_heteroscedastic_requires_noise_vector(self, rng):
        data = from_arrays(rng.normal(size=(10, 2)), rng.normal(size=10))
        with pytest.raises(InvalidConfigError):
            exact_gp.fit_exact(data, method_defaults("ours-exact"), seed=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_noise_vector_is_input_error(self, rng, bad):
        data = from_arrays(rng.normal(size=(20, 2)), rng.normal(size=20))
        v = np.full(20, 0.1)
        v[3] = bad
        with pytest.raises(InvalidInputError, match=r"noise_vector\[3\]"):
            exact_gp.fit_exact(
                data, method_defaults("ours-exact"), seed=0, mean_fn=ZeroMean(),
                noise_vector=v,
            )

    def test_fixed_noise_not_learned(self, rng):
        data = from_arrays(rng.normal(size=(12, 2)), rng.normal(size=12))
        method = with_overrides(
            method_defaults("tomita"), epochs=5, fixed_noise_var=0.123
        )
        model = exact_gp.fit_exact(data, method, seed=0)
        np.testing.assert_allclose(model.noise_var, 0.123)

    def test_loss_history_length_matches_epochs(self, rng):
        data = from_arrays(rng.normal(size=(10, 2)), rng.normal(size=10))
        method = with_overrides(method_defaults("tomita"), epochs=7)
        model = exact_gp.fit_exact(data, method, seed=0)
        assert len(model.loss_history) == 7

    def test_same_seed_bitwise_identical(self, rng):
        data = from_arrays(rng.normal(size=(15, 2)), rng.normal(size=15))
        method = with_overrides(method_defaults("hayner"), epochs=6)
        a = exact_gp.fit_exact(data, method, seed=3)
        b = exact_gp.fit_exact(data, method, seed=3)
        assert a.kernel == b.kernel
        np.testing.assert_array_equal(a.noise_var, b.noise_var)
        np.testing.assert_array_equal(a.alpha, b.alpha)
