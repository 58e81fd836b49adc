"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines; the slow scene comparisons live here, so the module takes
several minutes on one core.
"""

import time

import numpy as np
import pytest

from terragp import exact_gp, kernels, metrics, modelio, pipeline, svgp, two_stage
from terragp.cli import main
from terragp.datasets import grid_to_dataset
from terragp.grids import read_asc, write_asc
from terragp.means import ConstantMean, GridInterpMean
from terragp.methods import method_defaults, with_overrides
from terragp.optim import adam_init, adam_step
from terragp.synth import SynthParams

from conftest import all_family_configs, brute_force_posterior
from helpers import log_marginal_likelihood, pack_gradients, pack_state, unpack_state
from test_metrics import brute_ause, brute_sparsification


def _report(n, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE criterion {n}: {status} - {detail}")
    assert ok, detail


def test_criterion_1_exact_posterior_oracle(rng):
    t0 = time.time()
    worst = 0.0
    for trial in range(20):
        n = int(rng.integers(2, 16))
        kernel = all_family_configs(rng, jitter_params=True)[trial % 6]
        X = rng.normal(size=(n, 2))
        Y = rng.normal(size=n)
        mean_fn = ConstantMean(rng.normal() * 0.3, False)
        noise = np.exp(rng.normal(size=n) * 0.3 - 2.0)
        model = exact_gp.build_model(
            X, Y, mean_fn, kernel, noise, homoscedastic=False
        )
        Xstar = rng.normal(size=(9, 2))
        mean, var = exact_gp.predict_exact(model, Xstar)
        bmean, bvar = brute_force_posterior(X, Y, mean_fn, kernel, noise, Xstar)
        worst = max(
            worst,
            float(np.abs(mean - bmean).max()),
            float(np.abs(var - np.maximum(bvar, 0.0)).max()),
        )
    elapsed = time.time() - t0
    _report(
        1,
        worst < 1e-9 and elapsed < 5.0,
        f"20 problems, max |delta| = {worst:.2e} (< 1e-9), {elapsed:.2f}s (< 5s)",
    )


def test_criterion_2_gradient_suite(rng):
    t0 = time.time()
    step = 1e-5

    worst_kernel = 0.0
    for trial in range(20):
        cfg = all_family_configs(rng, jitter_params=True)[trial % 6]
        A = rng.normal(size=(4, 2))
        B = rng.normal(size=(5, 2))
        grads = kernels.gram_gradients(cfg, A, B)
        x0 = kernels.get_params(cfg)
        for k, name in enumerate(kernels.param_names(cfg)):
            xp, xm = x0.copy(), x0.copy()
            xp[k] += step
            xm[k] -= step
            numeric = (
                kernels.gram(kernels.with_params(cfg, xp), A, B)
                - kernels.gram(kernels.with_params(cfg, xm), A, B)
            ) / (2 * step)
            rel = np.abs(grads[name] - numeric) / np.maximum(1.0, np.abs(numeric))
            worst_kernel = max(worst_kernel, float(rel.max()))

    worst_lml = 0.0
    for trial in range(20):
        n = int(rng.integers(3, 13))
        cfg = all_family_configs(rng, jitter_params=True)[trial % 6]
        X = rng.normal(size=(n, 2))
        Y = rng.normal(size=n)
        mean = ConstantMean(rng.normal() * 0.3, learnable=True)
        sigma2 = float(np.exp(rng.normal() * 0.3 - 1.5))
        _, grads = exact_gp.lml_gradients(
            X, Y, mean, cfg, np.full(n, sigma2), noise_learned=True
        )
        names = kernels.param_names(cfg)
        x0 = np.concatenate([kernels.get_params(cfg), [mean.constant, np.log(sigma2)]])
        analytic = np.array(
            [grads[nm] for nm in names]
            + [grads[exact_gp.MEAN_CONSTANT], grads[exact_gp.LOG_NOISE_VARIANCE]]
        )
        for i in range(x0.size):
            xp, xm = x0.copy(), x0.copy()
            xp[i] += step
            xm[i] -= step

            def f(v):
                k2 = kernels.with_params(cfg, v[: len(names)])
                return log_marginal_likelihood(
                    X, Y, ConstantMean(v[-2], False), k2, np.full(n, np.exp(v[-1]))
                )

            numeric = (f(xp) - f(xm)) / (2 * step)
            worst_lml = max(
                worst_lml, abs(analytic[i] - numeric) / max(1.0, abs(numeric))
            )

    worst_elbo = 0.0
    for trial in range(20):
        m = int(rng.integers(2, 9))
        b = int(rng.integers(2, 17))
        homosc = trial % 2 == 0
        family = [kernels.RBF, kernels.RATIONAL_QUADRATIC, kernels.MATERN][trial % 3]
        Z = rng.normal(size=(m, 2))
        L = np.tril(rng.normal(size=(m, m)) * 0.2, -1) + np.diag(
            np.exp(rng.normal(size=m) * 0.2 - 1.0)
        )
        state = svgp.SvgpState(
            Z=Z,
            mvec=rng.normal(size=m) * 0.5,
            L=L,
            kernel=kernels.KernelConfig(
                family,
                log_lengthscale=rng.normal() * 0.2,
                log_outputscale=rng.normal() * 0.2,
                log_alpha=rng.normal() * 0.2,
            ),
            mean_fn=ConstantMean(0.2, False),
            log_noise_var=np.log(0.05) if homosc else None,
        )
        Xb = rng.normal(size=(b, 2))
        yb = rng.normal(size=b)
        noise = (
            np.exp(state.log_noise_var)
            if homosc
            else np.exp(rng.normal(size=b) * 0.3 - 2.0)
        )
        _, grads = svgp.elbo_minibatch(state, Xb, yb, 3 * b, noise)
        gvec = pack_gradients(state, grads)
        p0 = pack_state(state)

        def f(p):
            st = unpack_state(state, p)
            nv = np.exp(st.log_noise_var) if homosc else noise
            return svgp.elbo_minibatch(st, Xb, yb, 3 * b, nv)[0]

        for i in range(p0.size):
            pp, pm = p0.copy(), p0.copy()
            pp[i] += step
            pm[i] -= step
            numeric = (f(pp) - f(pm)) / (2 * step)
            worst_elbo = max(worst_elbo, abs(gvec[i] - numeric) / max(1.0, abs(numeric)))

    elapsed = time.time() - t0
    worst = max(worst_kernel, worst_lml, worst_elbo)
    _report(
        2,
        worst < 1e-4 and elapsed < 30.0,
        f"kernel {worst_kernel:.2e}, lml {worst_lml:.2e}, elbo {worst_elbo:.2e} "
        f"(all < 1e-4), {elapsed:.1f}s (< 30s)",
    )


def test_criterion_3_elbo_bound(rng):
    violations = 0
    for _ in range(20):
        n, m = 14, 7
        X = rng.normal(size=(n, 2))
        Y = rng.normal(size=n)
        kernel = kernels.KernelConfig(
            kernels.RBF, log_lengthscale=rng.normal() * 0.2,
            log_outputscale=rng.normal() * 0.2,
        )
        mean_fn = ConstantMean(rng.normal() * 0.2, False)
        sigma2 = float(np.exp(rng.normal() * 0.3 - 1.5))
        lml = log_marginal_likelihood(X, Y, mean_fn, kernel, sigma2)
        L = np.tril(rng.normal(size=(m, m)) * 0.2, -1) + np.diag(
            np.exp(rng.normal(size=m) * 0.2 - 1.0)
        )
        state = svgp.SvgpState(
            Z=X[:m].copy(), mvec=rng.normal(size=m) * 0.4, L=L,
            kernel=kernel, mean_fn=mean_fn, log_noise_var=np.log(sigma2),
        )
        elbo, _ = svgp.elbo_minibatch(state, X, Y, n, sigma2)
        if elbo > lml + 1e-6:
            violations += 1

    # m = n, Z = X: Adam on q(u) alone closes the gap
    n = 10
    X = rng.normal(size=(n, 2))
    kernel = kernels.KernelConfig(kernels.RBF, log_lengthscale=0.2)
    mean_fn = ConstantMean(0.1, False)
    sigma2 = 0.1
    K = kernels.gram(kernel, X, X) + 1e-10 * np.eye(n)
    Y = np.linalg.cholesky(K) @ rng.standard_normal(n) + np.sqrt(
        sigma2
    ) * rng.standard_normal(n)
    lml = log_marginal_likelihood(X, Y, mean_fn, kernel, sigma2)
    state = svgp.SvgpState(
        Z=X.copy(), mvec=np.zeros(n), L=0.1 * np.eye(n),
        kernel=kernel, mean_fn=mean_fn, log_noise_var=np.log(sigma2),
    )
    p = pack_state(state)
    iq0 = 0  # q(u) leads the parameter layout
    iq1 = iq0 + n + n * (n + 1) // 2
    mask = np.zeros_like(p)
    mask[iq0:iq1] = 1.0
    opt = adam_init(p.size)
    for _ in range(500):
        st = unpack_state(state, p)
        elbo, grads = svgp.elbo_minibatch(st, X, Y, n, sigma2)
        pn, opt = adam_step(opt, p, -pack_gradients(st, grads) * mask, 0.1)
        p = p + (pn - p) * mask
    final_elbo, _ = svgp.elbo_minibatch(unpack_state(state, p), X, Y, n, sigma2)
    gap = lml - final_elbo
    _report(
        3,
        violations == 0 and gap < 1e-3,
        f"bound violations 0/20 (got {violations}), full-capacity gap after 500 "
        f"steps = {gap:.2e} nats (< 1e-3)",
    )


def test_criterion_4_homoscedastic_collapse():
    const_var_m2 = 0.25
    params = SynthParams(size=32, seed=0)
    scene = pipeline.make_scene(params)
    const_unc = scene.uncertainty.with_values(
        np.full_like(scene.uncertainty.values, const_var_m2)
    )
    data = grid_to_dataset(scene.train, const_unc)
    mean_fn = GridInterpMean(scene.prior, data.stats)
    ours = two_stage.fit_two_stage(
        data, method_defaults("ours-exact"), seed=0, mean_fn=mean_fn
    )
    matched = with_overrides(
        method_defaults("ours-exact"),
        heteroscedastic=False,
        fixed_noise_var=float(data.stats.normalize_var(const_var_m2)),
    )
    baseline = exact_gp.fit_exact(
        data, matched, seed=0, mean_fn=GridInterpMean(scene.prior, data.stats)
    )
    pts = scene.truth.cell_centers()
    ours_mean, _, _ = two_stage.predict_terrain(ours, data.stats, pts)
    base_mean_n, _ = exact_gp.predict_exact(
        baseline, data.stats.normalize_points(pts)
    )
    base_mean = data.stats.denormalize_y(base_mean_n)
    rmse_m = float(np.sqrt(np.mean((ours_mean - base_mean) ** 2)))
    _report(4, rmse_m < 1e-3, f"collapse RMSE = {rmse_m:.2e} m (< 1e-3)")


def test_criterion_5_table1_qualitative_ordering():
    t0 = time.time()
    inducing = 256  # n = 1024 here; the published 1024 would be a dense model
    exact_wins = 0
    var_wins = 0
    details = []
    for seed in range(5):
        params = SynthParams(size=64, seed=seed)
        scene = pipeline.make_scene(params, noise_mode="split", split_ratio=10.0)
        reports = {}
        for mid in ("tomita", "hayner", "ours-exact", "torroba", "ours-variational"):
            method = method_defaults(mid)
            if method.variational:
                method = with_overrides(method, num_inducing=inducing)
            model, stats, _ = pipeline.fit_method(
                method, scene.train, scene.uncertainty, scene.prior, seed=seed
            )
            mg, _, pg = pipeline.predict_grid(model, stats, scene.truth)
            reports[mid] = pipeline.evaluate_grids(mg, pg, scene.truth)
        oe, ot, oh = reports["ours-exact"], reports["tomita"], reports["hayner"]
        ov, tb = reports["ours-variational"], reports["torroba"]
        ew = (
            oe.nlpd < ot.nlpd and oe.nlpd < oh.nlpd
            and oe.ause < ot.ause and oe.ause < oh.ause
        )
        vw = ov.nlpd < tb.nlpd and ov.ause < tb.ause
        exact_wins += ew
        var_wins += vw
        details.append(f"seed{seed}:{'E' if ew else 'e'}{'V' if vw else 'v'}")
    elapsed = time.time() - t0
    _report(
        5,
        exact_wins >= 4 and var_wins >= 4 and elapsed < 600.0,
        f"exact wins {exact_wins}/5, variational wins {var_wins}/5 (both >= 4), "
        f"{elapsed:.0f}s (< 600s) [{' '.join(details)}]",
    )


def test_criterion_6_noise_field_recovery():
    side = np.linspace(-1.5, 1.5, 32)
    xx, yy = np.meshgrid(side, side)
    X = np.column_stack([xx.ravel(), yy.ravel()])
    true_log_var = 1.2 * np.sin(2.0 * X[:, 0]) * np.cos(1.5 * X[:, 1]) - 3.0
    noise_model = two_stage.fit_noise_gp(X, np.exp(true_log_var), seed=0)
    mu = noise_model.log_var_mean(X)
    corr = float(np.corrcoef(mu, true_log_var)[0, 1])
    _report(6, corr > 0.9, f"Pearson correlation = {corr:.4f} (> 0.9)")


def test_criterion_7_metrics_oracle(rng):
    worst = 0.0
    fractions = metrics.ause_fractions()
    for _ in range(100):
        q = int(rng.integers(2, 51))
        err = np.abs(rng.normal(size=q))
        unc = np.abs(rng.normal(size=q))
        if rng.random() < 0.3:
            unc = np.round(unc, 1)
        model, oracle = metrics.sparsification(err, unc, fractions)
        bm, bo = brute_sparsification(list(err), list(unc), fractions)
        worst = max(
            worst,
            float(np.abs(model - bm).max()),
            float(np.abs(oracle - bo).max()),
            abs(metrics.ause(err, unc) - brute_ause(err, unc)),
        )
    err = np.abs(rng.normal(size=40))
    perfect = metrics.ause(err, err)
    _report(
        7,
        worst < 1e-12 and perfect == 0.0,
        f"max |delta| vs brute force = {worst:.2e} (< 1e-12), "
        f"perfect-ranking AUSE = {perfect}",
    )


def test_criterion_8_inducing_sweep(tmp_path):
    t0 = time.time()
    rows = pipeline.run_sweep(
        [4000], [16, 64, 256, 1024], seed=0, epochs=10, noise_epochs=10
    )
    csv_text = pipeline.sweep_csv(rows)
    (tmp_path / "sweep.csv").write_text(csv_text)
    lines = csv_text.strip().splitlines()
    well_formed = lines[0] == "n,m_inducing,rmse,wall_seconds" and len(lines) == 5
    walls = [r.wall_seconds for r in rows]
    rmses = {r.m_inducing: r.rmse for r in rows}
    wall_increasing = all(walls[i + 1] > 0.9 * walls[i] for i in range(3)) and walls[-1] > walls[0]
    rmse_ok = rmses[256] <= rmses[16]
    elapsed = time.time() - t0
    _report(
        8,
        well_formed and wall_increasing and rmse_ok and elapsed < 900.0,
        f"walls = {[round(w, 2) for w in walls]}s increasing, "
        f"rmse(256) = {rmses[256]:.4f} <= rmse(16) = {rmses[16]:.4f}, "
        f"CSV {len(lines) - 1} rows, {elapsed:.0f}s (< 900s)",
    )


def test_criterion_9_determinism_and_io(tmp_path, rng):
    # seeded synth is byte-identical
    for name in ("a", "b"):
        code = main(
            ["synth", "--out-dir", str(tmp_path / name), "--size", "16", "--seed", "3"]
        )
        assert code == 0
    synth_ok = all(
        (tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes()
        for f in ("truth.asc", "dem.asc", "train.asc", "prior.asc", "uncertainty.asc")
    )

    # seeded fits are byte-identical, including the variational path
    fit_ok = True
    for method, extra in (
        ("tomita", []),
        (
            "ours-variational",
            [
                "--noise", str(tmp_path / "a" / "uncertainty.asc"),
                "--prior", str(tmp_path / "a" / "prior.asc"),
                "--inducing", "16", "--batch-size", "32",
            ],
        ),
    ):
        paths = []
        for run in ("m1.bin", "m2.bin"):
            out = tmp_path / f"{method}-{run}"
            code = main(
                [
                    "fit", "--method", method,
                    "--train", str(tmp_path / "a" / "train.asc"),
                    "--out", str(out), "--seed", "11", "--epochs", "3",
                ]
                + extra
            )
            assert code == 0
            paths.append(out)
        fit_ok = fit_ok and paths[0].read_bytes() == paths[1].read_bytes()

    # .asc roundtrip is exact
    grid = read_asc(tmp_path / "a" / "train.asc")
    write_asc(grid, tmp_path / "copy.asc")
    asc_ok = (tmp_path / "copy.asc").read_bytes() == (
        tmp_path / "a" / "train.asc"
    ).read_bytes()

    # model file roundtrip is bitwise
    mid, model, stats = modelio.load_model(tmp_path / "tomita-m1.bin")
    modelio.save_model(tmp_path / "resaved.bin", mid, model, stats)
    model_ok = (
        (tmp_path / "resaved.bin").read_bytes()
        == (tmp_path / "tomita-m1.bin").read_bytes()
    )

    # seeded sweep reproduces bitwise
    sweep_rows_a = pipeline.sweep_csv(
        pipeline.run_sweep([40], [4], seed=5, epochs=2, noise_epochs=2, batch_size=20)
    )
    sweep_rows_b = pipeline.sweep_csv(
        pipeline.run_sweep([40], [4], seed=5, epochs=2, noise_epochs=2, batch_size=20)
    )
    # wall-clock columns differ by definition; compare the rmse column
    rmse_a = [line.split(",")[2] for line in sweep_rows_a.splitlines()[1:]]
    rmse_b = [line.split(",")[2] for line in sweep_rows_b.splitlines()[1:]]
    sweep_ok = rmse_a == rmse_b

    _report(
        9,
        synth_ok and fit_ok and asc_ok and model_ok and sweep_ok,
        f"synth={synth_ok} fit={fit_ok} asc_roundtrip={asc_ok} "
        f"model_roundtrip={model_ok} sweep={sweep_ok}",
    )
