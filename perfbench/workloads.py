"""The three benchmark workloads and the checks on their outputs.

Each workload is driven by one caller in a closed loop: every operation
(synth, fit, predict, eval, sweep row) starts after the previous one
returns.  An operation fails when it raises a TerraGpError or its output
fails a check; failures are counted, not fatal.

Accuracy is reported relative to a yardstick the benchmark computes
itself from the generated inputs: the RMSE of the factor-5 prior grid,
bilinearly interpolated onto the evaluated cells.  Dividing by it (and,
for NLPD, subtracting its log) takes most of the scene-to-scene spread
out of the accuracy metrics, so that they can be bounded across seeds.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from terragp import cli, methods, metrics, pipeline, two_stage
from terragp.errors import TerraGpError
from terragp.synth import SynthParams

from tracing import CLOCK, Patcher


class BenchmarkError(Exception):
    """The benchmark itself cannot produce meaningful numbers."""


# ---------------------------------------------------------------------------
# Sizes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Sizes:
    """Problem sizes.  Epoch budgets are the published per-method values
    divided by `epoch_divisor` (at least 2); the stage-1 noise GP runs
    `noise_epochs`.  Both are fixed so that every commit does the same
    work."""

    table1_size: int = 64  # truth side; the train grid holds n = 1024 cells
    table1_inducing: int = 256
    epoch_divisor: int = 8
    noise_epochs: int = 5
    sweep_n: int = 1536
    sweep_inducing: tuple[int, ...] = (16, 64, 256, 1024)
    sweep_epochs: int = 1
    sweep_noise_epochs: int = 1
    sweep_batch: int = 256
    map_size: int = 128  # truth side of the served grid
    map_train_cells: int = 1024
    map_inducing: int = 256


FULL = Sizes()
TOY = Sizes(
    table1_size=16,
    table1_inducing=16,
    epoch_divisor=20,
    noise_epochs=2,
    sweep_n=64,
    sweep_inducing=(4, 8),
    sweep_batch=32,
    map_size=16,
    map_train_cells=32,
    map_inducing=8,
)


def scaled_method(method_id: str, sizes: Sizes, inducing: int) -> methods.MethodConfig:
    method = methods.method_defaults(method_id)
    overrides = {"epochs": max(2, round(method.epochs / sizes.epoch_divisor))}
    if method.variational:
        overrides["num_inducing"] = inducing
    return methods.with_overrides(method, **overrides)


@contextlib.contextmanager
def stage1_budget(epochs: int):
    """Run every stage-1 noise GP for `epochs` epochs.

    `pipeline.fit_method` and the CLI reach the noise GP through
    `two_stage.fit_noise_gp`'s default config, so that default is
    replaced for the run; each fitted noise model is checked to have run
    exactly `epochs` epochs, so a change that bypasses the default stops
    the benchmark instead of silently training longer.
    """

    def checked(fit_noise_gp):
        def wrapper(*args, **kwargs):
            noise_model = fit_noise_gp(*args, **kwargs)
            history = getattr(getattr(noise_model, "gp", None), "loss_history", None)
            if history is not None and len(history) != epochs:
                raise BenchmarkError(
                    f"stage-1 noise GP ran {len(history)} epochs, expected {epochs}"
                )
            return noise_model

        return wrapper

    with Patcher() as patcher:
        patcher.set("terragp.two_stage", "NOISE_GP",
                    replace(methods.NOISE_GP, epochs=epochs))
        patcher.wrap("terragp.two_stage", "fit_noise_gp", checked)
        yield


# ---------------------------------------------------------------------------
# Operations and checks
# ---------------------------------------------------------------------------


@dataclass
class Ops:
    """Attempted and failed operation counts, and what went wrong."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def run(self, kind: str, fn, check=None):
        """Time `fn()`; returns (result, seconds), result None on failure."""
        t0 = CLOCK()
        try:
            out = fn()
        except TerraGpError as exc:
            elapsed = CLOCK() - t0
            self.record(kind, f"{type(exc).__name__}: {exc}")
            return None, elapsed
        elapsed = CLOCK() - t0
        passed = self.record(kind, check(out) if check is not None else None)
        return (out if passed else None), elapsed

    def record(self, kind: str, problem: str | None) -> bool:
        """Count one operation, failed if `problem`; True if it passed."""
        self.attempted += 1
        if problem:
            self.failed += 1
            self.problems.append(f"{kind}: {problem}")
        return not problem


def map_problem(mean, latent, predictive) -> str | None:
    mean, latent, predictive = (np.asarray(a, dtype=float) for a in (mean, latent, predictive))
    if not np.all(np.isfinite(mean)):
        return "non-finite predicted mean"
    if not (np.all(np.isfinite(predictive)) and np.all(predictive > 0)):
        return "predictive variance not finite and positive"
    if not (np.all(np.isfinite(latent)) and np.all(latent >= 0)):
        return "latent variance not finite and nonnegative"
    return None


def report_problem(report) -> str | None:
    values = (report.rmse, report.nlpd, report.ause)
    if not all(math.isfinite(v) for v in values) or report.rmse <= 0:
        return f"non-finite or zero accuracy {values}"
    return None


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(a if isinstance(a, bytes) else np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


@dataclass(frozen=True)
class Raster:
    """Geometry and values of a grid, independent of terragp's types."""

    xll: float
    yll: float
    cellsize: float
    values: np.ndarray

    @classmethod
    def of(cls, grid) -> "Raster":
        return cls(grid.xllcorner, grid.yllcorner, grid.cellsize, np.asarray(grid.values))

    @classmethod
    def read(cls, path: Path) -> "Raster":
        with open(path, encoding="utf-8") as fh:
            head = {k.lower(): float(v) for k, v in (next(fh).split() for _ in range(6))}
            values = np.loadtxt(fh, ndmin=2)
        return cls(head["xllcorner"], head["yllcorner"], head["cellsize"], values)

    def centers(self) -> tuple[np.ndarray, np.ndarray]:
        nrows, ncols = self.values.shape
        x = self.xll + (np.arange(ncols) + 0.5) * self.cellsize
        y = self.yll + (nrows - np.arange(nrows) - 0.5) * self.cellsize
        return np.meshgrid(x, y)


def reference_rmse(truth: Raster, prior: Raster) -> float:
    """RMSE against `truth` of `prior` bilinearly interpolated between
    its cell centers (clamped at the outer ring)."""
    x, y = truth.centers()
    nrows, ncols = prior.values.shape
    fc = np.clip((x - prior.xll) / prior.cellsize - 0.5, 0.0, ncols - 1.0)
    fr = np.clip((prior.yll - y) / prior.cellsize + nrows - 0.5, 0.0, nrows - 1.0)
    c0 = np.floor(fc).astype(int)
    r0 = np.floor(fr).astype(int)
    c1 = np.minimum(c0 + 1, ncols - 1)
    r1 = np.minimum(r0 + 1, nrows - 1)
    tc, tr = fc - c0, fr - r0
    v = prior.values
    interp = (v[r0, c0] * (1 - tc) + v[r0, c1] * tc) * (1 - tr) + (
        v[r1, c0] * (1 - tc) + v[r1, c1] * tc
    ) * tr
    return float(np.sqrt(np.mean((interp - truth.values) ** 2)))


def relative_accuracy(rmse: float, nlpd: float, ause: float,
                      ref: float) -> tuple[float, float, float]:
    """(rmse_rel, nlpd_rel, ause_rel) for one map against its yardstick."""
    return rmse / ref, nlpd - math.log(ref), ause / ref


@dataclass
class PassResult:
    """One closed-loop pass over a workload's operations."""

    run_s: float = 0.0
    fit_s: float = 0.0
    predict_s: float = 0.0
    digests: dict[str, str] = field(default_factory=dict)
    accuracy: list[tuple[float, float, float]] = field(default_factory=list)
    raw_accuracy: list[tuple[float, float, float]] = field(default_factory=list)
    rows: dict[str, float] = field(default_factory=dict)  # per-row sweep walls


@dataclass
class SetupResult:
    seconds: float
    fit_s: float | None = None
    digest: str = ""


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Table1:
    """The Table-1 scene: 64^2 truth, split noise at ratio 10, n = 1024;
    all five methods fit, predict on the truth grid and evaluate."""

    def __init__(self, seed: int, sizes: Sizes, workdir: Path, ops: Ops):
        self.seed, self.sizes, self.ops = seed, sizes, ops
        self.noise_epochs = sizes.noise_epochs
        self.scene = None
        self.ref = float("nan")

    def setup(self) -> SetupResult:
        params = SynthParams(size=self.sizes.table1_size, seed=self.seed)
        scene, seconds = self.ops.run(
            "synth",
            lambda: pipeline.make_scene(params, noise_mode="split", split_ratio=10.0),
        )
        if scene is None:
            raise BenchmarkError("scene synthesis failed: " + self.ops.problems[-1])
        self.scene = scene
        self.ref = reference_rmse(Raster.of(scene.truth), Raster.of(scene.prior))
        return SetupResult(seconds, digest=digest(scene.truth.values, scene.train.values))

    def run_pass(self) -> PassResult:
        ops, scene, result = self.ops, self.scene, PassResult()
        for method_id in methods.METHOD_IDS:
            method = scaled_method(method_id, self.sizes, self.sizes.table1_inducing)
            fitted, fit_s = ops.run(
                "fit",
                lambda: pipeline.fit_method(
                    method, scene.train, scene.uncertainty, scene.prior, seed=self.seed
                ),
            )
            result.fit_s += fit_s
            if fitted is None:
                ops.record("predict", f"{method_id} not fitted")
                ops.record("eval", f"{method_id} not fitted")
                continue
            model, stats, _ = fitted
            grids, predict_s = ops.run(
                "predict",
                lambda: pipeline.predict_grid(model, stats, scene.truth),
                check=lambda g: map_problem(g[0].values, g[1].values, g[2].values),
            )
            result.predict_s += predict_s
            if grids is None:
                ops.record("eval", f"{method_id} has no valid map")
                continue
            mean, latent, predictive = grids
            result.digests[method_id] = digest(mean.values, latent.values, predictive.values)
            report, eval_s = ops.run(
                "eval",
                lambda: pipeline.evaluate_grids(mean, predictive, scene.truth),
                check=report_problem,
            )
            result.run_s += eval_s
            if report is not None:
                raw = (report.rmse, report.nlpd, report.ause)
                result.raw_accuracy.append(raw)
                result.accuracy.append(relative_accuracy(*raw, self.ref))
        result.run_s += result.fit_s + result.predict_s
        return result


class Sweep:
    """`pipeline.run_sweep` at one dataset size: a stage-1 exact noise
    GP, then the ours-variational terrain at each inducing count, each
    predicted on the truth grid.  Each row's terrain fit and map are
    captured and timed at `two_stage.fit_terrain` and
    `two_stage.predict_terrain`: the maps feed the checks and NLPD/AUSE,
    which the sweep CSV does not carry, and the CSV's own wall_seconds is
    checked and printed but not summed, being wall time."""

    def __init__(self, seed: int, sizes: Sizes, workdir: Path, ops: Ops):
        self.seed, self.sizes, self.ops = seed, sizes, ops
        self.noise_epochs = sizes.sweep_noise_epochs

    def setup(self) -> SetupResult:
        return SetupResult(0.0)

    def run_pass(self) -> PassResult:
        ops, sizes, result = self.ops, self.sizes, PassResult()
        scenes, fits, maps = [], [], []

        def timed(into):
            def make_wrapper(fn):
                def wrapper(*args, **kwargs):
                    t0 = CLOCK()
                    out = fn(*args, **kwargs)
                    into.append((out, CLOCK() - t0))
                    return out

                return wrapper

            return make_wrapper

        with Patcher() as patcher:
            patcher.wrap("terragp.pipeline", "make_scene", timed(scenes))
            patcher.wrap("terragp.two_stage", "fit_terrain", timed(fits))
            patcher.wrap("terragp.two_stage", "predict_terrain", timed(maps))
            t0 = CLOCK()
            try:
                rows = pipeline.run_sweep(
                    [sizes.sweep_n],
                    list(sizes.sweep_inducing),
                    seed=self.seed,
                    epochs=sizes.sweep_epochs,
                    noise_epochs=sizes.sweep_noise_epochs,
                    batch_size=sizes.sweep_batch,
                )
            except TerraGpError as exc:
                rows = None
                error = f"{type(exc).__name__}: {exc}"
            result.run_s = CLOCK() - t0

        if rows is None:
            for _ in sizes.sweep_inducing:
                ops.record("sweep row", error)
                ops.record("eval", "sweep failed")
            return result
        csv_rows = pipeline.sweep_csv(rows).strip().splitlines()[1:]
        if (len(scenes) != 1 or len(fits) != len(rows) or len(maps) != len(rows)
                or len(csv_rows) != len(sizes.sweep_inducing)):
            raise BenchmarkError(
                f"sweep produced {len(csv_rows)} rows, {len(fits)} captured fits, "
                f"{len(maps)} captured maps and {len(scenes)} scenes"
            )
        scene = scenes[0][0]
        truth = scene.truth
        truth_values = truth.values.ravel()
        ref = reference_rmse(Raster.of(truth), Raster.of(scene.prior))
        for line, (_, fit_s), ((mean, latent, predictive), predict_s) in zip(csv_rows, fits, maps):
            _, m, rmse, wall = line.split(",")
            problem = map_problem(mean, latent, predictive)
            if problem is None and float(rmse) != metrics.rmse(mean, truth_values):
                problem = f"CSV rmse {rmse} does not match the predicted map"
            if problem is None and not float(wall) > 0:
                problem = f"wall_seconds {wall} is not positive"
            if not ops.record(f"sweep row m={m}", problem):
                ops.record("eval", f"m={m} has no valid map")
                continue
            result.fit_s += fit_s
            result.predict_s += predict_s
            result.rows[f"sweep.wall_s.m{m}"] = float(wall)
            result.digests[f"m{m}"] = digest(mean, latent, predictive)
            report, _ = ops.run(
                "eval",
                lambda: metrics.evaluate(mean, predictive, truth_values),
                check=report_problem,
            )
            if report is not None:
                raw = (report.rmse, report.nlpd, report.ause)
                result.raw_accuracy.append(raw)
                result.accuracy.append(relative_accuracy(*raw, ref))
        return result


class MapPredict:
    """The serving path through `terragp.cli.main`, in process.

    Set-up: `synth` a split-noise scene, keep a seeded subset of training
    cells (the rest NODATA) and `fit` ours-exact and ours-variational.  Timed:
    `predict --target truth.asc` and `eval`, for each model."""

    MODELS = (methods.OURS_EXACT, methods.OURS_VARIATIONAL)

    def __init__(self, seed: int, sizes: Sizes, workdir: Path, ops: Ops):
        self.seed, self.sizes, self.ops = seed, sizes, ops
        self.noise_epochs = sizes.noise_epochs
        self.dir = workdir
        self.ref = float("nan")

    def _cli(self, *argv) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main([str(a) for a in argv])

    def setup(self) -> SetupResult:
        ops, sizes, d = self.ops, self.sizes, self.dir
        scene = d / "scene"

        def synth() -> int:
            # split noise, as in table1: under shadow noise the NLPD is set by
            # the noise floor, not by the scene, and spreads widely across seeds
            rc = self._cli("synth", "--out-dir", scene, "--size", sizes.map_size,
                           "--seed", self.seed, "--noise-mode", "split")
            if rc == 0:
                # the served scene has sparse coverage: keep a seeded subset
                train = cli.read_asc(scene / "train.asc")
                rng = np.random.default_rng(self.seed)
                drop = rng.permutation(train.values.size)[sizes.map_train_cells:]
                values = train.values.copy().ravel()
                values[drop] = train.nodata
                cli.write_asc(train.with_values(values.reshape(train.values.shape)),
                              scene / "train.asc")
            return rc

        def exit_ok(rc):
            return None if rc == 0 else f"exit code {rc}"

        t0 = CLOCK()
        rc, _ = ops.run("synth", synth, check=exit_ok)
        if rc is None:
            raise BenchmarkError("scene synthesis failed: " + ops.problems[-1])
        fit_s = 0.0
        for method_id in self.MODELS:
            method = scaled_method(method_id, sizes, sizes.map_inducing)
            argv = ["fit", "--method", method_id, "--train", scene / "train.asc",
                    "--noise", scene / "uncertainty.asc", "--prior", scene / "prior.asc",
                    "--out", d / f"{method_id}.bin", "--seed", self.seed,
                    "--epochs", method.epochs]
            if method.variational:
                argv += ["--inducing", method.num_inducing]
            rc, seconds = ops.run("fit", lambda: self._cli(*argv), check=exit_ok)
            fit_s += seconds
            if rc is None:
                raise BenchmarkError(f"{method_id} fit failed: " + ops.problems[-1])
        seconds = CLOCK() - t0
        self.ref = reference_rmse(Raster.read(scene / "truth.asc"),
                                  Raster.read(scene / "prior.asc"))
        models = b"".join((d / f"{m}.bin").read_bytes() for m in self.MODELS)
        return SetupResult(seconds, fit_s=fit_s, digest=digest(models))

    def run_pass(self) -> PassResult:
        ops, d, result = self.ops, self.dir, PassResult()
        truth = d / "scene" / "truth.asc"
        for method_id in self.MODELS:
            out = d / f"pred-{method_id}"

            def check_maps(rc):
                if rc != 0:
                    return f"exit code {rc}"
                return map_problem(*(Raster.read(out / f).values for f in
                                     ("mean.asc", "latent_var.asc", "var.asc")))

            rc, predict_s = ops.run(
                "predict",
                lambda: self._cli("predict", "--model", d / f"{method_id}.bin",
                                  "--target", truth, "--out-dir", out),
                check=check_maps,
            )
            result.predict_s += predict_s
            if rc is None:
                ops.record("eval", f"{method_id} has no valid map")
                continue
            result.digests[method_id] = digest(
                *((out / f).read_bytes() for f in ("mean.asc", "latent_var.asc", "var.asc"))
            )

            def evaluate():
                rc = self._cli("eval", "--mean", out / "mean.asc", "--var", out / "var.asc",
                               "--truth", truth, "--out", out / "report.txt")
                return rc, _read_report(out / "report.txt") if rc == 0 else None

            evaluated, eval_s = ops.run(
                "eval",
                evaluate,
                check=lambda r: f"exit code {r[0]}" if r[0] != 0 else report_problem(r[1]),
            )
            result.run_s += eval_s
            if evaluated is not None:
                report = evaluated[1]
                raw = (report.rmse, report.nlpd, report.ause)
                result.raw_accuracy.append(raw)
                result.accuracy.append(relative_accuracy(*raw, self.ref))
        result.run_s += result.predict_s
        return result


@dataclass(frozen=True)
class _Report:
    rmse: float
    nlpd: float
    ause: float


def _read_report(path: Path) -> _Report:
    """The `metric=value` lines `terragp eval` writes."""
    fields = dict(
        line.split("=", 1)
        for line in path.read_text(encoding="utf-8").splitlines()
        if "=" in line and not line.startswith("#")
    )
    return _Report(float(fields["rmse"]), float(fields["nlpd"]), float(fields["ause"]))


WORKLOADS = {"table1": Table1, "sweep-1536": Sweep, "map-predict": MapPredict}
