"""Command-line harness.

Verbs: synth, fit, predict, eval, sweep, heatmap, hillshade.  Exit
codes: 0 success, 2 usage/config error (running out of memory counts as
one: the problem is too big for the chosen method), 3 data/parse error,
4 numerical failure.  Every seeded command is bitwise reproducible.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import kernels, modelio, pipeline
from .errors import InvalidConfigError, TerraGpError
from .grids import DEFAULT_NODATA, DemGrid, hillshade, read_asc, to_pgm_bytes, write_asc
from .methods import METHOD_IDS, method_defaults, with_overrides
from .synth import SynthParams

EXIT_OK = 0
EXIT_IO = 3  # OSError; every TerraGpError carries its own exit_code


# `synth` flag -> the SynthParams field it sets; each flag takes its type
# and default from that field
_SYNTH_FLAGS = {
    "--size": "size",
    "--seed": "seed",
    "--amplitude": "amplitude",
    "--roughness": "roughness",
    "--craters": "crater_count",
    "--radius-min": "radius_min",
    "--radius-max": "radius_max",
    "--rim-fraction": "rim_fraction",
    "--sun-azimuth": "sun_azimuth",
    "--sun-elevation": "sun_elevation",
    "--var-dark": "var_dark",
    "--var-lit": "var_lit",
    "--cellsize": "cellsize",
}


def _add_synth(sub):
    p = sub.add_parser("synth", help="generate a synthetic scene (five .asc files)")
    p.add_argument("--out-dir", required=True)
    defaults = SynthParams()
    for flag, name in _SYNTH_FLAGS.items():
        default = getattr(defaults, name)
        p.add_argument(
            flag, type=type(default), default=default,
            help="truth grid side length" if name == "size" else None,
        )
    p.add_argument(
        "--noise-mode", choices=("shadow", "split"), default="shadow",
        help="shadow-derived variance map, or a left/right split field",
    )
    p.add_argument("--split-ratio", type=float, default=10.0)


def _cmd_synth(args) -> int:
    params = SynthParams(
        **{name: getattr(args, flag[2:].replace("-", "_")) for flag, name in _SYNTH_FLAGS.items()}
    )
    scene = pipeline.make_scene(params, noise_mode=args.noise_mode, split_ratio=args.split_ratio)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_asc(scene.truth, out / "truth.asc")
    write_asc(scene.dem, out / "dem.asc")
    write_asc(scene.train, out / "train.asc")
    write_asc(scene.prior, out / "prior.asc")
    write_asc(scene.uncertainty, out / "uncertainty.asc")
    print(f"wrote truth/dem/train/prior/uncertainty to {out}")
    return EXIT_OK


def _add_fit(sub):
    p = sub.add_parser("fit", help="train a model on a training grid")
    p.add_argument("--method", required=True, choices=METHOD_IDS)
    p.add_argument("--train", required=True, help="training .asc grid")
    p.add_argument("--noise", help="uncertainty .asc grid (variance, m^2)")
    p.add_argument("--prior", help="low-resolution prior .asc grid")
    p.add_argument("--out", required=True, help="output model file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--inducing", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--kernel", choices=kernels.FAMILIES)
    p.add_argument("--nu", type=float, choices=kernels.MATERN_NUS)
    p.add_argument("--mean", choices=("constant", "zero", "prior"))
    p.add_argument(
        "--fixed-noise", type=float,
        help="pin the constant noise variance (m^2) instead of learning it",
    )
    p.add_argument("--loss-csv", help="per-epoch loss log (default: <out>.loss.csv)")


def _cmd_fit(args) -> int:
    method = method_defaults(args.method)
    train = read_asc(args.train)
    uncertainty = read_asc(args.noise) if args.noise else None
    prior = read_asc(args.prior) if args.prior else None

    fixed = args.fixed_noise
    if fixed is not None:
        # convert m^2 to normalized units using the training grid stats
        from .datasets import grid_to_dataset

        stats = grid_to_dataset(train).stats
        fixed = float(fixed) / stats.y_std**2
    method = with_overrides(
        method,
        learning_rate=args.lr,
        epochs=args.epochs,
        num_inducing=args.inducing,
        batch_size=args.batch_size,
        kernel_family=args.kernel,
        nu=args.nu,
        mean_kind=args.mean,
        fixed_noise_var=fixed,
    )
    model, stats, history = pipeline.fit_method(
        method, train, uncertainty, prior, args.seed
    )
    modelio.save_model(args.out, method.method_id, model, stats)
    loss_path = args.loss_csv or (args.out + ".loss.csv")
    with open(loss_path, "w", encoding="utf-8") as fh:
        fh.write("epoch,loss\n")
        for i, loss in enumerate(history):
            fh.write(f"{i},{loss:.17g}\n")
    print(f"fit {method.method_id}: {len(history)} epochs, model -> {args.out}")
    return EXIT_OK


def _add_predict(sub):
    p = sub.add_parser("predict", help="dense prediction on a target geometry")
    p.add_argument("--model", required=True)
    p.add_argument("--target", help=".asc grid supplying the output geometry")
    p.add_argument("--ncols", type=int)
    p.add_argument("--nrows", type=int)
    p.add_argument("--xll", type=float)
    p.add_argument("--yll", type=float)
    p.add_argument("--cellsize", type=float)
    p.add_argument("--out-dir", required=True)


def _target_geometry(args) -> DemGrid:
    explicit = (args.ncols, args.nrows, args.xll, args.yll, args.cellsize)
    if args.target:
        if any(v is not None for v in explicit):
            raise InvalidConfigError("--target and explicit geometry flags conflict")
        return read_asc(args.target)
    if any(v is None for v in explicit):
        raise InvalidConfigError(
            "predict needs --target or all of --ncols/--nrows/--xll/--yll/--cellsize"
        )
    for flag, count in (("--ncols", args.ncols), ("--nrows", args.nrows)):
        if count < 1:
            raise InvalidConfigError(f"{flag} must be a positive integer, got {count}")
    return DemGrid(
        ncols=args.ncols,
        nrows=args.nrows,
        xllcorner=args.xll,
        yllcorner=args.yll,
        cellsize=args.cellsize,
        nodata=DEFAULT_NODATA,
        values=np.zeros((args.nrows, args.ncols)),
    )


def _cmd_predict(args) -> int:
    method_id, model, stats = modelio.load_model(args.model)
    geometry = _target_geometry(args)
    mean_g, latent_g, pred_g = pipeline.predict_grid(model, stats, geometry)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_asc(mean_g, out / "mean.asc")
    write_asc(pred_g, out / "var.asc")
    write_asc(latent_g, out / "latent_var.asc")
    print(f"predicted {geometry.nrows}x{geometry.ncols} grid with {method_id} -> {out}")
    return EXIT_OK


def _add_eval(sub):
    p = sub.add_parser("eval", help="compute RMSE/NLPD/AUSE against a truth grid")
    p.add_argument("--mean", required=True)
    p.add_argument("--var", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--out", required=True, help="metric=value report file")
    p.add_argument("--curves", help="sparsification curves CSV")
    p.add_argument("--ause-normalized", action="store_true",
                   help="divide both sparsification curves by the full MAE")
    p.add_argument("--variance-kind", choices=("predictive", "latent"),
                   default="predictive",
                   help="label recorded in the report for the variance used")


def _cmd_eval(args) -> int:
    report = pipeline.evaluate_grids(
        read_asc(args.mean),
        read_asc(args.var),
        read_asc(args.truth),
        variance_kind=args.variance_kind,
        normalized_ause=args.ause_normalized,
    )
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(report.to_text())
    if args.curves:
        with open(args.curves, "w", encoding="utf-8") as fh:
            fh.write(report.curves_csv())
    print(
        f"rmse={report.rmse:.6g} nlpd={report.nlpd:.6g} "
        f"ause={report.ause:.6g} n_test={report.n_test}"
    )
    return EXIT_OK


def _add_sweep(sub):
    p = sub.add_parser("sweep", help="inducing-count / dataset-size trade-off sweep")
    p.add_argument("--sizes", required=True, help="comma-separated dataset sizes")
    p.add_argument("--inducing", required=True, help="comma-separated inducing counts")
    p.add_argument("--out", required=True, help="output CSV")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epochs", type=int)
    p.add_argument("--noise-epochs", type=int)
    p.add_argument("--batch-size", type=int)


def _parse_int_list(text: str, flag: str) -> list[int]:
    try:
        values = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise InvalidConfigError(f"{flag} expects comma-separated integers") from None
    if any(v < 1 for v in values):
        raise InvalidConfigError(f"{flag} expects positive integers, got {text!r}")
    return values


def _cmd_sweep(args) -> int:
    rows = pipeline.run_sweep(
        _parse_int_list(args.sizes, "--sizes"),
        _parse_int_list(args.inducing, "--inducing"),
        seed=args.seed,
        epochs=args.epochs,
        noise_epochs=args.noise_epochs,
        batch_size=args.batch_size,
    )
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(pipeline.sweep_csv(rows))
    print(f"sweep wrote {len(rows)} rows -> {args.out}")
    return EXIT_OK


def _add_heatmap(sub):
    p = sub.add_parser("heatmap", help="render a grid to an 8-bit .pgm graymap")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)


def _cmd_heatmap(args) -> int:
    grid = read_asc(args.input)
    with open(args.out, "wb") as fh:
        fh.write(to_pgm_bytes(grid))
    print(f"heatmap {grid.nrows}x{grid.ncols} -> {args.out}")
    return EXIT_OK


def _add_hillshade(sub):
    p = sub.add_parser("hillshade", help="Lambertian shading of a DEM")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--azimuth", type=float, default=315.0)
    p.add_argument("--elevation", type=float, default=45.0)


def _cmd_hillshade(args) -> int:
    shade = hillshade(read_asc(args.input), args.azimuth, args.elevation)
    write_asc(shade, args.out)
    print(f"hillshade -> {args.out}")
    return EXIT_OK


_COMMANDS = {
    "synth": _cmd_synth,
    "fit": _cmd_fit,
    "predict": _cmd_predict,
    "eval": _cmd_eval,
    "sweep": _cmd_sweep,
    "heatmap": _cmd_heatmap,
    "hillshade": _cmd_hillshade,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="terragp",
        description="Heteroscedastic GP terrain mapping toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_synth(sub)
    _add_fit(sub)
    _add_predict(sub)
    _add_eval(sub)
    _add_sweep(sub)
    _add_heatmap(sub)
    _add_hillshade(sub)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (TerraGpError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", EXIT_IO)
    except MemoryError:
        print(
            "error: out of memory; an exact GP holds an n x n array of doubles "
            "(8 n^2 bytes) for n training cells, "
            "so use a variational method (torroba, ours-variational) or a smaller grid",
            file=sys.stderr,
        )
        return InvalidConfigError.exit_code


if __name__ == "__main__":
    sys.exit(main())
