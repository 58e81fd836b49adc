"""terragp benchmark: one workload per process, one caller, closed loop.

    python3 perfbench/run.py --workload table1 --seed 0 --seconds 30 --trace 0

Workloads (see workloads.py):
  table1       the Table-1 scene, all five methods fit, predict, evaluate
  sweep-1536   pipeline.run_sweep at n = 1536, m in {16, 64, 256, 1024}
  map-predict  the CLI serving path: predict + eval of two saved models

`--trace 0` measures the end-to-end metrics: set-up runs three times
(the imports five times, in fresh interpreters) and the timed passes
repeat until `--seconds` of wall time is used up.  Times are CPU
seconds of the one-threaded workload process (see `tracing.CLOCK`);
the wall time of the timed passes is printed beside them.  `--trace 1`
runs set-up once under the layer wrappers, then one untraced and one
traced pass, checks that both passes produce bitwise-identical maps and
prints the per-layer metrics and the tracing overhead.  `--toy` shrinks
every problem for the self-test.

The package is imported from `src/` next to this directory, with BLAS
pinned to one thread.  Human-readable lines come first; the last line
of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

BLAS_THREADS = 1
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
IMPORT_REPEATS = 5  # interpreter start-up and imports vary most

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# name -> unit; fail_frac is carried by `attempted` and `failed`
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "fit_s": "s",
    "predict_s": "s",
    "peak_rss_mb": "MiB",
    "rmse_rel": "ratio",
    "nlpd_rel": "nats",
    "ause_rel": "ratio",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("table1", "sweep-1536", "map-predict"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--toy", action="store_true", help="tiny problem sizes (self-test)")
    return p.parse_args(argv)


def children_cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def import_seconds() -> float:
    """Median CPU time of a fresh interpreter importing the package."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import terragp.cli"
    times = []
    for _ in range(IMPORT_REPEATS):
        t0 = children_cpu_seconds()
        subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT)
        times.append(children_cpu_seconds() - t0)
    return statistics.median(times)


def machine_info() -> dict:
    import platform

    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            names = (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
            cpu = next(names, cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def timed_passes(workload, seconds: float) -> tuple[list, float]:
    """Closed loop: repeat passes while the next one should still end
    within `seconds` of wall time; at least one.  Returns the passes and
    their wall time."""
    passes, t0 = [], time.perf_counter()
    while True:
        passes.append(workload.run_pass())
        elapsed = time.perf_counter() - t0
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes, elapsed


def mismatches(reference, other, label: str) -> list[str]:
    return [
        f"{label}: map {key} differs bitwise"
        for key, value in other.digests.items()
        if reference.digests.get(key) not in (None, value)
    ]


def accuracy_means(result) -> list[float | None]:
    if not result.accuracy:
        return [None, None, None]
    return [statistics.fmean(col) for col in zip(*result.accuracy)]


def run_untraced(wl, seconds: float):
    imports = import_seconds()
    setups = [wl.setup() for _ in range(SETUP_REPEATS)]
    problems = [f"set-up {i} differs from set-up 0" for i, s in enumerate(setups)
                if s.digest != setups[0].digest]
    passes, wall_s = timed_passes(wl, seconds)
    for i, p in enumerate(passes[1:], start=1):
        problems += mismatches(passes[0], p, f"pass {i}")
    first = passes[0]
    fit_s = (statistics.median(s.fit_s for s in setups) if setups[0].fit_s is not None
             else statistics.median(p.fit_s for p in passes))
    rmse_rel, nlpd_rel, ause_rel = accuracy_means(first)
    values = {
        "setup_s": imports + statistics.median(s.seconds for s in setups),
        "run_s": statistics.median(p.run_s for p in passes),
        "fit_s": fit_s,
        "predict_s": statistics.median(p.predict_s for p in passes),
        "peak_rss_mb": peak_rss_mib(),
        "rmse_rel": rmse_rel,
        "nlpd_rel": nlpd_rel,
        "ause_rel": ause_rel,
    }
    report = [f"passes = {len(passes)}", f"passes_wall_s = {wall_s!r}",
              f"run_s per pass = {[p.run_s for p in passes]!r}",
              f"setup_s per set-up = {[s.seconds for s in setups]!r}",
              f"imports_s = {imports!r}"]
    raw = list(zip(*first.raw_accuracy))
    for name, col in zip(("rmse_m", "nlpd", "ause_m"), raw):
        report.append(f"{name} = {statistics.fmean(col)!r} (mean over {len(col)} maps)")
    report += [f"{k} = {v!r} s" for k, v in first.rows.items()]
    metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    return metrics, report, problems


def run_traced(wl):
    tracer = tracing.Tracer()
    with tracing.Patcher() as patcher:
        tracer.install(patcher)
        wl.setup()
    untraced = wl.run_pass()
    with tracing.Patcher() as patcher:
        tracer.install(patcher)
        traced = wl.run_pass()
    problems = mismatches(untraced, traced, "traced pass")
    if set(untraced.digests) != set(traced.digests):
        problems.append("traced and untraced passes produced different map sets")
    totals = tracer.totals()
    units = tracing.layer_metric_units()
    metrics = {}
    for name, unit in units.items():
        if name == "trace.overhead_s":
            metrics[name] = (traced.run_s - untraced.run_s, unit)
        else:
            layer, key = name.rsplit(".", 1)
            metrics[name] = (totals[layer][key], unit)
    report = [f"untraced run_s = {untraced.run_s!r} s", f"traced run_s = {traced.run_s!r} s"]
    for layer in tracing.LAYERS:
        t = totals[layer.name]
        counts = " ".join(f"{k}={t[k]}" for k in layer.count_keys)
        report.append(
            f"layer {layer.name}: calls={t['calls']} s={t['s']:.6f} "
            f"self_s={t['self_s']:.6f} {counts} -> {layer.moves}"
        )
    report += [f"{k} = {v!r} s" for k, v in traced.rows.items()]
    return metrics, report, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "terragp" / "__init__.py").is_file():
        print(f"error: no terragp package under {SRC}", file=sys.stderr)
        return 2
    for var in _THREAD_VARS:  # before numpy is imported
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import terragp

    if Path(terragp.__file__).resolve().parent != SRC / "terragp":
        print(f"error: imported terragp from {terragp.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    sizes = workloads.TOY if args.toy else workloads.FULL
    ops = workloads.Ops()
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, sizes, workdir, ops)
        with workloads.stage1_budget(wl.noise_epochs):
            if args.trace:
                metrics, report, problems = run_traced(wl)
            else:
                metrics, report, problems = run_untraced(wl, args.seconds)
    except workloads.BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    print("machine " + json.dumps(machine_info(), sort_keys=True))
    for line in report:
        print(f"{args.workload} {line}")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value!r} {unit}")
    print(f"{args.workload} fail_frac = {ops.failed / ops.attempted!r} "
          f"({ops.failed} of {ops.attempted} operations)")
    for problem in ops.problems + problems:
        print(f"{args.workload} problem: {problem}")
    correct = not ops.problems and not problems and all(v is not None for v, _ in metrics.values())
    print(json.dumps({
        "correct": correct,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
