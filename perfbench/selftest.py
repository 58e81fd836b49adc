"""Fast self-test of the benchmark at toy sizes (a 16^2 scene, 2 epochs).

    python3 perfbench/selftest.py

1. Every workload, untraced and traced, prints every metric that
   BENCHMARK.json declares for that mode, with its unit, both in the
   readable lines and in the final JSON line, and no operation fails.
2. A NaN injected into one predicted map is counted as a failed
   operation and makes the run incorrect.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


class SelfTestFailure(Exception):
    pass


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def check_metrics_printed() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                    "--seed", "0", "--seconds", "1", "--trace", str(trace), "--toy"]
            proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=300)
            if proc.returncode != 0:
                raise SelfTestFailure(
                    f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}"
                )
            result = last_json(proc.stdout)
            expected = {m["name"]: m["unit"] for m in declared}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != expected:
                raise SelfTestFailure(
                    f"{workload} trace={trace}: metrics differ from BENCHMARK.json: "
                    f"missing {sorted(set(expected) - set(got))}, "
                    f"extra {sorted(set(got) - set(expected))}, "
                    f"units {[(n, got[n], u) for n, u in expected.items() if got.get(n, u) != u]}"
                )
            lines = set(proc.stdout.splitlines())
            for name, unit in expected.items():
                value = result["metrics"][name]["value"]
                if f"{workload} {name} = {value!r} {unit}" not in lines:
                    raise SelfTestFailure(f"{workload} trace={trace}: no readable line for {name}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                raise SelfTestFailure(f"{workload} trace={trace}: {result}\n{proc.stdout}")
            print(f"ok {workload} trace={trace}: {len(expected)} metrics")


def check_nan_counted() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import run
    from terragp import pipeline  # noqa: F401  (loaded so the patch has a target)
    from tracing import Patcher

    def poison(predict_grid):
        calls = []

        def wrapper(*args, **kwargs):
            mean, latent, predictive = predict_grid(*args, **kwargs)
            if not calls:
                mean.values[0, 0] = float("nan")
            calls.append(1)
            return mean, latent, predictive

        return wrapper

    out = io.StringIO()
    with Patcher() as patcher, contextlib.redirect_stdout(out):
        patcher.wrap("terragp.pipeline", "predict_grid", poison)
        run.main(["--workload", "table1", "--seed", "0", "--seconds", "0",
                  "--trace", "0", "--toy"])
    result = last_json(out.getvalue())
    # the poisoned predict fails its check and its eval cannot run
    if result["correct"] or result["failed"] != 2:
        raise SelfTestFailure(f"injected NaN not counted: {result}")
    if "predict: non-finite predicted mean" not in out.getvalue():
        raise SelfTestFailure("injected NaN not reported as a predict failure")
    print(f"ok injected NaN: {result['failed']} of {result['attempted']} operations failed")


def main() -> int:
    try:
        check_metrics_printed()
        check_nan_counted()
    except SelfTestFailure as exc:
        print(f"FAIL {exc}", file=sys.stderr)
        return 1
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
