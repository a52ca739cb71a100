"""The qneg benchmark: one command that measures a workload end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a qneg checkout; qneg is imported from its ``src``.
With ``--trace 0`` it measures set-up time (fresh interpreters importing
qneg) and then runs the workload for S seconds in a worker process, printing
the end-to-end metrics.  With ``--trace 1`` it runs the workload for S seconds
with span wrappers installed on every second cycle, and prints the
per-layer metrics, taken from the traced cycles, and the tracing overhead.
Every result is checked against the harness's own references; the last line of output is
one JSON object, and the exit status is 1 if any op failed.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from qbench import reference, tracer, workloads  # noqa: E402

# Fresh starts timed before and again after the workload; the median of all
# of them is setup_s.  Splitting them spreads the samples over the run, so a
# slow spell of the machine at either end moves the median less.
SETUP_STARTS = 10
# The whole run must end within --seconds plus this: set-up, the trailing
# cycle and the reference checks.
SLACK_S = 150


def _out_of_time(signum, frame):
    # Raised in the middle of a wait for a child; subprocess.run then kills
    # and reaps the child before the exception leaves it.
    raise TimeoutError(f"run exceeded --seconds + {SLACK_S} s")


def setup_times(starts: int) -> list[float]:
    """Wall times of fresh interpreters each running ``import qneg``, after
    one unmeasured start so that compiled bytecode is in place."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = [sys.executable, "-c", "import qneg"]
    subprocess.run(argv, env=env, check=True)
    times = []
    for _ in range(starts):
        t0 = time.perf_counter()
        subprocess.run(argv, env=env, check=True)
        times.append(time.perf_counter() - t0)
    return times


def worker(args: list[str]) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(BENCH)]))
    argv = [sys.executable, "-m", "qbench.worker", "--root", str(ROOT), *args]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}): {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def end_to_end(setup_s: float, phase: dict) -> dict[str, tuple[float, str]]:
    lat = phase["latencies_s"]
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (phase["ops"] / phase["timed_s"], "ops/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_p90_ms": (statistics.quantiles(lat, n=10)[8] * 1e3, "ms"),
        "peak_rss_mb": (phase["peak_rss_mb"], "MB"),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(phase: dict) -> dict[str, tuple[float, str]]:
    totals = phase["trace"]
    out: dict[str, tuple[float, str]] = {}
    for name in tracer.SPANS:
        out[f"{name}.calls"] = (totals.get(f"{name}.calls", 0), "count")
        out[f"{name}.self_s"] = (totals.get(f"{name}.self_s", 0.0), "s")
    for layer in tracer.FUNCTIONS:
        out[f"{layer}.errors"] = (totals.get(f"{layer}.errors", 0), "count")
    for name in tracer.COUNTS:
        out[name] = (totals.get(name, 0), "count")
    for name in tracer.CACHED:
        hits, misses = totals.get(f"cache.{name}.hits", 0), totals.get(f"cache.{name}.misses", 0)
        out[f"qbinom.{name}.cache_hit_ratio"] = (_ratio(hits, hits + misses), "ratio")
    # Shares of the calls that can have a large operand: products of two
    # polynomials (not a polynomial and a scalar), and every division.
    for op, of in (("mul", "poly_calls"), ("divides", "calls")):
        large = totals.get(f"laurent.{op}.large_calls", 0)
        out[f"laurent.{op}.large_share"] = (_ratio(large, totals.get(f"laurent.{op}.{of}", 0)), "ratio")
    for key in ("process_s", "import_s", "main_s"):
        out[f"cli.{key}"] = (totals.get(f"cli.{key}", 0.0), "s")
    out["cli.stdout_bytes"] = (totals.get("cli.stdout_bytes", 0), "count")
    regions = phase["regions"]
    for reg in reference.REGIONS:
        out[f"input.region.{reg}"] = (_ratio(regions.get(reg, 0), sum(regions.values())), "ratio")
    out["trace.ops"] = (phase["traced_ops"], "count")
    # Traced and untraced cycles alternate and are equal in number.
    out["trace.overhead"] = (phase["cycle_s"]["traced"] / phase["cycle_s"]["plain"] - 1, "ratio")
    out["error_rate"] = (phase["failed"] / phase["ops"], "ratio")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qneg" / "__init__.py").is_file():
        print(f"no qneg sources under {ROOT / 'src'}; run from a qneg checkout", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _out_of_time)
    signal.alarm(int(args.seconds) + SLACK_S)
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        if args.trace:
            phase = worker(common + ["--seconds", str(args.seconds), "--trace"])
            metrics = per_layer(phase)
        else:
            starts = setup_times(SETUP_STARTS)
            phase = worker(common + ["--seconds", str(args.seconds)])
            starts += setup_times(SETUP_STARTS)
            metrics = end_to_end(statistics.median(starts), phase)
    except (RuntimeError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
    attempted, failed = phase["ops"], phase["failed"]
    for failure in phase["failures"]:
        print(f"FAIL {failure}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{attempted} ops timed, {failed} failed")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
