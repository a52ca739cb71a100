"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload NAME --seeds 1..10 [--seconds S]

Runs perfbench/run.py once per seed, one run at a time, and prints for each
end-to-end metric the median of the runs, its quartiles and the distance
between them as a share of the median, next to the bound in BENCHMARK.json.
The last line is the same summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(prog="perfbench/spread.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1..10", help="inclusive range lo..hi")
    parser.add_argument("--seconds", type=int)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    lo, hi = map(int, args.seeds.split(".."))
    values: dict[str, list[float]] = {}
    for seed in range(lo, hi + 1):
        argv = [*spec["command"], "--workload", args.workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"seed {seed} failed:\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.splitlines()[-1])
        row = {name: m["value"] for name, m in result["metrics"].items()}
        print(f"seed {seed}: " + "  ".join(f"{k}={v:.4g}" for k, v in row.items()), flush=True)
        for name, value in row.items():
            values.setdefault(name, []).append(value)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}
        print(f"{name:16s} median {med:10.4g}  q1 {q1:10.4g}  q3 {q3:10.4g}  "
              f"spread {(q3 - q1) / med:6.3f}  bound {bounds.get(name)}")
    print(json.dumps({"workload": args.workload, "seconds": seconds, "metrics": summary}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
