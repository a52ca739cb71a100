"""One measured phase of a workload, run in a process of its own.

    python -m qbench.worker --root DIR --workload NAME --seed N --seconds S [--trace]

The worker runs whole cycles of the workload's op stream in a closed loop
(one op in flight), timing each op, until the timed phase has lasted S
seconds and at least MIN_OPS ops are done.  With --trace, every second
cycle runs with the span wrappers installed.  Each result is checked against
the references as soon as its op is timed and then dropped, so the checks
stay out of the timed window and the harness holds no outputs that would
count towards the peak RSS.  It prints one JSON object with the raw
measurements as its last line of output.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import signal
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from . import reference, workloads
from .launcher import TRACE_MARK
from .tracer import Tracer, cache_counts, cache_stats

MIN_OPS = 100  # enough for a 90th percentile with ten samples beyond it
OP_TIMEOUT_S = 60


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout(f"op exceeded {OP_TIMEOUT_S} s")


@contextlib.contextmanager
def _time_limit():
    # An interval timer rather than subprocess's timeout argument: with a
    # timeout, waiting for a child polls with growing sleeps, which would
    # round every process's latency up to the polling grid.
    signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


class InProcess:
    """Runs library ops through the public names of the ``qneg`` package,
    looked up at call time so that traced wrappers see them."""

    def __init__(self):
        import qneg

        self.qneg = qneg
        self.tracer = Tracer()
        self.cache: Counter = Counter()

    @contextlib.contextmanager
    def tracing(self):
        """Install the span wrappers here, and count cache hits and misses."""
        before = cache_stats()
        self.tracer.install()
        try:
            yield
        finally:
            self.tracer.restore()
            self.cache.update(cache_counts(before))

    def trace(self) -> dict:
        return {**self.tracer.totals(), **self.cache}

    def __call__(self, op):
        q = self.qneg
        kind = op[0]
        with _time_limit():
            if kind == "qbinom":
                return q.qbinom(op[1], op[2])
            if kind == "apery":
                return q.apery(op[1])
            if kind == "qlucas":
                return q.verify_q_lucas(*op[1:])
            if kind == "negctl":
                _, n, k, m, j = op
                shifted = q.q_lucas_rhs(n, k, m) + q.LaurentPoly.q_power(j)
                return q.congruent_mod(q.qbinom(n, k), shifted, q.cyclotomic(m))
            if kind == "chu":
                return q.verify_chu_vandermonde(*op[1:])
            if kind == "oracle":
                n, k = op[1:]
                return q.qbinom(n, k), q.qbinom_pascal(n, k), q.qbinom_via_subsets(n, k)
            if kind == "freshman":
                return q.freshman_congruence(op[1])
            raise ValueError(f"unknown op kind {kind!r}")

    def check(self, op, out) -> str | None:
        kind = op[0]
        if kind == "qbinom":
            return reference.qbinom_error(op[1], op[2], out.valuation(), out.coeffs)
        if kind == "apery":
            return None if out == reference.apery_upto(op[1])[-1] else f"apery({op[1]}) is wrong"
        if kind == "oracle":
            n, k = op[1:]
            if not out[0] == out[1] == out[2]:
                return f"oracles disagree at ({n}, {k})"
            return reference.qbinom_error(n, k, out[0].valuation(), out[0].coeffs)
        if out is not reference.VERDICTS[kind]:
            return f"{op} returned {out!r}"
        return None


class Cli:
    """Runs ops as real ``qneg`` processes, one at a time.  While `traced`
    is set, each process is the bench-side launcher instead, which installs
    the span wrappers and then calls ``qneg.cli.main``; the launchers'
    reports are summed."""

    def __init__(self, root: Path):
        src, bench = str(root / "src"), str(root / "perfbench")
        self.plain = ([sys.executable, "-m", "qneg"], dict(os.environ, PYTHONPATH=src))
        self.launcher = (
            [sys.executable, "-m", "qbench.launcher"],
            dict(os.environ, PYTHONPATH=os.pathsep.join([src, bench])),
        )
        self.traced = False
        self.totals: Counter = Counter()

    @contextlib.contextmanager
    def tracing(self):
        """Run the processes through the launcher."""
        self.traced = True
        try:
            yield
        finally:
            self.traced = False

    def trace(self) -> dict:
        return dict(self.totals)

    def __call__(self, op):
        prefix, env = self.launcher if self.traced else self.plain
        t0 = time.perf_counter()
        with _time_limit():
            proc = subprocess.run(prefix + list(op[1]), env=env, capture_output=True, text=True)
        wall = time.perf_counter() - t0
        err_lines = []
        for line in proc.stderr.splitlines():
            if line.startswith(TRACE_MARK):
                trace = json.loads(line[len(TRACE_MARK):])
                self.totals.update(trace["totals"])
                self.totals["cli.process_s"] += wall
                self.totals["cli.stdout_bytes"] += len(proc.stdout.encode())
                for key in ("import_s", "main_s"):
                    self.totals[f"cli.{key}"] += trace[key]
            else:
                err_lines.append(line)
        return proc.returncode, proc.stdout, "\n".join(err_lines)

    def check(self, op, out) -> str | None:
        code, stdout, stderr = out
        argv = op[1]
        if code != 0 or stderr:
            return f"{' '.join(argv)} exited {code}: {stderr[-200:]}"
        if argv[0] == "verify":
            expect = reference.VERIFY_LINES[argv[1]] + "\n"
            return None if stdout == expect else f"verify {argv[1]} printed {stdout[-200:]!r}"
        return reference.table_error(argv, stdout)


def _peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # KiB on Linux


def run_phase(root: Path, workload: str, seed: int, seconds: float, traced: bool) -> dict:
    """Run one phase and return its raw measurements; see the module doc.

    With `traced`, every second cycle runs traced and the others untraced,
    on a paired stream: each traced cycle has the strata of the untraced
    cycle before it, so the two halves see the same mix and the same drift
    of the machine's speed, and their time ratio is the tracing overhead."""
    cli = workload == "sweep-cli"
    runner = Cli(root) if cli else InProcess()
    latencies: list[float] = []
    failures: list[str] = []
    regions: Counter = Counter()
    cycle_s = {"plain": 0.0, "traced": 0.0}
    traced_ops = 0
    rss_mb = None
    for n_cycle, cycle in enumerate(workloads.cycles(workload, seed, paired=traced), 1):
        on = traced and n_cycle % 2 == 0
        with runner.tracing() if on else contextlib.nullcontext():
            for op in cycle:
                t0 = time.perf_counter()
                try:
                    out, err = runner(op), None
                except Exception as exc:  # counted as a failed op, not fatal
                    out, err = None, f"{op}: {type(exc).__name__}: {exc}"
                latencies.append(time.perf_counter() - t0)
                cycle_s["traced" if on else "plain"] += latencies[-1]
                if err is None:
                    try:
                        err = runner.check(op, out)
                    except Exception as exc:  # a malformed output is a failed op
                        err = f"{op}: check raised {type(exc).__name__}: {exc}"
                if err:
                    failures.append(err)
                regions.update(reference.region(n, k) for n, k in workloads.pairs(op))
                del out
        traced_ops += len(cycle) if on else 0
        if n_cycle == workloads.RSS_CYCLES[workload]:
            rss_mb = _peak_rss_mb(cli)
        timed_s = sum(cycle_s.values())
        if timed_s >= seconds and len(latencies) >= MIN_OPS and not (traced and n_cycle % 2):
            break
    if rss_mb is None:
        rss_mb = _peak_rss_mb(cli)

    return {
        "ops": len(latencies),
        "timed_s": timed_s,
        "cycle_s": cycle_s,
        "traced_ops": traced_ops,
        "latencies_s": latencies,
        "failed": len(failures),
        "failures": failures[:10],
        "peak_rss_mb": rss_mb,
        "regions": dict(regions),
        "trace": runner.trace() if traced else None,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="qbench.worker")
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    if args.workload != "sweep-cli":
        import qneg

        if Path(qneg.__file__).resolve().parent != root / "src" / "qneg":
            print(f"qneg imported from {qneg.__file__}, not from {root / 'src'}", file=sys.stderr)
            return 2
    result = run_phase(root, args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
