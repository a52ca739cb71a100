"""Traced stand-in for the ``qneg`` command: ``python -m qbench.launcher ARGS``.

Imports ``qneg.cli``, installs the span wrappers, calls ``qneg.cli.main``
with ARGS and exits with its status.  The span totals, cache counters and the
import and main times go to stderr as one line starting with the trace mark,
which the worker strips before checking the command's own output.
"""

from __future__ import annotations

import json
import sys
import time

TRACE_MARK = "QBENCH-TRACE "


def main() -> int:
    t0 = time.perf_counter()
    import qneg.cli

    import_s = time.perf_counter() - t0
    from .tracer import Tracer, cache_counts, cache_stats

    tracer = Tracer()
    before = cache_stats()
    t0 = time.perf_counter()
    try:
        with tracer:
            return qneg.cli.main(sys.argv[1:])
    finally:
        main_s = time.perf_counter() - t0
        sys.stdout.flush()
        trace = {
            "totals": {**tracer.totals(), **cache_counts(before)},
            "import_s": import_s,
            "main_s": main_s,
        }
        print(TRACE_MARK + json.dumps(trace), file=sys.stderr)


if __name__ == "__main__":
    raise SystemExit(main())
