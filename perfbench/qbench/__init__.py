"""Benchmark harness for qneg: seeded workloads, independent reference
checks, and span tracing of the library's public functions from outside.

Nothing in this package is imported by qneg itself; the harness only calls
the public API and the ``qneg`` command line.
"""
