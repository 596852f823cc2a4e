"""Measured-performance harness: four workloads, end-to-end and
per-layer wall-clock metrics, kept apart from the modeled roofline
numbers.  See README.md in this directory; run with
``python -m benchmarks.perf``.

Importing this package has no side effects: the thread pinning and
the ``src`` path insertion happen in ``__main__`` only.
"""
