"""Canonical scenarios and the parallel seed sweep.

* :mod:`repro.perf.scenarios` — the canonical end-to-end scenarios (fig8
  throughput, chaos recovery, HA failover, Borg-shaped trace replay),
  shared by the benchmark (``bench/``), the golden digests in
  ``tests/perf`` and the obs CLI.
* :mod:`repro.perf.sweep` — one scenario at many seeds across worker
  processes, merged into one deterministic report.

Quickstart::

    PYTHONPATH=src python -m repro.perf sweep --scenario trace_replay --seeds 1-8

Nothing is imported eagerly: the scenarios pull in the whole cluster
stack, so callers import them on demand.
"""
