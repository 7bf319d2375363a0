"""Correctness tooling for the simulated control plane.

Three layers, all mechanical enforcements of invariants the rest of the
repo only *documents* (replayability, no lost updates, no double-bound
vGPUs, token quotas respected):

* :mod:`repro.analysis.resets` — a registry of reset hooks for
  process-global mutable state (the GPUID-counter bug class). Test
  fixtures call :func:`~repro.analysis.resets.reset_all` instead of
  hand-listing every counter.
* :mod:`repro.analysis.lint` — a custom static analysis engine with
  sim-specific rules (``python -m repro.analysis.lint src tests
  benchmarks``). File-local rule catalogue in :mod:`repro.analysis.rules`
  (DESIGN.md §8); whole-program dataflow passes — interprocedural taint,
  fence escape, yield-point atomicity — in :mod:`repro.analysis.flow`
  over the project call graph (:mod:`repro.analysis.callgraph`,
  DESIGN.md §13). Production surface: SARIF 2.1.0 output
  (:mod:`repro.analysis.sarif`), a committed finding baseline with
  diff-aware CI mode (:mod:`repro.analysis.baseline`), mechanical
  autofixes (:mod:`repro.analysis.fixes`), and a content-hash result
  cache (:mod:`repro.analysis.cache`).
* :mod:`repro.analysis.race` — a dynamic lost-update / double-bind /
  token-over-grant detector that instruments :class:`~repro.cluster.etcd.Etcd`
  and the per-node token backends at runtime (armed in every capstone
  benchmark and in the obs goldens).
"""

from .race import RaceDetector, RaceViolation, Violation
from .resets import register_reset, registered, reset_all
from .rules import ALL_RULES, Finding

__all__ = [
    "ALL_RULES",
    "Finding",
    "RaceDetector",
    "RaceViolation",
    "Violation",
    "register_reset",
    "registered",
    "reset_all",
]
