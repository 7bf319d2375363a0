"""Cross-layer observability in virtual time.

Four instruments over one simulated run, all recording against
``sim.Environment.now`` (never the wall clock) so enabling them cannot
perturb a seeded schedule:

* :mod:`repro.obs.tracing` — context-propagated spans over the full
  SharePod journey, exportable as Chrome trace-event JSON (Perfetto);
* :mod:`repro.obs.kevents` — Kubernetes-style ``Event`` objects with
  reason/involvedObject/count dedup, stored through the apiserver;
* :mod:`repro.obs.decisions` — the Algorithm 1 decision log: every
  candidate GPU per scheduling pass with verdicts, scores, rejections;
* :mod:`repro.obs.runtime` — the hub tying them to a
  :class:`~repro.metrics.MetricsRegistry` (work-queue depth, etcd
  revision rate, token grant/deny counters, quota-window
  occupancy), dumped via :mod:`repro.obs.promfmt` in Prometheus text
  exposition format;
* :mod:`repro.obs.hist` — streaming fixed-boundary latency histograms
  (Prometheus ``_bucket``/``_sum``/``_count``, exact per-window
  p50/p95/p99) over the hot seams: Algorithm 1 passes, SharePod
  journeys, token waits, reconciles, federation placement;
* :mod:`repro.obs.slo` — declarative SLOs evaluated in virtual time by
  a multi-window multi-burn-rate alerter (page/ticket tiers) whose
  alerts land as Events in the artifact;
* :mod:`repro.obs.profile` — the one deliberately wall-clock instrument:
  a continuous profiler around ``Environment.step`` writing
  speedscope-compatible collapsed-stack flamegraphs (kept out of the
  deterministic snapshot; arm with ``ObsHub.start_profiler``).

CLI: ``python -m repro.obs {trace,events,explain,export,report,slo,profile}``
— see ``README.md`` for the quickstart. The four capstone benchmarks
always run armed and write their artifacts with
:func:`repro.obs.artifact.export_all`.
"""

from .runtime import ObsHub, current, disable, enable, enabled
from .slo import SLO, Alert, BurnRatePolicy, SLOEvaluator, default_slos

__all__ = [
    "ObsHub",
    "current",
    "enabled",
    "enable",
    "disable",
    "SLO",
    "Alert",
    "BurnRatePolicy",
    "SLOEvaluator",
    "default_slos",
]
