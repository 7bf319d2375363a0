"""Every metric the benchmark reports: name, unit, direction and bound.

End-to-end metrics are measured with tracing off. Those measured on every
workload are the ones ``BENCHMARK.json`` lists, with the same bounds; the
rest belong to one workload each. Per-layer metrics come from the traced
runs and carry no bound.

*clock* marks timings: ``host`` is what the simulator takes to run,
``virtual`` is simulated time. An *exact* metric is deterministic for a
seed, so two runs of one commit must agree on it to the last digit. A
metric's value is the median of its samples.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

__all__ = [
    "LAYERS",
    "Metric",
    "END_TO_END",
    "PER_LAYER",
    "FAILED_FRAC",
    "result_metrics",
    "for_workload",
    "format_table",
    "summarize",
]

#: The tabled layers, named after the repo modules. ``cluster`` is split
#: three ways because its parts are hot on different workloads.
LAYERS = (
    "sim",
    "workloads",
    "gpu",
    "core",
    "cluster.api",
    "cluster.scheduler",
    "cluster.node",
    "obs",
)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" or "higher"
    #: share of the parent's median the metric may worsen by; ``None``
    #: for metrics the benchmark gates on exactness alone.
    bound: Optional[float] = None
    exact: bool = False
    clock: str = ""
    #: the one workload that measures it; ``None`` means all of them.
    workload: Optional[str] = None
    #: printed beside the value.
    note: str = ""


END_TO_END = (
    Metric("wall_s", "s", "lower", 0.24, clock="host"),
    Metric("events_per_sim_s", "events/s", "lower", 0.2, exact=True, clock="virtual"),
    Metric("peak_rss_mb", "MB", "lower", 0.05),
    Metric("setup_s", "s", "lower", 0.25, clock="host"),
    Metric("obs_overhead_x", "ratio", "lower", 0.24, clock="host", workload="failover_obs"),
    Metric("obs_extra_events", "events", "lower", exact=True, workload="failover_obs"),
    Metric("sim_gain_x", "ratio", "higher", exact=True, workload="fig8", note="paper: ~2.2x at saturation"),
    Metric("sim_recovery_pct", "%", "higher", exact=True, workload="chaos"),
    Metric("sim_failover_s", "s", "lower", exact=True, clock="virtual", workload="failover_obs"),
    Metric("sim_jobs_per_min", "jobs/min", "higher", exact=True, clock="virtual", workload="borg_replay"),
)

#: Runs that raised, changed their summary digest or failed a check, over
#: runs attempted (traced runs included). One run's result line carries
#: it as the ``attempted``/``failed`` pair, since a metric that is always
#: 0 cannot carry a relative bound.
FAILED_FRAC = Metric("failed_frac", "runs/attempted", "lower", exact=True)


def _per_layer() -> List[Metric]:
    metrics = []
    for layer in LAYERS:
        metrics += [
            Metric(f"{layer}.self_s", "s", "lower", clock="host"),
            Metric(f"{layer}.share", "ratio", "lower"),
            Metric(f"{layer}.dispatches", "count", "lower"),
        ]
    return metrics + [
        Metric("sim.events", "count", "lower"),
        Metric("sim.queue_pushes", "count", "lower"),
        Metric("sim.ns_per_event", "ns", "lower", clock="host"),
        Metric("gpu.token.acquires", "count", "lower"),
        Metric("gpu.token.releases", "count", "lower"),
        Metric("gpu.elastic.calls", "count", "lower"),
        Metric("core.alg1.calls", "count", "lower"),
        Metric("core.alg1.us_per_call", "us", "lower", clock="host"),
        Metric("core.views.rebuilds", "count", "lower"),
        Metric("cluster.api.writes", "count", "lower"),
        Metric("cluster.api.write_errors", "count", "lower"),
        Metric("cluster.etcd.commits", "count", "lower"),
        Metric("cluster.node.heartbeats", "count", "lower"),
        Metric("obs.spans", "count", "lower"),
        Metric("obs.hooks", "count", "lower"),
        Metric("trace.attributed", "ratio", "higher"),
        Metric("trace.overhead_x", "ratio", "lower"),
    ]


PER_LAYER = tuple(_per_layer())


def result_metrics(trace: bool) -> Sequence[Metric]:
    """The metrics of one run's result line: per-layer or end-to-end."""
    if trace:
        return PER_LAYER
    return tuple(m for m in END_TO_END if m.workload is None)


def for_workload(name: str) -> Sequence[Metric]:
    return tuple(m for m in END_TO_END if m.workload in (None, name))


def format_table(specs: Sequence[Metric], table: Dict[str, Dict]) -> str:
    """One row per metric in *specs* with a summary in *table*."""
    rows = [f"  {'metric':<28} {'unit':<14} {'n':>4} {'median':>12} {'q1':>12} {'q3':>12}  clock"]
    for m in specs:
        if m.name in table:
            r = table[m.name]
            rows.append(
                f"  {m.name:<28} {m.unit:<14} {r['n']:>4} {r['median']:>12.6g} {r['q1']:>12.6g} "
                f"{r['q3']:>12.6g}  {m.clock:<7} {m.note}".rstrip()
            )
    return "\n".join(rows)


def summarize(values: Sequence[float]) -> Dict[str, object]:
    """n, median and quartiles of one interpreter's samples.

    The quartiles interpolate between samples ("inclusive" method): with
    the 4 to 6 runs a long workload fits in its budget, the default
    method would read them off the two extreme runs.
    """
    values = list(values)
    median = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = median
    return {"n": len(values), "median": median, "q1": q1, "q3": q3, "values": values}
