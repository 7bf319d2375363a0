"""The benchmark's four workloads.

Each one calls a canonical scenario of :mod:`repro.perf.scenarios` with
arguments and defines no scenario of its own. Inside the simulation,
arrivals are open-loop in virtual time. The benchmark drives every
workload closed-loop with a single client: one run at a time in one
process and one thread, each starting when the previous one returns.

A workload's *judge* turns a run's deterministic summary into its
virtual-time results and the list of correctness checks it failed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.perf import scenarios

__all__ = ["Workload", "WORKLOADS"]

#: HA failover bound: the standby must lead within this many virtual s.
FAILOVER_BOUND_S = 4.0

Judged = Tuple[Dict[str, float], List[str]]


@dataclass(frozen=True)
class Workload:
    name: str
    #: canonical seed, and the one held out for claims.
    seed: int
    held_out_seed: int
    why: str
    #: seed -> scenario output (``summary``, ``events``, ``sim_time``).
    call: Callable[[int], Dict[str, Any]]
    judge: Callable[[Dict[str, Any]], Judged]
    #: the obs-off twin each timed run is paired with, if any.
    obs_off: Optional[Callable[[int], Dict[str, Any]]] = None


def _judge_fig8(summary) -> Judged:
    native = summary["Kubernetes"]["throughput_jobs_per_min"]
    shared = summary["KubeShare"]["throughput_jobs_per_min"]
    problems = [f"{system}: {s['failed']} jobs failed" for system, s in summary.items() if s["failed"]]
    return {"sim_gain_x": shared / native}, problems


def _judge_chaos(summary) -> Judged:
    pct = 100.0 * summary["post_rate"] / summary["pre_rate"]
    return {"sim_recovery_pct": pct}, ([] if pct >= 90.0 else [f"recovery {pct:.1f}% < 90%"])


def _judge_failover(summary) -> Judged:
    crash_at = summary["chaos_log"][0][0]
    after = [t for t, _identity, _epoch in summary["promotions"] if t >= crash_at]
    problems = [f"{name} is {p[0]}" for name, p in sorted(summary["placement"].items()) if p[0] != "Running"]
    if not after:
        return {}, problems + ["no promotion after the DevMgr crash"]
    failover = after[0] - crash_at
    if failover > FAILOVER_BOUND_S:
        problems.append(f"promotion {failover:.2f}s after the crash > {FAILOVER_BOUND_S}s")
    return {"sim_failover_s": failover}, problems


def _judge_borg(summary) -> Judged:
    problems = [f"{summary['failed']} jobs failed"] if summary["failed"] else []
    return {"sim_jobs_per_min": summary["throughput_jobs_per_min"]}, problems


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "fig8", 7, 8,
            "the paper's headline experiment, and the only one where the native kube-scheduler does real work",
            lambda seed: scenarios.fig8(seed=seed),
            _judge_fig8,
        ),
        Workload(
            "chaos", 11, 12,
            "node crash under token isolation: host time is the workload loop and token backend",
            lambda seed: scenarios.chaos(seed),
            _judge_chaos,
        ),
        Workload(
            "failover_obs", 13, 14,
            "HA DevMgr failover with obs on, paired with obs-off runs: the one workload that carries obs cost",
            lambda seed: scenarios.failover(seed, obs_label="bench"),
            _judge_failover,
            obs_off=lambda seed: scenarios.failover(seed),
        ),
        Workload(
            "borg_replay", 23, 24,
            "about 480 Borg-shaped jobs on 128 GPUs with fluid isolation: node housekeeping and Algorithm 1 at scale",
            lambda seed: scenarios.trace_replay(seed, nodes=32, gpus_per_node=4, mean_rate=1.4, horizon=360),
            _judge_borg,
        ),
    )
}
