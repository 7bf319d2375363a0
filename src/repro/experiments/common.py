"""Shared experiment harness.

Every figure/table module in this package builds on
:func:`run_inference_workload`: submit a generated workload to a sharing
system on a freshly built cluster, drive arrivals in virtual time, wait
for completion, and report throughput / utilization / per-job stats.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Type

from ..baselines.base import GPURequirements, SharingSystem
from ..cluster.cluster import Cluster
from ..gpu.nvml import NVMLSampler
from ..metrics.analysis import makespan, throughput_jobs_per_minute
from ..sim import Environment
from ..workloads.flows import FlowScheduler
from ..workloads.generator import InferenceWorkload, JobArrival
from ..workloads.jobs import JobStats

__all__ = ["RunResult", "run_inference_workload", "default_requirements"]


@dataclass
class RunResult:
    """Outcome of one workload run through one system."""

    system: str
    stats: List[JobStats]
    makespan: float
    throughput_jobs_per_min: float
    failed_jobs: int
    sampler: Optional[NVMLSampler] = None
    extras: Dict[str, object] = field(default_factory=dict)


def default_requirements(job: JobArrival) -> GPURequirements:
    """How a user would size a sharePod for an inference job: request what
    it needs, leave a little elastic headroom in the limit."""
    limit = min(1.0, max(job.demand, round(job.demand * 1.2, 3)))
    return GPURequirements(request=job.demand, limit=limit, mem=job.mem_fraction)


def run_inference_workload(
    system_cls: Type[SharingSystem],
    workload: InferenceWorkload,
    nodes: int = 8,
    gpus_per_node: int = 4,
    sample_utilization: bool = False,
    sample_interval: float = 5.0,
    requirements_fn: Callable[[JobArrival], GPURequirements] = default_requirements,
    anti_affinity_fn: Optional[Callable[[JobArrival], Optional[str]]] = None,
    system_kwargs: Optional[dict] = None,
    max_sim_time: float = 24 * 3600.0,
) -> RunResult:
    """Run *workload* through *system_cls* on a fresh cluster.

    ``anti_affinity_fn`` maps a job to its ``sched_anti_affinity`` label
    (only KubeShare honours it — §5.5). Returns the aggregated
    :class:`RunResult`; utilization sampling (Figure 9) is optional since
    it adds events.
    """
    env = Environment()
    cluster: Cluster = system_cls.make_cluster(env, nodes=nodes, gpus_per_node=gpus_per_node)
    system = system_cls(cluster, **(system_kwargs or {}))
    cluster.start()
    system.start()

    sampler = None
    if sample_utilization:
        sampler = NVMLSampler(env, cluster.gpus, interval=sample_interval).start()

    jobs = sorted(workload.jobs, key=lambda j: j.arrival_time)

    def fire(i: int) -> None:
        job = jobs[i]
        system.submit(
            job.name,
            job.to_job().workload(),
            requirements_fn(job),
            anti_affinity=(anti_affinity_fn(job) if anti_affinity_fn else None),
        )

    def driver():
        # The whole arrival flow is scheduled in one batch; see
        # repro.workloads.flows for the per-kernel-mode mechanics.
        yield FlowScheduler(env).schedule(
            [max(j.arrival_time, 0.0) for j in jobs], fire
        )
        yield from system.wait_all()

    done = env.process(driver(), name=f"driver:{system.name}")
    env.run(until=done)
    if env.now >= max_sim_time:  # pragma: no cover - runaway guard
        raise RuntimeError(f"workload did not finish within {max_sim_time}s")
    if sampler is not None:
        sampler.stop()

    stats = system.stats()
    return RunResult(
        system=system.name,
        stats=stats,
        makespan=makespan(stats),
        throughput_jobs_per_min=throughput_jobs_per_minute(stats),
        failed_jobs=sum(1 for s in stats if s.failed),
        sampler=sampler,
        extras={"cluster": cluster, "system": system},
    )
