"""Figure 13: throughput under interference, three cluster settings.

Workloads mix Job A (over-requests; interference-resilient) and Job B
(under-requests; interference-prone) at a swept ratio, run through:

* **Kubernetes** — no sharing at all;
* **KubeShare without anti-affinity** — unrestricted sharing (B+B pairs
  suffer, but utilization is maximal);
* **KubeShare with anti-affinity on Job B** — Bs never share a device
  with each other.

Paper shape to reproduce: at Job-A ratio 0, unrestricted sharing wins
despite interference (anti-affinity degenerates to exclusive GPUs, like
Kubernetes); past ratio ~0.5, anti-affinity wins; both KubeShare settings
converge at ratio 1 and beat Kubernetes throughout the sharing regime.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Type

import numpy as np

from ..baselines.base import GPURequirements, SharingSystem
from ..baselines.kubeshare_sys import KubeShareSystem
from ..baselines.native import NativeKubernetes
from ..metrics.analysis import makespan, throughput_jobs_per_minute
from ..metrics.reporting import ascii_table
from ..sim import Environment
from ..workloads.interference import ANTI_AFFINITY_LABEL, JOB_A, JOB_B

__all__ = ["Fig13Point", "run", "main", "SETTINGS"]

SETTINGS = ("Kubernetes", "KubeShare", "KubeShare+anti-affinity")


@dataclass(frozen=True)
class Fig13Point:
    setting: str
    job_a_ratio: float
    throughput: float
    makespan: float
    failed: int


def _requirements(kind: str) -> GPURequirements:
    profile = JOB_A if kind == "A" else JOB_B
    return GPURequirements(
        request=profile.gpu_request, limit=profile.gpu_limit, mem=profile.gpu_mem
    )


def _run_setting(
    setting: str,
    kinds: Sequence[str],
    jobs_per_minute: float,
    nodes: int,
    gpus_per_node: int,
    seed: int,
) -> Fig13Point:
    system_cls: Type[SharingSystem] = (
        NativeKubernetes if setting == "Kubernetes" else KubeShareSystem
    )
    use_anti = setting == "KubeShare+anti-affinity"
    env = Environment()
    cluster = system_cls.make_cluster(env, nodes=nodes, gpus_per_node=gpus_per_node)
    system = system_cls(cluster)
    cluster.start()
    system.start()
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(60.0 / jobs_per_minute, size=len(kinds))
    arrivals = np.cumsum(gaps)

    def driver():
        for i, (kind, at) in enumerate(zip(kinds, arrivals)):
            delay = at - env.now
            if delay > 0:
                yield env.timeout(delay)
            profile = JOB_A if kind == "A" else JOB_B
            name = f"job{kind.lower()}-{i:03d}"
            anti: Optional[str] = (
                ANTI_AFFINITY_LABEL if (use_anti and kind == "B") else None
            )
            system.submit(
                name,
                profile.job(name, batch_requests=25).workload(),
                _requirements(kind),
                anti_affinity=anti,
            )
        yield from system.wait_all()

    env.run(until=env.process(driver()))
    stats = system.stats()
    ratio = kinds.count("A") / len(kinds)
    return Fig13Point(
        setting=setting,
        job_a_ratio=ratio,
        throughput=throughput_jobs_per_minute(stats),
        makespan=makespan(stats),
        failed=sum(1 for s in stats if s.failed),
    )


def mixed_kinds(n_jobs: int, job_a_ratio: float, seed: int) -> List[str]:
    """A deterministic shuffled mix with exactly round(ratio*n) A jobs."""
    n_a = int(round(job_a_ratio * n_jobs))
    kinds = ["A"] * n_a + ["B"] * (n_jobs - n_a)
    rng = np.random.default_rng(seed)
    rng.shuffle(kinds)
    return kinds


def run(
    ratios: Sequence[float] = (0.0, 0.25, 0.5, 0.75, 1.0),
    n_jobs: int = 32,
    jobs_per_minute: float = 60.0,
    nodes: int = 2,
    gpus_per_node: int = 4,
    seed: int = 11,
) -> List[Fig13Point]:
    points = []
    for ratio in ratios:
        kinds = mixed_kinds(n_jobs, ratio, seed)
        for setting in SETTINGS:
            points.append(
                _run_setting(
                    setting, kinds, jobs_per_minute, nodes, gpus_per_node, seed
                )
            )
    return points


def main() -> str:
    points = run()
    by_ratio: dict = {}
    for p in points:
        by_ratio.setdefault(p.job_a_ratio, {})[p.setting] = p.throughput
    rows = [
        (ratio, *(by_ratio[ratio].get(s, 0.0) for s in SETTINGS))
        for ratio in sorted(by_ratio)
    ]
    table = ascii_table(
        ["Job A ratio", *SETTINGS],
        rows,
        title="Figure 13 — throughput (jobs/min) under interference workloads",
    )
    print(table)
    return table


if __name__ == "__main__":  # pragma: no cover
    main()
