"""Figure 10: pod-creation overhead of KubeShare vs native Kubernetes.

Three configurations, swept over the number of *concurrent* pod-creation
requests:

* **Kubernetes** — a native pod with a whole GPU;
* **KubeShare w/o vGPU creation** — the sharePod lands on an existing
  (prewarmed) idle vGPU, paying only scheduling + binding + library setup
  (the paper measures ~15% over native);
* **KubeShare w/ vGPU creation** — the vGPU must be acquired first by
  launching a placeholder pod, roughly doubling the creation time (two
  pods are launched end to end).

The absolute seconds come from the calibrated runtime latency model; the
claims under test are the *ratios* and that KubeShare's extra overhead
stays constant as concurrency grows (while the base creation time rises
because the per-node container runtime serializes setup work).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from ..baselines.base import GPURequirements
from ..baselines.kubeshare_sys import KubeShareSystem
from ..baselines.native import NativeKubernetes
from ..cluster.cluster import wait_for
from ..cluster.objects import PodPhase
from ..core.policies import ReservationPolicy
from ..metrics.reporting import ascii_table
from ..sim import Environment

__all__ = ["Fig10Point", "run", "main", "DEFAULT_CONCURRENCY"]

DEFAULT_CONCURRENCY = (1, 2, 4, 8, 16, 32)
_REQS = GPURequirements(request=0.9, limit=1.0, mem=0.5)
_STARTED = (PodPhase.RUNNING, PodPhase.FAILED)


@dataclass(frozen=True)
class Fig10Point:
    mode: str
    concurrency: int
    mean_creation_time: float


def _idle_workload(ctx):
    """A service that runs until deleted (creation time is what we measure)."""
    yield ctx.env.event()


def _measure_native(concurrency: int, nodes: int, gpus_per_node: int) -> float:
    env = Environment()
    cluster = NativeKubernetes.make_cluster(env, nodes=nodes, gpus_per_node=gpus_per_node)
    system = NativeKubernetes(cluster)
    cluster.start()
    system.start()
    names = [f"pod-{i}" for i in range(concurrency)]
    submit_at = env.now
    for name in names:
        system.submit(name, _idle_workload, _REQS)
    env.run(until=env.process(wait_for(cluster.api, "Pod", names, _STARTED)))
    times = []
    for n in names:
        pod = cluster.api.get("Pod", n)
        assert pod.status.phase is PodPhase.RUNNING, pod.status.message
        times.append(pod.status.start_time - submit_at)
    return sum(times) / len(times)


def _measure_kubeshare(
    concurrency: int, nodes: int, gpus_per_node: int, prewarm: bool
) -> float:
    env = Environment()
    cluster = KubeShareSystem.make_cluster(env, nodes=nodes, gpus_per_node=gpus_per_node)
    policy = ReservationPolicy(max_idle=None) if prewarm else None
    system = KubeShareSystem(cluster, policy=policy)
    cluster.start()
    system.start()
    ks = system.kubeshare
    if prewarm:
        gpuids = ks.devmgr.prewarm(concurrency)
        # Measure from the instant the last prewarmed vGPU materialized:
        # DevMgr reads each device at its placeholder's Running commit.
        holders = [ks.pool.get(g).placeholder_pod for g in gpuids]
        env.run(until=env.process(wait_for(cluster.api, "Pod", holders, [PodPhase.RUNNING])))

    names = [f"share-{i}" for i in range(concurrency)]
    submit_at = env.now
    # With a prewarmed pool Algorithm 1 lands each sharePod on an existing
    # idle vGPU (request 0.9 forbids co-location), so only scheduling +
    # binding + library setup is paid; without it every sharePod also
    # triggers a vGPU acquisition (placeholder pod launch).
    for name in names:
        system.submit(name, _idle_workload, _REQS)
    env.run(until=env.process(wait_for(cluster.api, "SharePod", names, _STARTED)))
    times = []
    for n in names:
        sp = ks.get(n)
        assert sp.status.phase is PodPhase.RUNNING, sp.status.message
        pod = cluster.api.get("Pod", n)
        times.append(pod.status.start_time - submit_at)
    return sum(times) / len(times)


def run(
    concurrency_levels: Sequence[int] = DEFAULT_CONCURRENCY,
    nodes: int = 8,
    gpus_per_node: int = 4,
) -> List[Fig10Point]:
    points: List[Fig10Point] = []
    for c in concurrency_levels:
        points.append(
            Fig10Point("Kubernetes", c, _measure_native(c, nodes, gpus_per_node))
        )
        points.append(
            Fig10Point(
                "KubeShare w/o vGPU creation",
                c,
                _measure_kubeshare(c, nodes, gpus_per_node, prewarm=True),
            )
        )
        points.append(
            Fig10Point(
                "KubeShare w/ vGPU creation",
                c,
                _measure_kubeshare(c, nodes, gpus_per_node, prewarm=False),
            )
        )
    return points


def main() -> str:
    points = run()
    by_c: dict = {}
    for p in points:
        by_c.setdefault(p.concurrency, {})[p.mode] = p.mean_creation_time
    rows = []
    for c in sorted(by_c):
        k8s = by_c[c]["Kubernetes"]
        without = by_c[c]["KubeShare w/o vGPU creation"]
        with_ = by_c[c]["KubeShare w/ vGPU creation"]
        rows.append((c, k8s, without, with_, without / k8s, with_ / k8s))
    table = ascii_table(
        [
            "concurrent pods",
            "Kubernetes (s)",
            "KubeShare w/o vGPU (s)",
            "KubeShare w/ vGPU (s)",
            "w/o ratio",
            "w/ ratio",
        ],
        rows,
        title="Figure 10 — pod creation time",
    )
    print(table)
    return table


if __name__ == "__main__":  # pragma: no cover
    main()
