"""Common interface for GPU-sharing systems (Table 1's rows).

Every system under comparison — native Kubernetes, Deepomatic, Aliyun
gpushare, GaiaGPU, and KubeShare itself — is wrapped behind
:class:`SharingSystem` so the benchmark harness can run identical
workloads through each and compare throughput, utilization, and feature
coverage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Generator, List, Optional, Sequence, Tuple

from ..cluster.cluster import Cluster, ClusterConfig, wait_for
from ..cluster.objects import PodPhase
from ..sim import Environment
from ..workloads.jobs import JobStats

__all__ = ["GPURequirements", "JobHandle", "SharingSystem", "FEATURE_NAMES"]

_TERMINAL = (PodPhase.SUCCEEDED, PodPhase.FAILED)

#: Table 1 feature keys, in the paper's row order.
FEATURE_NAMES = (
    "multi_gpu_per_node",
    "fine_grained_allocation",
    "memory_isolation",
    "compute_isolation",
    "first_class_identity",
    "locality_constraints",
    "coexists_with_kube_scheduler",
)


@dataclass(frozen=True)
class GPURequirements:
    """A job's fractional GPU ask (KubeShare's vocabulary; baselines map it
    onto whatever subset they support)."""

    request: float
    limit: float
    mem: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.request <= self.limit <= 1.0:
            raise ValueError(
                f"need 0 <= request <= limit <= 1, got ({self.request}, {self.limit})"
            )
        if not 0.0 < self.mem <= 1.0:
            raise ValueError(f"mem must be in (0,1], got {self.mem}")


@dataclass
class JobHandle:
    """A submitted job: its API object identity plus collected stats."""

    name: str
    kind: str  # "Pod" or "SharePod"
    stats: JobStats
    namespace: str = "default"


class SharingSystem:
    """Base class for a GPU management system attached to a cluster."""

    name: str = "abstract"
    #: Table 1 flags; values are True/False/"limited".
    features: Dict[str, object] = {}

    def __init__(self, cluster: Cluster) -> None:
        self.cluster = cluster
        self.env: Environment = cluster.env
        self.api = cluster.api
        self.handles: List[JobHandle] = []

    # -- cluster shape this system needs -----------------------------------
    @classmethod
    def make_cluster(cls, env: Optional[Environment] = None, **overrides) -> Cluster:
        """Build a cluster configured the way this system requires."""
        return Cluster(env, ClusterConfig(**overrides))

    def start(self) -> "SharingSystem":
        """Start any controllers this system adds. Default: none."""
        return self

    # -- job submission -------------------------------------------------------
    def submit(
        self,
        name: str,
        workload: Callable,
        requirements: GPURequirements,
        affinity: Optional[str] = None,
        anti_affinity: Optional[str] = None,
        exclusion: Optional[str] = None,
    ) -> JobHandle:
        raise NotImplementedError

    def _track(self, handle: JobHandle) -> JobHandle:
        handle.stats.submitted_at = self.env.now
        self.handles.append(handle)
        return handle

    # -- completion tracking -----------------------------------------------------
    def job_phase(self, handle: JobHandle) -> Optional[PodPhase]:
        obj = self.api.get(handle.kind, handle.name, handle.namespace)
        return obj.status.phase if obj is not None else None

    def wait_all(self, handles: Optional[Sequence[JobHandle]] = None) -> Generator:
        """Process helper: wait until every handle's object reached a
        terminal phase or is gone (see :func:`~repro.cluster.cluster.wait_for`);
        a handle whose object settled Failed is marked ``stats.failed``."""
        groups: Dict[Tuple[str, str], List[JobHandle]] = {}
        for h in handles if handles is not None else self.handles:
            groups.setdefault((h.kind, h.namespace), []).append(h)
        for (kind, namespace), group in groups.items():
            settled = yield from wait_for(
                self.api, kind, [h.name for h in group], _TERMINAL, namespace
            )
            for h in group:
                obj = settled[h.name]
                if obj is not None and obj.status.phase is PodPhase.FAILED:
                    h.stats.failed = True

    def stats(self) -> List[JobStats]:
        return [h.stats for h in self.handles]
