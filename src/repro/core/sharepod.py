"""The SharePod custom resource (paper §4.1/§4.2).

A *sharePod* is a pod with the ability to attach a fractionally-allocated
GPU. Its spec embeds the original pod spec plus KubeShare's first-class
GPU resource description:

* ``gpu_request`` — guaranteed minimum fraction of kernel execution time
  in a sliding window (time-shared compute);
* ``gpu_limit`` — elastic ceiling on compute usage;
* ``gpu_mem`` — fraction of device memory the container may allocate
  (space-shared, never over-committed);
* ``gpu_id`` — the vGPU identifier (GPUID); users may pin it explicitly —
  GPUs are first-class, identifiable entities;
* ``node_name`` — the GPU's node, once known;
* locality constraint labels: ``sched_affinity``, ``sched_anti_affinity``
  and ``sched_exclusion`` (§4.2).

All fractional demands are values in (0, 1] and ``request <= limit``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..cluster.objects import ObjectMeta, PodPhase, PodSpec

__all__ = ["SharePodSpec", "SharePodStatus", "SharePod", "SpecError"]


class SpecError(ValueError):
    """A SharePodSpec fails validation."""


@dataclass
class SharePodSpec:
    """Desired state of a sharePod (Script 1 in the paper)."""

    pod_spec: PodSpec = field(default_factory=PodSpec)
    gpu_request: float = 0.0
    gpu_limit: float = 1.0
    gpu_mem: float = 0.0
    #: GPUID of the vGPU to bind; filled in by KubeShare-Sched (or the user).
    gpu_id: Optional[str] = None
    #: Node hosting the vGPU; filled in by KubeShare-DevMgr (or the user).
    node_name: Optional[str] = None
    sched_affinity: Optional[str] = None
    sched_anti_affinity: Optional[str] = None
    sched_exclusion: Optional[str] = None
    #: what DevMgr does when the SharePod's GPU or node dies:
    #: ``"never"`` — fail the SharePod (default, the paper's behaviour);
    #: ``"reschedule"`` — clear the placement and let KubeShare-Sched
    #: re-run Algorithm 1 on surviving capacity.
    restart_policy: str = "never"
    #: name of a PriorityClass object (``None`` = default priority 0).
    priority_class: Optional[str] = None
    #: best-effort / harvesting mode: the SharePod only binds spare
    #: fractional capacity on *existing* vGPUs (never acquires a new
    #: physical GPU), sits below every PriorityClass, and is revoked
    #: through the drain path whenever prioritised work needs the room.
    best_effort: bool = False

    def validate(self) -> None:
        if not 0.0 <= self.gpu_request <= 1.0:
            raise SpecError(f"gpu_request must be in [0,1], got {self.gpu_request}")
        if not 0.0 < self.gpu_limit <= 1.0:
            raise SpecError(f"gpu_limit must be in (0,1], got {self.gpu_limit}")
        if self.gpu_request > self.gpu_limit:
            raise SpecError(
                f"gpu_request ({self.gpu_request}) must not exceed "
                f"gpu_limit ({self.gpu_limit})"
            )
        if not 0.0 < self.gpu_mem <= 1.0:
            raise SpecError(f"gpu_mem must be in (0,1], got {self.gpu_mem}")
        for label_name in ("sched_affinity", "sched_anti_affinity", "sched_exclusion"):
            value = getattr(self, label_name)
            if value is not None and (not isinstance(value, str) or not value):
                raise SpecError(f"{label_name} must be a non-empty string")
        if self.restart_policy not in ("never", "reschedule"):
            raise SpecError(
                f"restart_policy must be 'never' or 'reschedule', "
                f"got {self.restart_policy!r}"
            )
        if self.priority_class is not None and (
            not isinstance(self.priority_class, str) or not self.priority_class
        ):
            raise SpecError("priority_class must be a non-empty string")
        if self.best_effort and self.priority_class is not None:
            raise SpecError(
                "best_effort and priority_class are mutually exclusive "
                "(best-effort sits below every priority class)"
            )

    def clone(self) -> "SharePodSpec":
        return SharePodSpec(
            pod_spec=self.pod_spec.clone(),
            gpu_request=self.gpu_request,
            gpu_limit=self.gpu_limit,
            gpu_mem=self.gpu_mem,
            gpu_id=self.gpu_id,
            node_name=self.node_name,
            sched_affinity=self.sched_affinity,
            sched_anti_affinity=self.sched_anti_affinity,
            sched_exclusion=self.sched_exclusion,
            restart_policy=self.restart_policy,
            priority_class=self.priority_class,
            best_effort=self.best_effort,
        )


@dataclass
class SharePodStatus:
    phase: PodPhase = PodPhase.PENDING
    message: str = ""
    #: Physical GPU UUID once the vGPU is materialized.
    gpu_uuid: Optional[str] = None
    #: Name of the real pod created by KubeShare-DevMgr.
    pod_name: Optional[str] = None
    start_time: Optional[float] = None
    finish_time: Optional[float] = None
    scheduled_time: Optional[float] = None

    def clone(self) -> "SharePodStatus":
        return SharePodStatus(
            phase=self.phase,
            message=self.message,
            gpu_uuid=self.gpu_uuid,
            pod_name=self.pod_name,
            start_time=self.start_time,
            finish_time=self.finish_time,
            scheduled_time=self.scheduled_time,
        )


@dataclass
class SharePod:
    """The CRD object stored in the API server."""

    metadata: ObjectMeta
    spec: SharePodSpec = field(default_factory=SharePodSpec)
    status: SharePodStatus = field(default_factory=SharePodStatus)

    kind = "SharePod"

    @property
    def name(self) -> str:
        return self.metadata.name

    def clone(self) -> "SharePod":
        return SharePod(
            metadata=self.metadata.clone(),
            spec=self.spec.clone(),
            status=self.status.clone(),
        )
