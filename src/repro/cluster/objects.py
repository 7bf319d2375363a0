"""Kubernetes API object model.

A faithful-but-compact reproduction of the object shapes the paper's
controllers interact with: :class:`Pod` (with :class:`PodSpec`),
:class:`Node`, resource quantities (including *extended resources* such as
``nvidia.com/gpu``), labels and label selectors.

Resource quantities are plain ``dict[str, float]`` keyed by resource name
(``cpu``, ``memory``, ``nvidia.com/gpu``, …) with helper arithmetic in
:class:`Quantities`. Fractional values are permitted at this layer; the
*device plugin* layer is where Kubernetes' integer-only restriction for
extended resources is enforced (§3.1 of the paper).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional

from ..analysis.resets import register_reset

__all__ = [
    "Quantities",
    "ObjectMeta",
    "ContainerSpec",
    "PodSpec",
    "PodPhase",
    "PodStatus",
    "Pod",
    "NodeStatus",
    "Node",
    "LabelSelector",
    "APIObject",
    "GPU_RESOURCE",
    "DEFAULT_NAMESPACE",
]

#: Canonical extended-resource name for an NVIDIA GPU.
GPU_RESOURCE = "nvidia.com/gpu"

DEFAULT_NAMESPACE = "default"

_uid_counter = itertools.count(1)


def _new_uid() -> str:
    return f"uid-{next(_uid_counter):08d}"


@register_reset("repro.cluster.objects.uid_counter")
def reset_uid_counter() -> None:
    """Restart UID generation (fresh-process object identity)."""
    global _uid_counter
    _uid_counter = itertools.count(1)


class Quantities:
    """Arithmetic over resource-quantity dicts (missing key == 0)."""

    @staticmethod
    def add(a: Mapping[str, float], b: Mapping[str, float]) -> Dict[str, float]:
        out = dict(a)
        for k, v in b.items():
            out[k] = out.get(k, 0.0) + v
        return out

    @staticmethod
    def sub(a: Mapping[str, float], b: Mapping[str, float]) -> Dict[str, float]:
        out = dict(a)
        for k, v in b.items():
            out[k] = out.get(k, 0.0) - v
        return out

    @staticmethod
    def fits(demand: Mapping[str, float], available: Mapping[str, float]) -> bool:
        """True if every demanded quantity is available (with float slack)."""
        return all(available.get(k, 0.0) + 1e-9 >= v for k, v in demand.items())

    @staticmethod
    def nonneg(a: Mapping[str, float]) -> bool:
        return all(v >= -1e-9 for v in a.values())


@dataclass
class ObjectMeta:
    """Standard object metadata (a subset of Kubernetes' ObjectMeta)."""

    name: str
    namespace: str = DEFAULT_NAMESPACE
    labels: Dict[str, str] = field(default_factory=dict)
    annotations: Dict[str, str] = field(default_factory=dict)
    uid: str = field(default_factory=_new_uid)
    resource_version: int = 0
    creation_time: Optional[float] = None
    deletion_time: Optional[float] = None
    owner_references: List[str] = field(default_factory=list)

    @property
    def key(self) -> str:
        """``namespace/name`` — the canonical store key."""
        return f"{self.namespace}/{self.name}"

    def clone(self) -> "ObjectMeta":
        # The uid is passed through explicitly: cloning must never draw
        # from the uid counter, or apiserver round-trips would shift the
        # identity sequence of later objects.
        return ObjectMeta(
            name=self.name,
            namespace=self.namespace,
            labels=dict(self.labels),
            annotations=dict(self.annotations),
            uid=self.uid,
            resource_version=self.resource_version,
            creation_time=self.creation_time,
            deletion_time=self.deletion_time,
            owner_references=list(self.owner_references),
        )


@dataclass
class ContainerSpec:
    """A single container's spec: image, resources, environment."""

    name: str = "main"
    image: str = "busybox"
    command: List[str] = field(default_factory=list)
    requests: Dict[str, float] = field(default_factory=dict)
    limits: Dict[str, float] = field(default_factory=dict)
    env: Dict[str, str] = field(default_factory=dict)

    def clone(self) -> "ContainerSpec":
        return ContainerSpec(
            name=self.name,
            image=self.image,
            command=list(self.command),
            requests=dict(self.requests),
            limits=dict(self.limits),
            env=dict(self.env),
        )


@dataclass
class PodSpec:
    """Desired state of a pod.

    ``workload`` is this simulation's stand-in for the container image
    entrypoint: a factory ``(ContainerContext) -> generator`` run as a sim
    process once the container starts. ``None`` models a long-running
    service that only exits when the pod is deleted.
    """

    containers: List[ContainerSpec] = field(default_factory=lambda: [ContainerSpec()])
    node_name: Optional[str] = None
    node_selector: Dict[str, str] = field(default_factory=dict)
    scheduler_name: str = "default-scheduler"
    workload: Optional[Callable[[Any], Any]] = None

    def resource_requests(self) -> Dict[str, float]:
        total: Dict[str, float] = {}
        for c in self.containers:
            total = Quantities.add(total, c.requests)
        return total

    def clone(self) -> "PodSpec":
        # The workload factory is shared by reference: it is code, not
        # state, and every clone must run the same entrypoint.
        return PodSpec(
            containers=[c.clone() for c in self.containers],
            node_name=self.node_name,
            node_selector=dict(self.node_selector),
            scheduler_name=self.scheduler_name,
            workload=self.workload,
        )


class PodPhase(str, Enum):
    PENDING = "Pending"
    RUNNING = "Running"
    SUCCEEDED = "Succeeded"
    FAILED = "Failed"


@dataclass
class PodStatus:
    phase: PodPhase = PodPhase.PENDING
    message: str = ""
    start_time: Optional[float] = None
    finish_time: Optional[float] = None
    #: Environment variables actually injected into the (single) container
    #: at start time — this is where ``NVIDIA_VISIBLE_DEVICES`` shows up.
    container_env: Dict[str, str] = field(default_factory=dict)

    def clone(self) -> "PodStatus":
        return PodStatus(
            phase=self.phase,
            message=self.message,
            start_time=self.start_time,
            finish_time=self.finish_time,
            container_env=dict(self.container_env),
        )


@dataclass
class Pod:
    """The smallest deployable unit. One container per pod (paper §2.1)."""

    metadata: ObjectMeta
    spec: PodSpec = field(default_factory=PodSpec)
    status: PodStatus = field(default_factory=PodStatus)

    kind = "Pod"

    @property
    def name(self) -> str:
        return self.metadata.name

    @property
    def bound(self) -> bool:
        return self.spec.node_name is not None

    def clone(self) -> "Pod":
        """Deep copy, sharing only the (immutable) workload factory."""
        return Pod(
            metadata=self.metadata.clone(),
            spec=self.spec.clone(),
            status=self.status.clone(),
        )


@dataclass
class NodeStatus:
    capacity: Dict[str, float] = field(default_factory=dict)
    allocatable: Dict[str, float] = field(default_factory=dict)
    ready: bool = True
    #: UUIDs of devices the kubelet currently reports unhealthy.
    unhealthy_gpus: List[str] = field(default_factory=list)

    def clone(self) -> "NodeStatus":
        return NodeStatus(
            capacity=dict(self.capacity),
            allocatable=dict(self.allocatable),
            ready=self.ready,
            unhealthy_gpus=list(self.unhealthy_gpus),
        )


@dataclass
class Node:
    metadata: ObjectMeta
    status: NodeStatus = field(default_factory=NodeStatus)

    kind = "Node"

    @property
    def name(self) -> str:
        return self.metadata.name

    def clone(self) -> "Node":
        return Node(metadata=self.metadata.clone(), status=self.status.clone())


class LabelSelector:
    """Equality-based label selector (`matchLabels` semantics)."""

    def __init__(self, match_labels: Optional[Mapping[str, str]] = None) -> None:
        self.match_labels = dict(match_labels or {})

    def matches(self, labels: Mapping[str, str]) -> bool:
        return all(labels.get(k) == v for k, v in self.match_labels.items())

    def __repr__(self) -> str:  # pragma: no cover
        return f"LabelSelector({self.match_labels!r})"


#: Union type of everything the API server can store. CRDs (like SharePod)
#: register additional kinds at runtime.
APIObject = Any


def group_by_node(pods: Iterable[Pod]) -> Dict[str, List[Pod]]:
    """Bucket *pods* by their bound node (unbound pods are skipped)."""
    out: Dict[str, List[Pod]] = {}
    for pod in pods:
        if pod.spec.node_name is not None:
            out.setdefault(pod.spec.node_name, []).append(pod)
    return out
