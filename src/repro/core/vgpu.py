"""vGPU objects and the vGPU pool (paper §4.4).

A *vGPU* is a physical GPU that KubeShare has acquired from Kubernetes
(via a placeholder native pod) and made shareable. Each vGPU carries a
unique virtual identifier — the **GPUID** — which is what makes GPUs
first-class, explicitly bindable entities; KubeShare-DevMgr maintains the
GPUID → physical-UUID mapping.

Lifecycle: ``CREATING`` (placeholder pod launched, UUID unknown) →
``ACTIVE`` (attached to ≥1 sharePod) ↔ ``IDLE`` (no sharePods attached) →
``DELETING`` (placeholder released back to Kubernetes).
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Set

from ..analysis.resets import register_reset

__all__ = [
    "VGPUPhase",
    "VGPU",
    "VGPUPool",
    "new_gpuid",
    "reset_gpuid_counter",
    "PLACEHOLDER_PREFIX",
    "placeholder_gpuid",
]

#: Placeholder pods are named ``vgpu-holder-<gpuid>`` — deterministically,
#: so a vGPU's placeholder can be recognized (and its creation retried
#: idempotently) by any controller instance, including a freshly promoted
#: leader rebuilding state after a failover.
PLACEHOLDER_PREFIX = "vgpu-holder-"

_gpuid_counter = itertools.count(1)


def new_gpuid() -> str:
    """Generate a fresh hashed GPUID (the paper's ``new_dev()``)."""
    seq = next(_gpuid_counter)
    digest = hashlib.sha1(f"vgpu-{seq}".encode()).hexdigest()[:8]
    return f"vgpu-{digest}"


@register_reset("repro.core.vgpu.gpuid_counter")
def reset_gpuid_counter() -> None:
    """Restart GPUID generation from 1 (a fresh control plane's counter).

    GPUIDs only need to be unique within one cluster; simulations that
    must replay bit-for-bit (same seed ⇒ identical placement, including
    Algorithm 1's GPUID-ordered tie-breaks) call this at scenario start
    so the sequence does not depend on what ran earlier in the process.
    """
    global _gpuid_counter
    _gpuid_counter = itertools.count(1)


def placeholder_gpuid(pod_name: str) -> str:
    """The GPUID encoded in a placeholder pod's name."""
    return pod_name[len(PLACEHOLDER_PREFIX):]


class VGPUPhase(str, Enum):
    CREATING = "Creating"
    ACTIVE = "Active"
    IDLE = "Idle"
    DELETING = "Deleting"


@dataclass
class VGPU:
    """One shareable GPU in the pool."""

    gpuid: str
    phase: VGPUPhase = VGPUPhase.CREATING
    #: Physical device UUID (known once the placeholder pod is running).
    uuid: Optional[str] = None
    node_name: Optional[str] = None
    #: Name of the placeholder pod holding the physical allocation.
    placeholder_pod: Optional[str] = None
    #: Keys (namespace/name) of sharePods attached to this vGPU.
    attached: Set[str] = field(default_factory=set)
    created_at: Optional[float] = None
    idle_since: Optional[float] = None

    @property
    def materialized(self) -> bool:
        return self.uuid is not None

    @property
    def idle(self) -> bool:
        return not self.attached


class VGPUPool:
    """All vGPUs managed by KubeShare-DevMgr, keyed by GPUID."""

    def __init__(self) -> None:
        self._by_gpuid: Dict[str, VGPU] = {}

    def __contains__(self, gpuid: str) -> bool:
        return gpuid in self._by_gpuid

    def __len__(self) -> int:
        return len(self._by_gpuid)

    def get(self, gpuid: str) -> Optional[VGPU]:
        return self._by_gpuid.get(gpuid)

    def add(self, vgpu: VGPU) -> VGPU:
        if vgpu.gpuid in self._by_gpuid:
            raise ValueError(f"vGPU {vgpu.gpuid} already in pool")
        self._by_gpuid[vgpu.gpuid] = vgpu
        return vgpu

    def remove(self, gpuid: str) -> Optional[VGPU]:
        return self._by_gpuid.pop(gpuid, None)

    def list(self) -> List[VGPU]:
        return sorted(self._by_gpuid.values(), key=lambda v: v.gpuid)

    def idle_vgpus(self) -> List[VGPU]:
        return [v for v in self.list() if v.idle and v.phase is not VGPUPhase.DELETING]

    def by_uuid(self, uuid: str) -> Optional[VGPU]:
        for v in self._by_gpuid.values():
            if v.uuid == uuid:
                return v
        return None

    def by_placeholder(self, pod_name: str) -> Optional[VGPU]:
        for v in self._by_gpuid.values():
            if v.placeholder_pod == pod_name:
                return v
        return None

    def gpuid_to_uuid(self, gpuid: str) -> Optional[str]:
        """The GPUID → UUID mapping DevMgr maintains (§4.4)."""
        v = self._by_gpuid.get(gpuid)
        return v.uuid if v else None
