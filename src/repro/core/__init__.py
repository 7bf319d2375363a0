"""KubeShare core: the paper's primary contribution.

* :mod:`repro.core.sharepod` — the SharePod CRD and its first-class GPU
  resource specification (§4.1/§4.2);
* :mod:`repro.core.scheduler` — Algorithm 1 (locality & resource aware
  scheduling) and the KubeShare-Sched controller (§4.3);
* :mod:`repro.core.vgpu` — vGPU objects, GPUID↔UUID mapping, the pool;
* :mod:`repro.core.devmgr` — the KubeShare-DevMgr controller: vGPU
  lifecycle and explicit pod↔device binding (§4.4);
* :mod:`repro.core.policies` — on-demand / reservation / hybrid pool
  management;
* :mod:`repro.core.framework` — one-call wiring onto a cluster (§4.6),
  one unelected instance of each controller or N leader-elected replicas.
"""

from .devmgr import KubeShareDevMgr, PLACEHOLDER_PREFIX
from .framework import KubeShare
from .policies import HybridPolicy, OnDemandPolicy, PoolPolicy, ReservationPolicy
from .scheduler import (
    Decision,
    DeviceView,
    KubeShareSched,
    RequestView,
    build_device_views,
    schedule_request,
)
from .sharepod import SharePod, SharePodSpec, SharePodStatus, SpecError
from .vgpu import (
    VGPU,
    VGPUPhase,
    VGPUPool,
    new_gpuid,
    placeholder_gpuid,
    reset_gpuid_counter,
)

__all__ = [
    "KubeShare",
    "KubeShareSched",
    "KubeShareDevMgr",
    "PLACEHOLDER_PREFIX",
    "SharePod",
    "SharePodSpec",
    "SharePodStatus",
    "SpecError",
    "VGPU",
    "VGPUPhase",
    "VGPUPool",
    "new_gpuid",
    "placeholder_gpuid",
    "reset_gpuid_counter",
    "DeviceView",
    "RequestView",
    "Decision",
    "schedule_request",
    "build_device_views",
    "PoolPolicy",
    "OnDemandPolicy",
    "ReservationPolicy",
    "HybridPolicy",
]
