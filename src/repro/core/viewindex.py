"""Cached, invalidation-driven device views for Algorithm 1.

Every scheduling pass needs the device list, the vGPU pool view, the
SharePod population and the cluster's GPU capacity. Deriving them from a
relist of every SharePod, Pod and Node **per reconcile** is O(pods) work
per decision, which would dominate the control-plane profile at cluster
scale. :class:`DeviceViewIndex` memoizes those derived structures and
invalidates them with synchronous etcd commit listeners (see
:meth:`repro.cluster.etcd.Etcd.add_listener`), so a pass over an unchanged
cluster costs O(devices) copying instead of O(pods log pods) rebuilding.

Equivalence argument (why cached views can never diverge from a relist;
``tests/core/test_viewindex.py`` checks every read against a brute-force
relist at each Algorithm 1 pass of three scenarios):

* Listeners run *inside* the etcd commit — before any watcher, any reader,
  or the writer itself can observe the new revision. There is no window in
  which the store has changed but the index believes its cache is fresh.
* No simulation time passes inside a scheduling pass between the (gated)
  SharePod ``get`` and the device-view construction, so the cache rebuilt
  at the same ``env.now`` reads exactly the state a relist would read.
* The SharePod currently being scheduled needs no special exclusion: its
  ``gpu_id`` is ``None`` (checked by the caller), so it contributes
  nothing to :func:`~repro.core.scheduler.build_device_views` or to the
  assigned-GPUID set either way.
* The in-process :class:`~repro.core.vgpu.VGPUPool` (single-instance
  wiring) is mutated without etcd writes; membership changes are detected
  via ``pool.version`` instead. Only membership feeds the views.

Cache rebuilds read through :meth:`Etcd.snapshot` — the untracked range
read — because they are not part of any read-modify-write cycle (the
scheduler's eventual ``patch`` still does its own tracked ``get``);
see the snapshot docstring for why tracking them would only add noise
to the race detector.
"""

from __future__ import annotations

from typing import List, Optional, Set

from ..cluster.apiserver import APIServer
from ..cluster.objects import GPU_RESOURCE, PodPhase
from .scheduler import DeviceView, build_device_views
from .vgpu import PLACEHOLDER_PREFIX, VGPU, VGPUPool, placeholder_gpuid

__all__ = ["DeviceViewIndex"]

_TERMINAL = (PodPhase.SUCCEEDED, PodPhase.FAILED)

_SHAREPOD_PREFIX = "/registry/SharePod/"
_POD_PREFIX = "/registry/Pod/"
_NODE_PREFIX = "/registry/Node/"


class DeviceViewIndex:
    """Memoized inputs of one scheduler's Algorithm 1 passes.

    One index per scheduler instance; call :meth:`close` when the
    scheduler stops (a deposed HA leader must not leave listeners behind
    on the shared etcd).
    """

    def __init__(self, api: APIServer, pool: Optional[VGPUPool] = None) -> None:
        self.api = api
        self.pool = pool
        self._etcd = api.etcd
        # Cached derivations (None = dirty).
        self._base: Optional[List[DeviceView]] = None
        self._assigned: Optional[Set[str]] = None
        self._sharepod_count = 0
        self._ha_pool: Optional[VGPUPool] = None
        self._capacity: Optional[int] = None
        self._pool_version = -1
        self._closed = False
        self._etcd.add_listener(_SHAREPOD_PREFIX, self._on_sharepod)
        self._etcd.add_listener(_POD_PREFIX, self._on_pod)
        self._etcd.add_listener(_NODE_PREFIX, self._on_node)

    # -- invalidation (synchronous, inside the etcd commit) ---------------
    def _on_sharepod(self, _event) -> None:
        self._base = None
        self._assigned = None

    def _on_pod(self, _event) -> None:
        if self.pool is None:
            # HA wiring: the pool view is derived from placeholder pods.
            self._ha_pool = None
            self._base = None

    def _on_node(self, _event) -> None:
        self._capacity = None

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._etcd.remove_listener(self._on_sharepod)
            self._etcd.remove_listener(self._on_pod)
            self._etcd.remove_listener(self._on_node)

    # -- cached reads ------------------------------------------------------
    def pool_view(self) -> VGPUPool:
        """The scheduler's device pool (shared in-process, or HA-derived)."""
        if self.pool is not None:
            return self.pool
        if self._ha_pool is None:
            view = VGPUPool()
            for kv in self._etcd.snapshot(_POD_PREFIX):
                pod = kv.value
                if pod.name.startswith(PLACEHOLDER_PREFIX):
                    vgpu = VGPU(
                        gpuid=placeholder_gpuid(pod.name),
                        created_at=pod.metadata.creation_time,
                    )
                    vgpu.placeholder_pod = pod.name
                    vgpu.node_name = pod.spec.node_name
                    view.add(vgpu)
            self._ha_pool = view
        return self._ha_pool

    def _refresh(self) -> None:
        pool = self.pool_view()
        if self.pool is not None and self.pool.version != self._pool_version:
            self._pool_version = self.pool.version
            self._base = None
        if self._base is not None and self._assigned is not None:
            return
        sharepods = [kv.value for kv in self._etcd.snapshot(_SHAREPOD_PREFIX)]
        self._sharepod_count = len(sharepods)
        self._base = build_device_views(pool, sharepods)
        self._assigned = {
            sp.spec.gpu_id
            for sp in sharepods
            if sp.spec.gpu_id is not None and sp.status.phase not in _TERMINAL
        }

    def device_views(self) -> List[DeviceView]:
        """Fresh, mutable Algorithm 1 device list (identical — field for
        field and in order — to ``build_device_views(pool, relist())``)."""
        self._refresh()
        return [
            DeviceView(
                gpuid=d.gpuid,
                util=d.util,
                mem=d.mem,
                aff=set(d.aff),
                anti_aff=set(d.anti_aff),
                excl=d.excl,
                idle=d.idle,
            )
            for d in self._base
        ]

    def assigned_gpuids(self) -> Set[str]:
        """GPUIDs held by live (non-terminal) SharePods."""
        self._refresh()
        return self._assigned

    def sharepod_count(self) -> int:
        """SharePod population size as of the last refresh."""
        return self._sharepod_count

    def gpu_capacity(self) -> int:
        """Cluster GPU capacity over Ready nodes (Node-write invalidated)."""
        if self._capacity is None:
            self._capacity = int(
                sum(
                    kv.value.status.capacity.get(GPU_RESOURCE, 0.0)
                    for kv in self._etcd.snapshot(_NODE_PREFIX)
                    if kv.value.status.ready
                )
            )
        return self._capacity
