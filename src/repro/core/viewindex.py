"""Cached, invalidation-driven device views for Algorithm 1.

Every scheduling pass needs the device list, the SharePod population and
the cluster's GPU capacity. Deriving them from a relist of every
SharePod, Pod and Node **per reconcile** is O(pods) work per decision,
which would dominate the control-plane profile at cluster scale.
:class:`DeviceViewIndex` memoizes those derived structures and
invalidates them with synchronous etcd commit listeners (see
:meth:`repro.cluster.etcd.Etcd.add_listener`), so a pass over an unchanged
cluster costs O(devices) copying instead of O(pods log pods) rebuilding.

The scheduler holds no vGPU pool of its own, in either wiring: KubeShare-
DevMgr records every vGPU it holds as a ``vgpu-holder-<GPUID>``
placeholder pod, and the index keeps the set of those GPUIDs. It fills
the set from one snapshot when it is built (a promoted HA scheduler
starts from etcd) and keeps it current from the Pod commit listener: a
placeholder create adds its GPUID, a placeholder delete removes it, and
every other Pod commit returns after a name check.

Equivalence argument (why cached views can never diverge from a relist;
``tests/core/test_viewindex.py`` checks every read against a brute-force
relist at each Algorithm 1 pass of four scenarios):

* Listeners run *inside* the etcd commit — before any watcher, any reader,
  or the writer itself can observe the new revision. There is no window in
  which the store has changed but the index believes its cache is fresh.
* Only placeholder *membership* feeds the views, and only a create (a
  PUT with no previous value) or a delete changes it; a placeholder's
  status and binding writes leave the views as they were.
* No simulation time passes inside a scheduling pass between the (gated)
  SharePod ``get`` and the device-view construction, so the cache rebuilt
  at the same ``env.now`` reads exactly the state a relist would read.
* The SharePod currently being scheduled needs no special exclusion: its
  ``gpu_id`` is ``None`` (checked by the caller), so it contributes
  nothing to :func:`~repro.core.scheduler.build_device_views` either way.

Cache rebuilds read through :meth:`Etcd.snapshot` — the untracked range
read — because they are not part of any read-modify-write cycle (the
scheduler's eventual ``patch`` still does its own tracked ``get``);
see the snapshot docstring for why tracking them would only add noise
to the race detector.
"""

from __future__ import annotations

from typing import List, Optional, Set

from ..cluster.apiserver import APIServer
from ..cluster.etcd import WatchEventType
from ..cluster.objects import GPU_RESOURCE
from .scheduler import DeviceView, build_device_views
from .vgpu import PLACEHOLDER_PREFIX, placeholder_gpuid

__all__ = ["DeviceViewIndex"]

_SHAREPOD_PREFIX = "/registry/SharePod/"
_POD_PREFIX = "/registry/Pod/"
_NODE_PREFIX = "/registry/Node/"


class DeviceViewIndex:
    """Memoized inputs of one scheduler's Algorithm 1 passes.

    One index per scheduler instance; call :meth:`close` when the
    scheduler stops (a deposed HA leader must not leave listeners behind
    on the shared etcd).
    """

    def __init__(self, api: APIServer) -> None:
        self.api = api
        self._etcd = api.etcd
        # Cached derivations (None = dirty).
        self._base: Optional[List[DeviceView]] = None
        self._sharepod_count = 0
        self._capacity: Optional[int] = None
        self._closed = False
        #: GPUIDs of the placeholder pods: the vGPU pool as etcd records it.
        self._pool: Set[str] = {
            placeholder_gpuid(kv.value.name)
            for kv in self._etcd.snapshot(_POD_PREFIX)
            if kv.value.name.startswith(PLACEHOLDER_PREFIX)
        }
        self._etcd.add_listener(_SHAREPOD_PREFIX, self._on_sharepod)
        self._etcd.add_listener(_POD_PREFIX, self._on_pod)
        self._etcd.add_listener(_NODE_PREFIX, self._on_node)

    # -- invalidation (synchronous, inside the etcd commit) ---------------
    def _on_sharepod(self, _event) -> None:
        self._base = None

    def _on_pod(self, event) -> None:
        name = event.kv.key.rpartition("/")[2]
        if not name.startswith(PLACEHOLDER_PREFIX):
            return
        if event.type is WatchEventType.DELETE:
            self._pool.discard(placeholder_gpuid(name))
        elif event.prev is None:
            self._pool.add(placeholder_gpuid(name))
        else:
            return  # a status or binding write: membership unchanged
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
    def device_views(self) -> List[DeviceView]:
        """Fresh, mutable Algorithm 1 device list (identical — field for
        field and in order — to ``build_device_views(placeholder GPUIDs,
        relist())``)."""
        if self._base is None:
            sharepods = [kv.value for kv in self._etcd.snapshot(_SHAREPOD_PREFIX)]
            self._sharepod_count = len(sharepods)
            self._base = build_device_views(self._pool, sharepods)
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
