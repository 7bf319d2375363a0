"""Delta-updated device views for Algorithm 1.

Every scheduling pass needs the device list, the SharePod population and
the cluster's GPU capacity. Deriving them from a relist of every
SharePod, Pod and Node **per reconcile** is O(pods) work per decision,
and in a running cluster the SharePods include every one that has ever
terminated. :class:`DeviceViewIndex` keeps those derived structures and
updates them from watch callbacks that run inside each etcd commit (see
:meth:`repro.cluster.etcd.Etcd.watch`), so a pass costs the
O(devices) copy plus the recompute of the vGPUs that changed since the
last pass, whatever the cluster's history.

The scheduler holds no vGPU pool of its own, in either wiring: KubeShare-
DevMgr records every vGPU it holds as a ``vgpu-holder-<GPUID>``
placeholder pod, and the index keeps the set of those GPUIDs. It fills
the set from one snapshot when it is built (a promoted HA scheduler
starts from etcd) and keeps it current from the Pod commit callback: a
placeholder create adds its GPUID, a placeholder delete removes it, and
every other Pod commit returns after a name check.

SharePods feed the views through per-GPUID member maps. A map holds the
live, assigned SharePods of one GPUID: assigned a GPUID and not
terminal. The SharePod commit callback does O(1) work: it moves the
committed key to the map of its new GPUID, or out of every map, and
marks the GPUIDs it touched dirty. The placeholder callback marks its
GPUID dirty the same way. :meth:`DeviceViewIndex.device_views`
recomputes only the dirty GPUIDs, each with
:func:`~repro.core.scheduler.device_view` over its members in
SharePod-key order; :func:`~repro.core.scheduler.build_device_views`
serves only the initial fill.

Equivalence argument (why the delta-updated views can never diverge
from a relist; ``tests/core/test_viewindex.py`` checks every read
against a brute-force relist at each Algorithm 1 pass of five scenarios):

* The callbacks run *inside* the etcd commit — before any process, any
  reader, or the writer itself can observe the new revision. There is no
  window in which the store has changed but the index has not applied the
  change; other callbacks of the same commit run before or after them,
  but none reads the index.
* A relist's view of one GPUID depends only on that GPUID's live
  SharePods, subtracted in key order (the order of a relist), and on
  whether the GPUID is in the pool. A commit changes those inputs only
  for the GPUIDs it moves a SharePod out of or into, or whose
  placeholder it creates or deletes, and exactly those are marked
  dirty. A dirty GPUID is recomputed by the same per-view code in the
  same key order, so every float is bit-identical to the relist's.
* A SharePod that turns terminal or is deleted leaves its member map in
  the same commit, so terminated SharePods are in no aggregate; a
  non-pool GPUID whose last member leaves loses its view, as in a
  relist.
* No simulation time passes inside a scheduling pass between the (gated)
  SharePod ``get`` and the device-view read, so the index read at the
  same ``env.now`` holds exactly the state a relist would read.
* The SharePod currently being scheduled needs no special exclusion: its
  ``gpu_id`` is ``None`` (checked by the caller), so it is in no member
  map.

The initial fill reads through :meth:`Etcd.snapshot` — the untracked
range read — because it is not part of any read-modify-write cycle (the
scheduler's eventual ``patch`` still does its own tracked ``get``); see
the snapshot docstring for why tracking it would only add noise to the
race detector.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Dict, List, Optional, Set

from ..cluster.apiserver import APIServer
from ..cluster.etcd import WatchEventType
from ..cluster.objects import GPU_RESOURCE, PodPhase
from .scheduler import DeviceView, build_device_views, device_view
from .sharepod import SharePod
from .vgpu import PLACEHOLDER_PREFIX, placeholder_gpuid

__all__ = ["DeviceViewIndex"]

_SHAREPOD_PREFIX = "/registry/SharePod/"
_POD_PREFIX = "/registry/Pod/"
_NODE_PREFIX = "/registry/Node/"
_TERMINAL = (PodPhase.SUCCEEDED, PodPhase.FAILED)


def _live_gpuid(sp: Optional[SharePod]) -> Optional[str]:
    """The GPUID whose view *sp* counts in, if any."""
    if sp is None or sp.status.phase in _TERMINAL:
        return None
    return sp.spec.gpu_id


class DeviceViewIndex:
    """Delta-updated inputs of one scheduler's Algorithm 1 passes.

    One index per scheduler instance; call :meth:`close` when the
    scheduler stops (a deposed HA leader must not leave watches behind
    on the shared etcd).
    """

    def __init__(self, api: APIServer) -> None:
        self.api = api
        self._etcd = api.etcd
        self._capacity: Optional[int] = None
        #: GPUIDs of the placeholder pods: the vGPU pool as etcd records it.
        self._pool: Set[str] = {
            placeholder_gpuid(kv.value.name)
            for kv in self._etcd.snapshot(_POD_PREFIX)
            if kv.value.name.startswith(PLACEHOLDER_PREFIX)
        }
        #: GPUID -> {SharePod key: SharePod} of its live, assigned SharePods.
        self._members: Dict[str, Dict[str, SharePod]] = {}
        #: GPUIDs whose view is stale.
        self._dirty: Set[str] = set()
        sharepods = self._etcd.snapshot(_SHAREPOD_PREFIX)
        self._sharepod_count = len(sharepods)
        for kv in sharepods:
            self._move(kv.key, None, kv.value)
        self._dirty.clear()
        #: GPUID -> its current view, and the GPUIDs in sorted order.
        self._views: Dict[str, DeviceView] = {
            d.gpuid: d
            for d in build_device_views(self._pool, [kv.value for kv in sharepods])
        }
        self._order: List[str] = list(self._views)
        self._watches = [
            self._etcd.watch(_SHAREPOD_PREFIX, deliver=self._on_sharepod),
            self._etcd.watch(_POD_PREFIX, deliver=self._on_pod),
            self._etcd.watch(_NODE_PREFIX, deliver=self._on_node),
        ]

    # -- delta updates (synchronous, inside the etcd commit) ----------------
    def _move(self, key: str, prev: Optional[SharePod], sp: Optional[SharePod]) -> None:
        """Move *key* from the member map that holds *prev*, its previous
        value, to the one of *sp*; ``None`` or a terminal or unassigned
        SharePod belongs in no map."""
        old, new = _live_gpuid(prev), _live_gpuid(sp)
        if old is not None and old != new:
            members = self._members[old]
            del members[key]
            if not members:
                del self._members[old]
            self._dirty.add(old)
        if new is not None:
            self._members.setdefault(new, {})[key] = sp
            self._dirty.add(new)

    def _on_sharepod(self, event) -> None:
        # The index has applied every earlier commit, so the previous
        # value names the member map that holds the key.
        if event.prev is None:
            self._sharepod_count += 1
            prev = None
        else:
            prev = event.prev.value
            if event.type is WatchEventType.DELETE:
                self._sharepod_count -= 1
        self._move(event.kv.key, prev, event.kv.value)

    def _on_pod(self, event) -> None:
        name = event.kv.key.rpartition("/")[2]
        if not name.startswith(PLACEHOLDER_PREFIX):
            return
        gpuid = placeholder_gpuid(name)
        if event.type is WatchEventType.DELETE:
            self._pool.discard(gpuid)
        elif event.prev is None:
            self._pool.add(gpuid)
        else:
            return  # a status or binding write: membership unchanged
        self._dirty.add(gpuid)

    def _on_node(self, _event) -> None:
        self._capacity = None

    def close(self) -> None:
        for watch in self._watches:
            watch.close()

    # -- reads -------------------------------------------------------------
    def device_views(self) -> List[DeviceView]:
        """Fresh, mutable Algorithm 1 device list (identical — field for
        field and in order — to ``build_device_views(placeholder GPUIDs,
        relist())``)."""
        views = self._views
        for gpuid in sorted(self._dirty):
            members = self._members.get(gpuid)
            if members is None and gpuid not in self._pool:
                if views.pop(gpuid, None) is not None:
                    del self._order[bisect_left(self._order, gpuid)]
                continue
            if gpuid not in views:
                insort(self._order, gpuid)
            views[gpuid] = device_view(
                gpuid, [members[k] for k in sorted(members)] if members else ()
            )
        self._dirty.clear()
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
            for d in map(views.__getitem__, self._order)
        ]

    def sharepod_count(self) -> int:
        """SharePod population size: every SharePod in etcd."""
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
