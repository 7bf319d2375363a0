"""kube-apiserver: CRUD + watch frontend over etcd.

All components — the scheduler, kubelets, controllers, and KubeShare's two
custom controllers — interact exclusively through this class, mirroring the
paper's Figure 1. Custom resource kinds (the ``SharePod`` CRD) are added at
runtime via :meth:`APIServer.register_crd`, the analogue of applying a
CustomResourceDefinition.

API calls are synchronous from the caller's point of view; control-plane
latencies are modelled explicitly where they matter for the evaluation (the
container runtime and the controller reconcile loops), which keeps every
run deterministic.

Watch usage pattern (inside a simulation process)::

    stream = api.watch("Pod", replay=True)
    while True:
        raw = yield stream.get()
        etype, pod = translate_event(raw)
        ...
"""

from __future__ import annotations

import copy
import math
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..obs import runtime as obs
from ..sim import Environment
from .etcd import CasFailure, Etcd, WatchEvent, WatchEventType
from .objects import DEFAULT_NAMESPACE, LabelSelector, Node, Pod

__all__ = [
    "APIServer",
    "Conflict",
    "FencingConflict",
    "AlreadyExists",
    "NodeLease",
    "NotFound",
    "ServiceUnavailable",
    "UnknownKind",
    "translate_event",
]


class Conflict(Exception):
    """Optimistic-concurrency failure: object changed since it was read."""


class FencingConflict(Conflict):
    """Write from a deposed leader: its lease epoch is no longer current.

    A retry cannot help — the writer must observe that it lost leadership
    (split-brain protection, see :mod:`repro.cluster.leaderelection`).
    """


class AlreadyExists(Exception):
    """Create of an object whose namespace/name is already taken."""


class NotFound(Exception):
    """Read/update/delete of an object that does not exist."""


class UnknownKind(Exception):
    """Operation on a kind that is neither built-in nor a registered CRD."""


class ServiceUnavailable(Exception):
    """The apiserver is inside an outage window (chaos-injected 503)."""


def _clone(obj: Any) -> Any:
    clone = getattr(obj, "clone", None)
    return clone() if callable(clone) else copy.deepcopy(obj)


def _stored(ev: WatchEvent) -> Any:
    """The stored object an event is about, uncloned: the new value of a
    PUT, the previous value of a DELETE (the tombstone carries ``None``)."""
    if ev.type is WatchEventType.DELETE:
        return ev.prev.value if ev.prev is not None else None
    return ev.kv.value


def translate_event(ev: WatchEvent) -> Tuple[WatchEventType, Any]:
    """Translate a raw etcd event into ``(type, cloned object)``.

    For DELETE events the previous stored value is returned (the tombstone
    itself carries ``None``).

    Copy-on-write fan-out: one watch event is delivered to every matching
    subscriber, so the translated clone is cached on the event itself —
    N watchers share one clone instead of paying for N. Consumers must
    treat delivered objects as **read-only** (every mutation path in this
    codebase goes through ``api.patch`` on a freshly ``get``-cloned
    object, which is also what optimistic concurrency requires).
    """
    payload = _stored(ev)
    if payload is None:
        return (ev.type, None)
    obj = ev.translated
    if obj is None:
        obj = _clone(payload)
        obj.metadata.resource_version = ev.kv.mod_revision
        ev.translated = obj
    return (ev.type, obj)


class NodeLease:
    """A kubelet's node lease, evaluated when read instead of renewed by a timer.

    The kubelet would renew every *interval* seconds from *origin* until it
    crashes at :attr:`stop`; a renewal is lost when it falls inside an
    apiserver outage window. :meth:`renewed_at` answers "when did the last
    renewal land" from that schedule alone, so renewals cost no event and
    no etcd write.
    """

    __slots__ = ("origin", "interval", "stop", "_outages", "_window", "_last", "_next")

    def __init__(self, origin: float, interval: float, outages: List[List[float]]) -> None:
        self.origin = origin
        self.interval = interval
        #: crash time; a renewal due at the same instant is lost with it.
        self.stop = math.inf
        #: the apiserver's merged ``[start, end)`` outage windows (shared).
        self._outages = outages
        self._window = 0
        #: cursor: the latest renewal before the previous read, and the next
        #: grid point not yet folded into it.
        self._last = origin
        self._next = origin + interval

    @property
    def live(self) -> bool:
        return self.stop == math.inf

    def _lost(self, t: float) -> bool:
        """Did the renewal due at *t* hit an outage?"""
        windows = self._outages
        while self._window < len(windows) and windows[self._window][1] <= t:
            self._window += 1
        return self._window < len(windows) and windows[self._window][0] <= t

    def renewed_at(self, now: float) -> float:
        """The latest renewal at or before *now* that reached the apiserver.

        Grid points strictly before *now* are folded into the cursor: no
        later crash or outage can reach back past the current instant. The
        point at *now* itself is judged afresh on every read, because a
        crash or outage at this same instant may still come after the read.
        """
        g, last = self._next, self._last
        while g < now and g < self.stop:
            if not self._lost(g):
                last = g
            g += self.interval
        self._next, self._last = g, last
        if g == now and g < self.stop and not self._lost(g):
            return g
        return last

    def next_after(self, now: float) -> float:
        """The first grid point after *now* (``inf`` once stopped); call
        :meth:`renewed_at` at *now* first."""
        if not self.live:
            return math.inf
        return self._next + self.interval if self._next <= now else self._next


class APIServer:
    """The cluster's single API frontend, backed by :class:`Etcd`."""

    BUILTIN_KINDS = ("Pod", "Node", "Lease")

    def __init__(self, env: Environment, etcd: Optional[Etcd] = None) -> None:
        self.env = env
        # Explicit None check: an *empty* Etcd is falsy (it has __len__),
        # so `etcd or Etcd(env)` would silently discard a provided store.
        self.etcd = etcd if etcd is not None else Etcd(env)
        self._kinds: set[str] = set(self.BUILTIN_KINDS)
        #: admission plugins consulted (in registration order) by
        #: :meth:`create` after kind validation; empty unless a policy
        #: layer is installed, so the default create path pays nothing.
        self._admission: List[Any] = []
        #: chaos knobs: requests fail with :class:`ServiceUnavailable`
        #: until ``down_until``; ``extra_latency`` is added by callers that
        #: model their request round-trips explicitly.
        self.down_until = 0.0
        self.extra_latency = 0.0
        self.outages_total = 0
        #: every outage so far as merged ``[start, end)`` windows.
        self.outages: List[List[float]] = []
        #: node name -> the lease its kubelet last armed.
        self.node_leases: Dict[str, NodeLease] = {}
        #: called with no arguments when a node lease starts or stops and
        #: when an outage begins. Node lifecycle wakes on all three (they
        #: move lease expiry); every controller arms its post-outage
        #: resync on the last, told apart by ``outages_total``.
        self.lease_hooks: List[Callable[[], None]] = []

    # -- chaos -------------------------------------------------------------
    def set_outage(self, duration: float) -> None:
        """Begin (or extend) an outage window of *duration* seconds."""
        now = self.env.now
        self.down_until = max(self.down_until, now + duration)
        self.outages_total += 1
        if self.outages and now < self.outages[-1][1]:
            self.outages[-1][1] = self.down_until
        else:
            self.outages.append([now, self.down_until])
        self._lease_event()

    # -- node leases ---------------------------------------------------------
    def arm_node_lease(self, node_name: str, interval: float) -> NodeLease:
        """Start *node_name*'s lease now, renewing every *interval* seconds.

        Renewals are not etcd writes: they commit no revision and wake no
        watcher. Readers ask the lease (:meth:`NodeLease.renewed_at`)."""
        lease = NodeLease(self.env.now, interval, self.outages)
        self.node_leases[node_name] = lease
        self._lease_event()
        return lease

    def stop_node_lease(self, lease: NodeLease) -> None:
        """The lease's kubelet went silent now."""
        lease.stop = self.env.now
        self._lease_event()

    def _lease_event(self) -> None:
        for hook in list(self.lease_hooks):
            hook()

    @property
    def available(self) -> bool:
        return self.env.now >= self.down_until

    def _gate(self) -> None:
        if self.env.now < self.down_until:
            raise ServiceUnavailable(
                f"apiserver down until t={self.down_until:.3f}"
            )

    # -- write fencing -----------------------------------------------------
    def _check_fencing(self, fencing: Optional[Any]) -> None:
        """Admit a fenced write only while its lease epoch is current.

        *fencing* is a :class:`~repro.cluster.leaderelection.FencingToken`
        (duck-typed: lease_namespace/lease_name/holder/epoch). A write that
        carries a stale token — a deposed leader resuming after a GC pause
        or partition — is rejected with :class:`FencingConflict` before it
        can touch etcd, which is what prevents split-brain double writes.
        """
        if fencing is None:
            return
        kv = self.etcd.get(
            self._key("Lease", fencing.lease_namespace, fencing.lease_name)
        )
        lease = kv.value if kv is not None else None
        if (
            lease is None
            or lease.spec.holder != fencing.holder
            or lease.spec.epoch != fencing.epoch
        ):
            held = (
                "no lease"
                if lease is None
                else f"holder={lease.spec.holder!r} epoch={lease.spec.epoch}"
            )
            raise FencingConflict(
                f"fenced write rejected: {fencing.holder!r} epoch "
                f"{fencing.epoch} is stale ({held})"
            )

    # -- kind registry -----------------------------------------------------
    def register_crd(self, kind: str) -> None:
        """Register a custom resource kind (e.g. ``SharePod``)."""
        self._kinds.add(kind)

    def register_admission(self, plugin: Any) -> None:
        """Install an admission plugin (an object with ``admit(obj)``).

        ``admit`` runs synchronously inside :meth:`create` before the
        etcd write; it may mutate the object (the server clones after
        admission) or raise to refuse the create. Idempotent per plugin:
        re-registering an already-installed instance is a no-op.
        """
        if plugin not in self._admission:
            self._admission.append(plugin)

    @property
    def kinds(self) -> Tuple[str, ...]:
        return tuple(sorted(self._kinds))

    def _check_kind(self, kind: str) -> None:
        if kind not in self._kinds:
            raise UnknownKind(kind)

    @staticmethod
    def _key(kind: str, namespace: str, name: str) -> str:
        return f"/registry/{kind}/{namespace}/{name}"

    def _obj_key(self, obj: Any) -> str:
        return self._key(obj.kind, obj.metadata.namespace, obj.metadata.name)

    # -- CRUD ----------------------------------------------------------------
    def create(self, obj: Any, fencing: Optional[Any] = None) -> Any:
        """Persist a new object. Returns the stored copy."""
        self._gate()
        self._check_fencing(fencing)
        self._check_kind(obj.kind)
        for plugin in self._admission:
            plugin.admit(obj)
        stored = _clone(obj)
        stored.metadata.creation_time = self.env.now
        key = self._obj_key(stored)
        try:
            kv = self.etcd.put_if(key, stored, mod_revision=0)
        except CasFailure:
            raise AlreadyExists(key) from None
        # The KV holds a reference to `stored`; record the final RV on it.
        stored.metadata.resource_version = kv.mod_revision
        if obs.enabled():
            obs.api_write(
                "create", stored.kind, stored.metadata.namespace, stored.metadata.name
            )
            if stored.kind == "SharePod":
                obs.sharepod_created(stored)
        return _clone(stored)

    def get(
        self, kind: str, name: str, namespace: str = DEFAULT_NAMESPACE
    ) -> Optional[Any]:
        """Fetch one object, or ``None`` if absent."""
        self._gate()
        self._check_kind(kind)
        kv = self.etcd.get(self._key(kind, namespace, name))
        if kv is None:
            return None
        obj = _clone(kv.value)
        obj.metadata.resource_version = kv.mod_revision
        return obj

    def peek(
        self, kind: str, name: str, namespace: str = DEFAULT_NAMESPACE
    ) -> Optional[Any]:
        """Fetch one object **without cloning** — strictly read-only.

        The returned object is the etcd-stored value itself; callers must
        not mutate it (every mutation path goes through ``get`` + patch /
        ``update``, as optimistic concurrency requires anyway). Outage
        gating and kind checking match :meth:`get` exactly, so a poll
        loop can probe a phase field through the same failure model
        without paying a defensive deep copy per poll tick. The stored
        object already carries its final resource version (create/update
        stamp it on the stored reference).
        """
        self._gate()
        self._check_kind(kind)
        kv = self.etcd.get(self._key(kind, namespace, name))
        return None if kv is None else kv.value

    def list(
        self,
        kind: str,
        namespace: Optional[str] = None,
        selector: Optional[LabelSelector] = None,
    ) -> List[Any]:
        """All objects of *kind*, optionally namespace/selector filtered."""
        self._gate()
        self._check_kind(kind)
        prefix = f"/registry/{kind}/" + (f"{namespace}/" if namespace else "")
        out = []
        for kv in self.etcd.range(prefix):
            obj = _clone(kv.value)
            obj.metadata.resource_version = kv.mod_revision
            if selector is None or selector.matches(obj.metadata.labels):
                out.append(obj)
        return out

    def update(self, obj: Any, fencing: Optional[Any] = None) -> Any:
        """Write back an object read earlier; optimistic-concurrency checked."""
        self._gate()
        self._check_fencing(fencing)
        self._check_kind(obj.kind)
        key = self._obj_key(obj)
        stored = _clone(obj)
        try:
            kv = self.etcd.put_if(key, stored, mod_revision=obj.metadata.resource_version)
        except CasFailure as err:
            if self.etcd.get(key) is None:
                raise NotFound(key) from None
            raise Conflict(str(err)) from None
        stored.metadata.resource_version = kv.mod_revision
        if obs.enabled():
            obs.api_write(
                "update", stored.kind, stored.metadata.namespace, stored.metadata.name
            )
        return _clone(stored)

    def patch(
        self,
        kind: str,
        name: str,
        mutate: Callable[[Any], None],
        namespace: str = DEFAULT_NAMESPACE,
        retries: int = 8,
        fencing: Optional[Any] = None,
    ) -> Any:
        """Read-modify-write with automatic conflict retry.

        The re-read on every attempt is what makes the retry safe: a
        conflicting writer's changes are picked up before *mutate* runs
        again, so no concurrent update is silently overwritten. Fencing
        rejections are not retried — a stale epoch cannot become fresh.
        """
        for _ in range(retries):
            obj = self.get(kind, name, namespace)
            if obj is None:
                raise NotFound(self._key(kind, namespace, name))
            mutate(obj)
            try:
                return self.update(obj, fencing=fencing)
            except FencingConflict:
                raise
            except Conflict:
                continue
        raise Conflict(f"patch of {kind}/{namespace}/{name} kept conflicting")

    def delete(
        self,
        kind: str,
        name: str,
        namespace: str = DEFAULT_NAMESPACE,
        fencing: Optional[Any] = None,
    ) -> Any:
        """Remove an object; returns the last stored value."""
        self._gate()
        self._check_fencing(fencing)
        self._check_kind(kind)
        prev = self.etcd.delete(self._key(kind, namespace, name))
        if prev is None:
            raise NotFound(self._key(kind, namespace, name))
        if obs.enabled():
            obs.api_write("delete", kind, namespace, name)
        return _clone(prev.value)

    def try_delete(
        self,
        kind: str,
        name: str,
        namespace: str = DEFAULT_NAMESPACE,
        fencing: Optional[Any] = None,
    ) -> bool:
        """Like :meth:`delete` but returns False instead of raising."""
        try:
            self.delete(kind, name, namespace, fencing=fencing)
            return True
        except NotFound:
            return False

    # -- watches ---------------------------------------------------------------
    def watch(
        self,
        kind: str,
        namespace: Optional[str] = None,
        replay: bool = False,
        node_name: Optional[str] = None,
    ):
        """Subscribe to changes of *kind*.

        Returns an etcd watch; yield ``stream.get()`` to receive raw
        :class:`WatchEvent` items and run them through
        :func:`translate_event`. With ``replay=True`` current objects are
        delivered first as synthetic PUTs (the informer "list+watch").

        *node_name* is a Pod watch's ``spec.nodeName`` field selector (a
        kubelet's): only events whose stored Pod (for a DELETE, the Pod
        removed) is bound to that node are delivered. It is checked at the
        source, uncloned, so other nodes' Pods wake this subscriber never.
        """
        self._check_kind(kind)
        prefix = f"/registry/{kind}/" + (f"{namespace}/" if namespace else "")
        match = None
        if node_name is not None:

            def match(ev: WatchEvent) -> bool:
                pod = _stored(ev)
                return pod is not None and pod.spec.node_name == node_name

        return self.etcd.watch(prefix, replay=replay, match=match)

    # -- convenience -----------------------------------------------------------
    def bind(
        self, pod_name: str, node_name: str, namespace: str = DEFAULT_NAMESPACE
    ) -> Pod:
        """The scheduler's Bind call: pin a pod to a node."""

        def mutate(pod: Pod) -> None:
            if pod.spec.node_name is not None:
                raise Conflict(f"pod {pod_name} already bound to {pod.spec.node_name}")
            pod.spec.node_name = node_name

        return self.patch("Pod", pod_name, mutate, namespace)

    def nodes(self) -> List[Node]:
        return self.list("Node")

    def pods(self, namespace: Optional[str] = None) -> List[Pod]:
        return self.list("Pod", namespace)
