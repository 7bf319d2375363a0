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

Stored objects are shared read-only, as in client-go's informer cache: a
committed value never changes, and every read (``get``, ``list``, watch
delivery, ``delete``'s return value) hands out the stored object itself. A
write stores one copy that the server makes: ``create`` and ``update`` copy
the caller's object, and ``patch`` copies the stored one for *mutate*. A
caller that wants to change what it read uses ``patch``, or takes
``.clone()`` before mutating and passes the copy to ``update``.

Watch usage pattern: a callback that only updates memory and enqueues
keys takes each event inside the commit::

    def on_pod(raw):
        etype, pod = translate_event(raw)
        ...

    api.watch("Pod", replay=True, deliver=on_pod)

A handler that must write or wait keeps a stream and a process::

    stream = api.watch("Node", replay=True)
    while True:
        raw = yield stream.get()
        ...
"""

from __future__ import annotations

import copy
import math
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from ..obs import runtime as obs
from ..sim import Environment
from .etcd import CasFailure, Etcd, Watch, WatchEvent, WatchEventType
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
    """The stored object an event is about: the new value of a PUT, the
    previous value of a DELETE (the tombstone carries ``None``)."""
    if ev.type is WatchEventType.DELETE:
        return ev.prev.value if ev.prev is not None else None
    return ev.kv.value


def translate_event(ev: WatchEvent) -> Tuple[WatchEventType, Any]:
    """Translate a raw etcd event into ``(type, stored object)``.

    The object is the stored value itself, shared read-only by every
    watcher: the new value of a PUT, and for a DELETE the last stored
    value, which keeps its own resource version (the tombstone itself
    carries ``None``).
    """
    return (ev.type, _stored(ev))


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
        #: every outage so far as merged ``[start, end)`` windows.
        self.outages: List[List[float]] = []
        #: node name -> the lease its kubelet last armed.
        self.node_leases: Dict[str, NodeLease] = {}
        #: called with no arguments when a node lease starts or stops and
        #: when an outage begins: each moves lease expiry, so node
        #: lifecycle re-times its next wake on all three.
        self.lease_hooks: List[Callable[[], None]] = []

    # -- chaos -------------------------------------------------------------
    def set_outage(self, duration: float) -> None:
        """Begin (or extend) an outage window of *duration* seconds."""
        now = self.env.now
        self.down_until = max(self.down_until, now + duration)
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

    def until_available(self) -> Generator:
        """Wait out the outage, extensions included (``yield from``), and
        return whether the apiserver is up: at once ``True`` when it is,
        and ``False`` when the outage never ends."""
        while not self.available:
            if self.down_until == math.inf:
                return False
            yield self.env.timeout(self.down_until - self.env.now)
        return True

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
        etcd write, on the server's copy of the caller's object: it may
        mutate that copy, which is what gets stored, or raise to refuse
        the create. Idempotent per plugin: re-registering an
        already-installed instance is a no-op.
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
    def _check_write(self, kind: str, fencing: Optional[Any]) -> None:
        self._gate()
        self._check_fencing(fencing)
        self._check_kind(kind)

    def create(self, obj: Any, fencing: Optional[Any] = None) -> Any:
        """Persist a copy of *obj* as a new object; returns the stored copy."""
        self._check_write(obj.kind, fencing)
        stored = _clone(obj)
        for plugin in self._admission:
            plugin.admit(stored)
        stored.metadata.creation_time = self.env.now
        key = self._obj_key(stored)
        stored.metadata.resource_version = self.etcd.revision + 1
        try:
            self.etcd.put_if(key, stored, mod_revision=0)
        except CasFailure:
            raise AlreadyExists(key) from None
        if obs.enabled():
            obs.api_write(
                "create", stored.kind, stored.metadata.namespace, stored.metadata.name
            )
            if stored.kind == "SharePod":
                obs.sharepod_created(stored)
        return stored

    def get(
        self, kind: str, name: str, namespace: str = DEFAULT_NAMESPACE
    ) -> Optional[Any]:
        """The stored object, read-only, or ``None`` if absent."""
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
        """All stored objects of *kind*, optionally namespace/selector
        filtered; read-only."""
        self._gate()
        self._check_kind(kind)
        prefix = f"/registry/{kind}/" + (f"{namespace}/" if namespace else "")
        objs = [kv.value for kv in self.etcd.range(prefix)]
        if selector is None:
            return objs
        return [obj for obj in objs if selector.matches(obj.metadata.labels)]

    def update(self, obj: Any, fencing: Optional[Any] = None) -> Any:
        """Write back an object read earlier; optimistic-concurrency checked.

        Stores a copy of *obj* and returns that copy."""
        self._check_write(obj.kind, fencing)
        return self._put(_clone(obj))

    def _put(self, stored: Any) -> Any:
        """Commit *stored*, a copy that no caller holds, if its key is still
        at the revision *stored* was read at. The new resource version is
        stamped before the commit, so the stored value never changes."""
        key = self._obj_key(stored)
        read_at = stored.metadata.resource_version
        stored.metadata.resource_version = self.etcd.revision + 1
        try:
            self.etcd.put_if(key, stored, mod_revision=read_at)
        except CasFailure as err:
            if self.etcd.get(key) is None:
                raise NotFound(key) from None
            raise Conflict(str(err)) from None
        if obs.enabled():
            obs.api_write(
                "update", stored.kind, stored.metadata.namespace, stored.metadata.name
            )
        return stored

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

        *mutate* runs on a copy of the stored object, and that copy is
        stored. The re-read on every attempt is what makes the retry safe:
        a conflicting writer's changes are picked up before *mutate* runs
        again, so no concurrent update is silently overwritten. Fencing
        rejections are not retried — a stale epoch cannot become fresh.
        """
        for _ in range(retries):
            current = self.get(kind, name, namespace)
            if current is None:
                raise NotFound(self._key(kind, namespace, name))
            obj = _clone(current)
            mutate(obj)
            self._check_write(kind, fencing)
            try:
                return self._put(obj)
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
        self._check_write(kind, fencing)
        prev = self.etcd.delete(self._key(kind, namespace, name))
        if prev is None:
            raise NotFound(self._key(kind, namespace, name))
        if obs.enabled():
            obs.api_write("delete", kind, namespace, name)
        return prev.value

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
        deliver: Optional[Callable[[WatchEvent], None]] = None,
    ) -> Watch:
        """Subscribe to changes of *kind*.

        Each raw :class:`WatchEvent` goes to ``deliver(event)`` inside the
        etcd commit (see :meth:`Etcd.watch`); run it through
        :func:`translate_event`. Without *deliver* the watch is a stream:
        yield ``stream.get()`` from a process. With ``replay=True`` current
        objects are delivered first, now, as synthetic PUTs (the informer
        "list+watch").

        *node_name* is a Pod watch's ``spec.nodeName`` field selector (a
        kubelet's): only events whose stored Pod (for a DELETE, the Pod
        removed) is bound to that node are delivered. etcd indexes scoped
        subscribers by node, so other nodes' Pods cost this one nothing.
        """
        self._check_kind(kind)
        prefix = f"/registry/{kind}/" + (f"{namespace}/" if namespace else "")
        return self.etcd.watch(prefix, replay=replay, deliver=deliver, node=node_name)

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
