"""Controller framework: informers, work queues, reconcile loops.

Kubernetes controllers are control loops that watch the API server and
drive actual state toward desired state (paper §2.1). KubeShare's two
custom controllers (KubeShare-Sched and KubeShare-DevMgr) are built on this
framework, following the *operator pattern* the paper adopts (§4.6).
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from ..obs import runtime as obs
from ..sim import Environment, Process, Store
from .apiserver import APIServer, ServiceUnavailable, translate_event
from .etcd import WatchEventType

__all__ = ["Informer", "WorkQueue", "Controller"]

Handler = Callable[[WatchEventType, Any], None]


class Informer:
    """Watch one kind, keep a local cache, dispatch events to handlers.

    The cache maps ``namespace/name`` to the latest observed object, which
    is what real informers provide to controllers (a read-only local view
    that avoids hammering the API server).
    """

    #: watch-reconnect backoff bounds (shared decorrelated jitter).
    reconnect_delay: float = 0.1
    max_reconnect_delay: float = 5.0

    def __init__(self, env: Environment, api: APIServer, kind: str) -> None:
        from ..core.backoff import DecorrelatedJitter  # deferred: import cycle

        self.env = env
        self.api = api
        self.kind = kind
        self.cache: Dict[str, Any] = {}
        self._handlers: List[Handler] = []
        self._proc = None
        self._stream = None
        self._reconnect = DecorrelatedJitter(
            f"informer:{kind}", self.reconnect_delay, self.max_reconnect_delay
        )
        self.reconnects_total = 0
        #: etcd mod_revision of the newest event this informer has seen —
        #: the gap to ``etcd.revision`` is the informer's observed lag.
        self.last_seen_revision: int = 0

    def add_handler(self, handler: Handler) -> None:
        self._handlers.append(handler)

    def start(self):
        """Begin the list+watch loop; returns the underlying process."""
        if self._proc is None:
            self._proc = self.env.process(self._run(), name=f"informer:{self.kind}")
        return self._proc

    def stop(self) -> None:
        """Stop the watch loop and close the etcd watch (no store leak)."""
        if self._stream is not None:
            self._stream.close()
            self._stream = None
        if self._proc is not None and self._proc.is_alive:
            self._proc.kill()
        self._proc = None

    def _run(self) -> Generator:
        while True:
            self._stream = stream = self.api.watch(self.kind, replay=True)
            attached_at = self.env.now
            if self.cache:
                # Relist-on-reconnect: the watch's replay snapshot re-PUTs
                # every object that still exists, but deletions that happened
                # while we were not watching would otherwise linger in the
                # cache forever.
                self._prune_vanished()
            try:
                while True:
                    raw = yield stream.get()
                    self.last_seen_revision = max(
                        self.last_seen_revision, raw.kv.mod_revision
                    )
                    etype, obj = translate_event(raw)
                    if obj is None:  # tombstone with no previous value
                        continue
                    key = obj.metadata.key
                    if etype is WatchEventType.DELETE:
                        self.cache.pop(key, None)
                    else:
                        self.cache[key] = obj
                    for handler in self._handlers:
                        handler(etype, obj)
            except ServiceUnavailable:
                # The watch session broke (apiserver-side failure surfaced
                # through delivery): re-attach, but never in a tight loop —
                # jittered backoff so a fleet of informers doesn't stampede
                # the store the moment it comes back.
                stream.close()
                self._stream = None
                self.reconnects_total += 1
                if self.env.now - attached_at > self.max_reconnect_delay:
                    # The session was healthy for a while: this is a fresh
                    # failure, not a continuation of the last streak.
                    self._reconnect.reset()
                yield self.env.timeout(self._reconnect.next())

    def _prune_vanished(self) -> None:
        """Drop (and dispatch DELETE for) cached keys the store lost."""
        try:
            current = {obj.metadata.key for obj in self.api.list(self.kind)}
        except ServiceUnavailable:
            return  # outage: the post-outage resync will reconcile us
        for key in [k for k in self.cache if k not in current]:
            obj = self.cache.pop(key)
            for handler in self._handlers:
                handler(WatchEventType.DELETE, obj)

    def resync(self) -> None:
        """Reconcile the cache against a full relist, dispatching synthetic
        events for every difference (missed deletes and missed/late puts).

        The normal watch path cannot miss events — watches attach directly
        to etcd and outages only gate request processing — but a stopped
        informer (controller failover, pause/resume) can; this is the
        recovery hook for that, and the post-outage safety net.
        """
        try:
            current = {obj.metadata.key: obj for obj in self.api.list(self.kind)}
        except ServiceUnavailable:
            return
        for key in [k for k in self.cache if k not in current]:
            obj = self.cache.pop(key)
            for handler in self._handlers:
                handler(WatchEventType.DELETE, obj)
        for key, obj in current.items():
            self.last_seen_revision = max(
                self.last_seen_revision, obj.metadata.resource_version
            )
            cached = self.cache.get(key)
            if (
                cached is None
                or cached.metadata.resource_version != obj.metadata.resource_version
            ):
                self.cache[key] = obj
                for handler in self._handlers:
                    handler(WatchEventType.PUT, obj)

    # -- cache access ------------------------------------------------------
    def get(self, key: str) -> Optional[Any]:
        return self.cache.get(key)

    def list(self) -> List[Any]:
        return list(self.cache.values())


class WorkQueue:
    """A de-duplicating FIFO of reconcile keys.

    Mirrors ``client-go``'s workqueue semantics: a key that is already
    queued is not enqueued twice (bursts of watch events coalesce into one
    reconcile), and a key added *while it is being processed* is marked
    dirty and re-enqueued when processing finishes — so no event is lost
    to an in-flight reconcile.

    Worker protocol: ``with queue.get() as req: key = yield req``, then
    ``queue.checkout(key)``, reconcile, and finally ``queue.done(key)``.
    The ``with`` withdraws the get if the worker is killed while it waits.
    """

    def __init__(self, env: Environment) -> None:
        self._store: Store = Store(env)
        self._pending: set[str] = set()
        self._processing: set[str] = set()
        self._dirty: set[str] = set()

    def __len__(self) -> int:
        return len(self._pending)

    def add(self, key: str) -> None:
        if key in self._pending:
            return
        if key in self._processing:
            self._dirty.add(key)
            return
        self._pending.add(key)
        self._store.offer(key)

    def get(self):
        """Event that fires with the next key."""
        return self._store.get()

    def checkout(self, key: str) -> None:
        """Mark *key* as being processed (call right after :meth:`get`)."""
        self._pending.discard(key)
        self._processing.add(key)

    def done(self, key: str) -> None:
        """Finish processing; re-enqueue if events arrived meanwhile."""
        self._processing.discard(key)
        self._pending.discard(key)
        if key in self._dirty:
            self._dirty.discard(key)
            self.add(key)

    def reset_in_flight(self) -> None:
        """Forget checkouts whose workers died mid-reconcile (controller
        stop/restart); their dirty keys re-enqueue so no event is lost."""
        for key in sorted(self._processing):
            self.done(key)


class Controller:
    """Base class for control loops: informer events feed a work queue,
    worker processes run :meth:`reconcile` for each key.

    Subclasses implement :meth:`reconcile` as a simulation generator; it may
    yield events (timeouts, API waits). Raising inside reconcile requeues
    the key after ``retry_delay`` (bounded exponential backoff), mirroring
    workqueue rate limiting.
    """

    #: Kind whose events drive this controller.
    kind: str = "Pod"
    #: Base requeue delay after a reconcile error, seconds.
    retry_delay: float = 0.05
    max_retry_delay: float = 2.0
    workers: int = 1

    def __init__(self, env: Environment, api: APIServer, name: Optional[str] = None) -> None:
        from ..core.backoff import DecorrelatedJitter  # deferred: import cycle

        self.env = env
        self.api = api
        self.name = name or type(self).__name__
        self.informer = Informer(env, api, self.kind)
        self.informer.add_handler(self._on_event)
        self.queue = WorkQueue(env)
        self._failures: Dict[str, int] = {}
        #: shared per-key decorrelated-jitter policy (seeded per controller
        #: name; str seeding is stable across runs, keeping simulations
        #: reproducible).
        self._backoff = DecorrelatedJitter(
            self.name, self.retry_delay, self.max_retry_delay
        )
        self._procs: list = []
        self.reconcile_errors: List[Tuple[float, str, str]] = []
        self.reconciles_total = 0
        self.first_reconcile_at: Optional[float] = None
        self.last_reconcile_at: Optional[float] = None
        self.resyncs_total = 0
        #: ``api.outages_total`` when last looked at, and the process
        #: waiting out the current outage to resync (None when idle).
        self._outages_seen = 0
        self._resync_proc: Optional[Process] = None

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> "Controller":
        """Start the informer and worker processes."""
        self.informer.start()
        for i in range(self.workers):
            self._procs.append(
                self.env.process(self._worker(), name=f"{self.name}:worker{i}")
            )
        self._outages_seen = self.api.outages_total
        self.api.lease_hooks.append(self._on_lease_event)
        return self

    def stop(self) -> None:
        """Stop informer and workers (with their in-flight reconciles),
        and forget any outage still to be resynced."""
        if self._on_lease_event in self.api.lease_hooks:
            self.api.lease_hooks.remove(self._on_lease_event)
        if self._resync_proc is not None:
            self._resync_proc.kill()
            self._resync_proc = None
        self.informer.stop()
        for proc in self._procs:
            # Killing a worker closes its in-flight reconcile with it.
            if proc.is_alive:
                proc.kill()
        self._procs = []
        # In-flight keys would otherwise be stuck in `processing` forever
        # and silently swallow re-adds after a restart (pause/resume).
        self.queue.reset_in_flight()

    def resync(self) -> None:
        """Force an informer relist (see :meth:`Informer.resync`)."""
        self.resyncs_total += 1
        self.informer.resync()

    def _on_event(self, etype: WatchEventType, obj: Any) -> None:
        if etype is WatchEventType.DELETE:
            # The object is gone; drop its retry bookkeeping (satellite
            # fix: these dicts grew monotonically across pod churn).
            self._failures.pop(obj.metadata.key, None)
            self._backoff.reset(obj.metadata.key)
        if self.filter(etype, obj):
            self.queue.add(obj.metadata.key)

    # -- extension points ------------------------------------------------------
    def filter(self, etype: WatchEventType, obj: Any) -> bool:
        """Whether this event should trigger a reconcile (default: all)."""
        return True

    def reconcile(self, key: str) -> Generator:
        """Drive the object at *key* toward its desired state."""
        raise NotImplementedError
        yield  # pragma: no cover

    # -- outage resync -----------------------------------------------------------
    def _on_lease_event(self) -> None:
        """Arm one resync when an outage begins; lease starts and stops
        fire the same hook but move no outage counter."""
        if self.api.outages_total == self._outages_seen:
            return
        self._outages_seen = self.api.outages_total
        if self._resync_proc is None:
            self._resync_proc = self.env.process(
                self._resync_after_outage(), name=f"{self.name}:resync"
            )

    def _resync_after_outage(self) -> Generator:
        """Resync once when the (possibly extended) outage window closes;
        a permanent outage never closes."""
        while not self.api.available and self.api.down_until < math.inf:
            yield self.env.timeout(self.api.down_until - self.env.now)
        self._resync_proc = None
        if self.api.available:
            self.resync()

    # -- worker loop -------------------------------------------------------------
    def _worker(self) -> Generator:
        while True:
            # Waiting inside `with` withdraws the get when stop() kills
            # this worker; a bare `yield` would leave it queued to take,
            # after a restart, a key that no live worker then reconciles.
            with self.queue.get() as request:
                key = yield request
            self.queue.checkout(key)
            self.reconciles_total += 1
            if self.first_reconcile_at is None:
                self.first_reconcile_at = self.env.now
            self.last_reconcile_at = self.env.now
            if self.api.extra_latency > 0:
                # Chaos-injected control-plane latency: every reconcile's
                # API round-trips slow down accordingly.
                yield self.env.timeout(self.api.extra_latency)
            try:
                with obs.reconcile_ctx(self, key):
                    yield from self.reconcile(key)
            except Exception as err:  # noqa: BLE001 - controller must survive
                self.reconcile_errors.append((self.env.now, key, repr(err)))
                n = self._failures.get(key, 0) + 1
                self._failures[key] = n
                delay = self._next_backoff(key, n)
                self.env.process(self._requeue_later(key, delay))
            else:
                self._failures.pop(key, None)
                self._backoff.reset(key)
            finally:
                self.queue.done(key)

    def _next_backoff(self, key: str, n: int) -> float:
        """Bounded decorrelated jitter (see :mod:`repro.core.backoff`)."""
        return self._backoff.next(key, n)

    def _requeue_later(self, key: str, delay: float) -> Generator:
        yield self.env.timeout(delay)
        self.queue.add(key)
