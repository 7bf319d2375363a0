"""Controller framework: informers, work queues, reconcile loops.

Kubernetes controllers are control loops that watch the API server and
drive actual state toward desired state (paper §2.1). KubeShare's two
custom controllers (KubeShare-Sched and KubeShare-DevMgr) are built on this
framework, following the *operator pattern* the paper adopts (§4.6).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from ..obs import runtime as obs
from ..sim import Environment, Store
from .apiserver import APIServer, translate_event
from .etcd import WatchEventType

__all__ = ["Informer", "WorkQueue", "Controller"]

Handler = Callable[[WatchEventType, Any], None]


def _always(key: str) -> bool:
    return True


class Informer:
    """Watch one kind, keep a local cache, dispatch events to handlers.

    The cache maps ``namespace/name`` to the latest observed object, which
    is what real informers provide to controllers (a read-only local view
    that avoids hammering the API server).

    Each etcd commit of the kind reaches the cache and the handlers inside
    the commit (a watch callback, no process): handlers update memory and
    enqueue keys, and must not write. An apiserver outage gates requests,
    not deliveries, so a running watch never breaks and the cache of a
    running informer always equals the store: nothing relists it. Only a
    stopped informer misses commits, and :meth:`start` makes up for them.
    """

    def __init__(self, env: Environment, api: APIServer, kind: str) -> None:
        self.env = env
        self.api = api
        self.kind = kind
        self.cache: Dict[str, Any] = {}
        self._handlers: List[Handler] = []
        self._watch = None

    def add_handler(self, handler: Handler) -> None:
        self._handlers.append(handler)

    def start(self) -> "Informer":
        """List+watch: the current objects are dispatched now, as PUTs.

        A restart (failover, pause/resume) first dispatches a DELETE for
        each cached key the store lost while the informer was stopped, so
        the handlers hear every change the closed watch missed. Both
        reads go to etcd past the apiserver's outage gate, as a live
        watch's deliveries do, so a restart inside an outage is as exact
        as any other."""
        if self._watch is None:
            if self.cache:
                self._prune_vanished()
            self._watch = self.api.watch(self.kind, replay=True, deliver=self._deliver)
        return self

    def stop(self) -> None:
        """Close the etcd watch: later commits reach neither cache nor
        handlers."""
        if self._watch is not None:
            self._watch.close()
            self._watch = None

    def _deliver(self, raw) -> None:
        etype, obj = translate_event(raw)
        if obj is None:  # tombstone with no previous value
            return
        key = obj.metadata.key
        if etype is WatchEventType.DELETE:
            self.cache.pop(key, None)
        else:
            self.cache[key] = obj
        for handler in self._handlers:
            handler(etype, obj)

    def _prune_vanished(self) -> None:
        """Drop (and dispatch DELETE for) cached keys the store lost."""
        current = {
            kv.value.metadata.key
            for kv in self.api.etcd.snapshot(f"/registry/{self.kind}/")
        }
        for key in [k for k in self.cache if k not in current]:
            obj = self.cache.pop(key)
            for handler in self._handlers:
                handler(WatchEventType.DELETE, obj)

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

    *wanted* is the owner's pass predicate (see :class:`Controller`): a
    key that is neither queued nor in flight is queued only if
    ``wanted(key)`` holds now, and a dirty key only if it holds when its
    pass finishes. A key it turns away costs no kernel event; the next
    commit that concerns the key asks again.

    Worker protocol: ``with queue.get() as req: key = yield req``, then
    ``queue.checkout(key)``, reconcile, and finally ``queue.done(key)``.
    The ``with`` withdraws the get if the worker is killed while it waits.
    """

    def __init__(
        self, env: Environment, wanted: Callable[[str], bool] = _always
    ) -> None:
        self._store: Store = Store(env)
        self._wanted = wanted
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
        if self._wanted(key):
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
        """Finish processing; re-enqueue if events arrived meanwhile and
        the predicate says a pass would act on the key now (the pass just
        finished may have done what they asked for: its own writes' echoes
        dirty the key too)."""
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

    :meth:`filter` runs inside the etcd commit that delivers the event
    (see :class:`Informer`): it may update memory and enqueue keys, and
    must not write.

    A pass is queued only when it can act. :meth:`would_act` is the one
    predicate, consulted by the work queue at every enqueue (filter's,
    and any ``queue.add`` a subclass makes) and again when a key dirtied
    mid-pass would re-enter: would a pass for this key, started now, write,
    wait or change memory? It runs inside commits, so it reads only what
    the commits keep current (the informer cache, the controller's own
    memory) and never the apiserver. It must answer ``False`` only for a
    pass that would surely do nothing; any later change the pass would
    act on arrives as a commit that asks again. While the controller is
    stopped, while the apiserver is down (a pass would fail) and while
    chaos adds request latency (a pass would wait), every key is queued.

    The informer's watch is the only way a controller hears a change: no
    timer relists, and an apiserver outage leaves nothing to catch up on
    (see :class:`Informer`).

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
        self.queue = WorkQueue(env, self._wanted)
        self._running = False
        self._failures: Dict[str, int] = {}
        #: shared per-key decorrelated-jitter policy (seeded per controller
        #: name; str seeding is stable across runs, keeping simulations
        #: reproducible).
        self._backoff = DecorrelatedJitter(
            self.name, self.retry_delay, self.max_retry_delay
        )
        self._procs: list = []
        #: watches a subclass opens in ``start()``; ``stop()`` closes them.
        self._watches: list = []
        self.reconcile_errors: List[Tuple[float, str, str]] = []
        self.reconciles_total = 0
        self.first_reconcile_at: Optional[float] = None
        self.last_reconcile_at: Optional[float] = None

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> "Controller":
        """Start the informer and worker processes."""
        self._running = True
        self.informer.start()
        for i in range(self.workers):
            self._procs.append(
                self.env.process(self._worker(), name=f"{self.name}:worker{i}")
            )
        return self

    def stop(self) -> None:
        """Stop informer, watches and workers (with their in-flight
        reconciles)."""
        self._running = False
        self.informer.stop()
        for watch in self._watches:
            watch.close()
        self._watches = []
        for proc in self._procs:
            # Killing a worker closes its in-flight reconcile with it.
            if proc.is_alive:
                proc.kill()
        self._procs = []
        # In-flight keys would otherwise be stuck in `processing` forever
        # and silently swallow re-adds after a restart (pause/resume).
        self.queue.reset_in_flight()

    def _on_event(self, etype: WatchEventType, obj: Any) -> None:
        if etype is WatchEventType.DELETE:
            # The object is gone; drop its retry bookkeeping (satellite
            # fix: these dicts grew monotonically across pod churn).
            self._failures.pop(obj.metadata.key, None)
            self._backoff.reset(obj.metadata.key)
        if self.filter(etype, obj):
            self.queue.add(obj.metadata.key)

    def _wanted(self, key: str) -> bool:
        api = self.api
        return (
            not self._running
            or not api.available
            or api.extra_latency > 0
            or self.would_act(key)
        )

    # -- extension points ------------------------------------------------------
    def filter(self, etype: WatchEventType, obj: Any) -> bool:
        """Whether this event concerns the controller (default: all).

        ``True`` offers the object's key to the work queue, which still
        queues it only if :meth:`would_act` holds: filter says which
        events matter, the predicate whether a pass would act now."""
        return True

    def would_act(self, key: str) -> bool:
        """Would a pass for *key*, started now, do anything (default:
        always)? See the class docstring for the contract."""
        return True

    def reconcile(self, key: str) -> Generator:
        """Drive the object at *key* toward its desired state."""
        raise NotImplementedError
        yield  # pragma: no cover

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
