"""etcd: the versioned key-value store backing the API server.

Reproduces the subset of etcd semantics Kubernetes relies on:

* every write bumps a global, monotonically increasing **revision**;
* each key remembers the revision of its last modification
  (``mod_revision``), enabling compare-and-swap;
* **prefix watches** deliver every PUT/DELETE under a key prefix to each
  subscriber, in revision order. A subscriber's ``deliver`` runs inside
  the commit; a *stream* is the subscriber whose ``deliver`` is its own
  :class:`~repro.sim.resources.Store`'s ``offer``, drained by a process.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import chain, count
from operator import attrgetter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from ..sim import Environment, Store

__all__ = ["Etcd", "Watch", "WatchEvent", "WatchEventType", "KeyValue", "CasFailure"]


class WatchEventType(str, Enum):
    PUT = "PUT"
    DELETE = "DELETE"


@dataclass(frozen=True)
class KeyValue:
    key: str
    value: Any
    create_revision: int
    mod_revision: int


@dataclass
class WatchEvent:
    type: WatchEventType
    kv: KeyValue
    #: The previous value for PUTs that overwrite, and for DELETEs.
    prev: Optional[KeyValue] = None


class CasFailure(Exception):
    """Raised when a compare-and-swap precondition does not hold."""


def _node_of(event: WatchEvent) -> Optional[str]:
    """The ``spec.node_name`` of the object an event is about: the new
    value of a PUT, the removed one of a DELETE."""
    kv = event.prev if event.type is WatchEventType.DELETE else event.kv
    spec = getattr(kv.value, "spec", None) if kv is not None else None
    return getattr(spec, "node_name", None)


class Watch:
    """One subscriber: a key prefix, optionally one node's objects under
    it, and the callable each event is delivered to.

    A stream (``deliver=None``) buffers its events in :attr:`events`;
    yield :meth:`get` to take the next one."""

    __slots__ = ("prefix", "node", "deliver", "events", "cancelled", "seq", "_source")

    def __init__(
        self,
        source: "Etcd",
        prefix: str,
        node: Optional[str],
        deliver: Optional[Callable[[WatchEvent], None]],
        seq: int,
    ) -> None:
        self.prefix = prefix
        self.node = node
        self.events: Optional[Store] = None
        if deliver is None:
            self.events = Store(source._env)
            deliver = self.events.offer
        self.deliver = deliver
        self.cancelled = False
        #: subscription order: one commit reaches subscribers by it.
        self.seq = seq
        self._source = source

    def get(self):
        """Event that fires with the next :class:`WatchEvent` (streams)."""
        return self.events.get()

    def close(self) -> None:
        """Unsubscribe now; nothing is delivered afterwards."""
        self._source.unwatch(self)


_SEQ = attrgetter("seq")


class Etcd:
    """A single logical etcd instance (modelled as always available)."""

    def __init__(self, env: Environment) -> None:
        self._env = env
        self._data: Dict[str, KeyValue] = {}
        self._revision = 0
        #: the subscriber table: prefix -> (its unscoped subscribers, node ->
        #: that node's scoped ones), each list in subscription order. Lists
        #: are replaced, never changed in place, so a delivery walks the
        #: lists as they stood at the commit.
        self._watches: Dict[str, Tuple[List[Watch], Dict[str, List[Watch]]]] = {}
        self._seq = count()
        #: set while a commit is being delivered: a write then raises.
        self._delivering = False
        #: Optional duck-typed observer (see repro.analysis.race): notified
        #: of every committed read/write/delete with the actor's identity
        #: implied by ``env.active_process``. None in normal runs.
        self.tracker: Optional[Any] = None

    # -- reads -----------------------------------------------------------
    @property
    def revision(self) -> int:
        """Latest store revision."""
        return self._revision

    def get(self, key: str) -> Optional[KeyValue]:
        kv = self._data.get(key)
        if kv is not None and self.tracker is not None:
            self.tracker.record_read(key, kv)
        return kv

    def range(self, prefix: str) -> List[KeyValue]:
        """All key-values whose key starts with *prefix*, key-ordered."""
        out = self.snapshot(prefix)
        if self.tracker is not None:
            for kv in out:
                self.tracker.record_read(kv.key, kv)
        return out

    def snapshot(self, prefix: str) -> List[KeyValue]:
        """Like :meth:`range`, but without notifying the read tracker.

        For *derived caches* kept current by a watch callback: their
        rebuild reads are not part of any read-modify-write cycle (every
        write they feed is still guarded by a tracked ``get``), so
        recording them would only attribute cache-refill noise to
        whichever process happened to trigger the rebuild."""
        data = self._data
        return [data[k] for k in self._sorted_keys(prefix)]

    def keys(self, prefix: str = "") -> Iterator[str]:
        return iter(self._sorted_keys(prefix))

    def _sorted_keys(self, prefix: str) -> List[str]:
        # Filter first: sorting only the matches gives the same order as
        # sorting the whole store, at the cost of the prefix's size.
        return sorted([k for k in self._data if k.startswith(prefix)])

    def __len__(self) -> int:
        return len(self._data)

    # -- writes ----------------------------------------------------------
    def _check_writable(self, key: str) -> None:
        if self._delivering:
            raise RuntimeError(
                f"write to {key} from inside a watch delivery: a watch "
                "callback must not write (keep a stream and a process)"
            )

    def _commit(self, key: str, value: Any, blind: bool) -> KeyValue:
        """Apply a write that has already passed its precondition."""
        self._revision += 1
        prev = self._data.get(key)
        create_rev = prev.create_revision if prev else self._revision
        kv = KeyValue(key, value, create_rev, self._revision)
        self._data[key] = kv
        if self.tracker is not None:
            self.tracker.record_write(key, prev, kv, blind=blind)
        self._notify(WatchEvent(WatchEventType.PUT, kv, prev))
        return kv

    def put(self, key: str, value: Any) -> KeyValue:
        """Unconditional write. Returns the new :class:`KeyValue`."""
        self._check_writable(key)
        return self._commit(key, value, blind=True)

    def put_if(self, key: str, value: Any, mod_revision: int) -> KeyValue:
        """Compare-and-swap: write only if the key's mod_revision matches.

        ``mod_revision == 0`` means "key must not exist" (create-only).
        Raises :class:`CasFailure` otherwise.
        """
        self._check_writable(key)
        prev = self._data.get(key)
        current = prev.mod_revision if prev else 0
        if current != mod_revision:
            raise CasFailure(
                f"{key}: expected mod_revision {mod_revision}, found {current}"
            )
        return self._commit(key, value, blind=False)

    def delete(self, key: str) -> Optional[KeyValue]:
        """Delete *key*; returns the removed value or ``None``."""
        self._check_writable(key)
        prev = self._data.pop(key, None)
        if prev is None:
            return None
        self._revision += 1
        if self.tracker is not None:
            self.tracker.record_delete(key, prev)
        tombstone = KeyValue(key, None, prev.create_revision, self._revision)
        self._notify(WatchEvent(WatchEventType.DELETE, tombstone, prev))
        return prev

    # -- watches ---------------------------------------------------------
    def watch(
        self,
        prefix: str = "",
        replay: bool = False,
        deliver: Optional[Callable[[WatchEvent], None]] = None,
        node: Optional[str] = None,
    ) -> Watch:
        """Subscribe to changes under *prefix*.

        Each commit calls ``deliver(event)`` inside the write, after every
        earlier subscriber and before every later one. *deliver* must not
        write: a write from inside a delivery raises. An exception a
        callback raises fails the run at the next kernel step, not the
        writer. Without *deliver* the watch is a stream: events queue in
        its own store until a process takes them with :meth:`Watch.get`.

        With ``replay=True`` the current contents are delivered first, now,
        as synthetic PUT events (the "list then watch" pattern informers
        use). *node* keeps only events whose object (for a DELETE, the
        object removed) has ``spec.node_name == node``: a kubelet's
        ``spec.nodeName`` field selector, served from a per-node index so
        other nodes' events cost it nothing.
        """
        w = Watch(self, prefix, node, deliver, next(self._seq))
        everyone, by_node = self._watches.get(prefix, ([], {}))
        if node is None:
            everyone = everyone + [w]
        else:
            by_node[node] = by_node.get(node, []) + [w]
        self._watches[prefix] = (everyone, by_node)
        if replay:
            events = [WatchEvent(WatchEventType.PUT, kv, None) for kv in self.range(prefix)]
            if node is not None:
                events = [ev for ev in events if _node_of(ev) == node]
            for event in events:
                self._deliver((w,), event)
        return w

    def watchers(self, prefix: str) -> List[Watch]:
        """The live subscribers of exactly *prefix*, in subscription order."""
        everyone, by_node = self._watches.get(prefix, ((), {}))
        return sorted(chain(everyone, *by_node.values()), key=_SEQ)

    def unwatch(self, watch: Watch) -> None:
        """Unsubscribe *watch* (see :meth:`Watch.close`); idempotent."""
        if watch.cancelled:
            return
        watch.cancelled = True
        everyone, by_node = self._watches[watch.prefix]
        if watch.node is None:
            everyone = [w for w in everyone if w is not watch]
        else:
            scoped = [w for w in by_node[watch.node] if w is not watch]
            if scoped:
                by_node[watch.node] = scoped
            else:
                del by_node[watch.node]
        if everyone or by_node:
            self._watches[watch.prefix] = (everyone, by_node)
        else:
            del self._watches[watch.prefix]

    def _notify(self, event: WatchEvent) -> None:
        key = event.kv.key
        groups = []
        for prefix, (everyone, by_node) in self._watches.items():
            if key.startswith(prefix):
                if everyone:
                    groups.append(everyone)
                if by_node:
                    scoped = by_node.get(_node_of(event))
                    if scoped:
                        groups.append(scoped)
        if not groups:
            return
        if len(groups) == 1:
            self._deliver(groups[0], event)
        else:
            self._deliver(sorted(chain.from_iterable(groups), key=_SEQ), event)

    def _deliver(self, watches, event: WatchEvent) -> None:
        """Hand *event* to each live subscriber in *watches*, in order. A
        callback that raises fails the run, not the writer: a controller
        whose write triggered it would otherwise retry it as its own
        reconcile error."""
        outer, self._delivering = self._delivering, True
        try:
            for w in watches:
                if not w.cancelled:
                    try:
                        w.deliver(event)
                    except Exception as err:  # noqa: BLE001 - re-raised by the kernel
                        self._env.event().fail(err)
        finally:
            self._delivering = outer
