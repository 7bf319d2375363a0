"""etcd: the versioned key-value store backing the API server.

Reproduces the subset of etcd semantics Kubernetes relies on:

* every write bumps a global, monotonically increasing **revision**;
* each key remembers the revision of its last modification
  (``mod_revision``), enabling compare-and-swap;
* **prefix watches** deliver an ordered stream of PUT/DELETE events to
  subscribers (via a simulation :class:`~repro.sim.resources.Store`).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from ..sim import Environment, Store

__all__ = ["Etcd", "WatchEvent", "WatchEventType", "KeyValue", "CasFailure"]


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


class _Watch:
    """One subscriber's view of a key prefix."""

    def __init__(
        self,
        env: Environment,
        prefix: str,
        source: "Etcd" = None,
        match: Optional[Callable[[WatchEvent], bool]] = None,
    ) -> None:
        self.prefix = prefix
        self.match = match
        self.events: Store = Store(env)
        self.cancelled = False
        self._source = source

    def get(self):
        """Event that fires with the next :class:`WatchEvent`."""
        return self.events.get()

    def cancel(self) -> None:
        self.cancelled = True

    def close(self) -> None:
        """Cancel and detach from the store immediately (not lazily at the
        next notify), so stopped subscribers don't pin their event buffers."""
        self.cancel()
        if self._source is not None:
            self._source.unwatch(self)


class Etcd:
    """A single logical etcd instance (modelled as always available)."""

    def __init__(self, env: Environment) -> None:
        self._env = env
        self._data: Dict[str, KeyValue] = {}
        self._revision = 0
        self._watches: List[_Watch] = []
        #: synchronous commit hooks ``(prefix, fn)`` — unlike watches, these
        #: run inside the write itself (no Store hop), which is what lets
        #: derived caches (the scheduler's device-view index) invalidate
        #: before any reader can observe the new state.
        self._listeners: List[Tuple[str, Callable[[WatchEvent], None]]] = []
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

        For *derived caches* that are invalidated synchronously via
        :meth:`add_listener`: their rebuild reads are not part of any
        read-modify-write cycle (every write they feed is still guarded by
        a tracked ``get``), so recording them would only attribute
        cache-refill noise to whichever process happened to trigger the
        rebuild."""
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
        return self._commit(key, value, blind=True)

    def put_if(self, key: str, value: Any, mod_revision: int) -> KeyValue:
        """Compare-and-swap: write only if the key's mod_revision matches.

        ``mod_revision == 0`` means "key must not exist" (create-only).
        Raises :class:`CasFailure` otherwise.
        """
        prev = self._data.get(key)
        current = prev.mod_revision if prev else 0
        if current != mod_revision:
            raise CasFailure(
                f"{key}: expected mod_revision {mod_revision}, found {current}"
            )
        return self._commit(key, value, blind=False)

    def delete(self, key: str) -> Optional[KeyValue]:
        """Delete *key*; returns the removed value or ``None``."""
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
        match: Optional[Callable[[WatchEvent], bool]] = None,
    ) -> _Watch:
        """Subscribe to changes under *prefix*.

        With ``replay=True`` the current contents are delivered first as
        synthetic PUT events (the "list then watch" pattern informers use).

        *match* filters at the source: an event is offered only if
        ``match(event)`` holds, on replay and inside :meth:`_notify`'s walk
        over the watchers, so delivered events keep their order and a
        rejected one wakes nobody. It runs inside the write: keep it cheap
        and read-only.
        """
        w = _Watch(self._env, prefix, source=self, match=match)
        self._watches.append(w)
        if replay:
            for kv in self.range(prefix):
                event = WatchEvent(WatchEventType.PUT, kv, None)
                if match is None or match(event):
                    w.events.offer(event)
        return w

    def unwatch(self, watch: _Watch) -> None:
        """Remove a subscriber eagerly (see :meth:`_Watch.close`)."""
        watch.cancelled = True
        try:
            self._watches.remove(watch)
        except ValueError:  # pragma: no cover - already removed
            pass

    # -- synchronous listeners --------------------------------------------
    def add_listener(
        self, prefix: str, fn: Callable[[WatchEvent], None]
    ) -> Callable[[WatchEvent], None]:
        """Subscribe *fn* to every committed write/delete under *prefix*.

        Listeners run synchronously inside the commit (the informer feed
        without the queue hop); they must be cheap and must not write."""
        self._listeners.append((prefix, fn))
        return fn

    def remove_listener(self, fn: Callable[[WatchEvent], None]) -> None:
        self._listeners = [(p, f) for p, f in self._listeners if f is not fn]

    def _notify(self, event: WatchEvent) -> None:
        key = event.kv.key
        for prefix, fn in self._listeners:
            if key.startswith(prefix):
                fn(event)
        stale = False
        for w in self._watches:
            if w.cancelled:
                stale = True
            elif key.startswith(w.prefix) and (w.match is None or w.match(event)):
                w.events.offer(event)
        if stale:
            self._watches = [w for w in self._watches if not w.cancelled]
