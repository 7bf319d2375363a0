"""Shared-resource primitives built on the event kernel.

Provides the classic quartet:

* :class:`Resource` — a semaphore with a FIFO wait queue (``request`` /
  ``release``), usable as a context manager inside processes.
* :class:`PriorityResource` — like :class:`Resource` but the wait queue is
  ordered by a user-supplied priority.
* :class:`Container` — a continuous level with ``put(amount)`` /
  ``get(amount)``.
* :class:`Store` / :class:`FilterStore` / :class:`PriorityStore` — queues of
  Python objects.
"""

from __future__ import annotations

import heapq
from itertools import count
from typing import TYPE_CHECKING, Any, Callable, Optional

from .events import Event

if TYPE_CHECKING:  # pragma: no cover
    from .environment import Environment

__all__ = [
    "Resource",
    "PriorityResource",
    "Container",
    "Store",
    "FilterStore",
    "PriorityStore",
    "PriorityItem",
]


class _BaseRequest(Event):
    """Common machinery for put/get style requests.

    Requests support ``with`` blocks: exiting the block cancels a pending
    request or releases a granted one (for :class:`Resource` only; store
    and container requests simply cancel if still pending).
    """

    __slots__ = ("resource",)

    def __init__(self, resource: Any) -> None:
        super().__init__(resource._env)
        self.resource = resource

    def cancel(self) -> None:
        """Withdraw the request if it has not been granted yet."""
        if not self.triggered:
            self.resource._remove_request(self)

    def __enter__(self) -> "_BaseRequest":
        return self

    def __exit__(self, exc_type, exc_value, tb) -> None:
        self.cancel()


class Request(_BaseRequest):
    """A request for one unit of a :class:`Resource`."""

    __slots__ = ("priority", "key")

    def __init__(self, resource: "Resource", priority: float = 0.0) -> None:
        super().__init__(resource)
        self.priority = priority
        self.key = (priority, next(resource._seq))
        resource._queue.append(self)
        resource._queue.sort(key=lambda r: r.key)
        resource._trigger()

    def __exit__(self, exc_type, exc_value, tb) -> None:
        if self.triggered:
            self.resource.release(self)
        else:
            self.cancel()


class Resource:
    """A semaphore with *capacity* slots and a FIFO (or priority) queue."""

    def __init__(self, env: "Environment", capacity: int = 1) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be > 0")
        self._env = env
        self._capacity = capacity
        self._queue: list[Request] = []
        self._users: list[Request] = []
        self._seq = count()

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def count(self) -> int:
        """Number of slots currently in use."""
        return len(self._users)

    @property
    def queue(self) -> list[Request]:
        """Pending (ungranted) requests, in grant order."""
        return list(self._queue)

    def request(self, priority: float = 0.0) -> Request:
        """Request a slot. The returned event fires when granted."""
        return Request(self, priority)

    def release(self, request: Request) -> None:
        """Release a previously granted slot."""
        try:
            self._users.remove(request)
        except ValueError:
            raise RuntimeError("request was not granted by this resource") from None
        self._trigger()

    # -- internal --------------------------------------------------------
    def _remove_request(self, request: Request) -> None:
        try:
            self._queue.remove(request)
        except ValueError:  # pragma: no cover - already granted/cancelled
            pass

    def _trigger(self) -> None:
        while self._queue and len(self._users) < self._capacity:
            req = self._queue.pop(0)
            self._users.append(req)
            req.succeed()


class PriorityResource(Resource):
    """A :class:`Resource` whose queue is ordered by request priority.

    Lower priority values are served first.
    """

    def request(self, priority: float = 0.0) -> Request:
        return Request(self, priority)


class _ContainerPut(_BaseRequest):
    __slots__ = ("amount",)

    def __init__(self, container: "Container", amount: float) -> None:
        if amount <= 0:
            raise ValueError("amount must be > 0")
        super().__init__(container)
        self.amount = amount
        container._put_queue.append(self)
        container._trigger()


class _ContainerGet(_BaseRequest):
    __slots__ = ("amount",)

    def __init__(self, container: "Container", amount: float) -> None:
        if amount <= 0:
            raise ValueError("amount must be > 0")
        super().__init__(container)
        self.amount = amount
        container._get_queue.append(self)
        container._trigger()


class Container:
    """A continuous quantity with bounded capacity."""

    def __init__(
        self,
        env: "Environment",
        capacity: float = float("inf"),
        init: float = 0.0,
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be > 0")
        if not 0 <= init <= capacity:
            raise ValueError("init must be within [0, capacity]")
        self._env = env
        self._capacity = capacity
        self._level = float(init)
        self._put_queue: list[_ContainerPut] = []
        self._get_queue: list[_ContainerGet] = []

    @property
    def capacity(self) -> float:
        return self._capacity

    @property
    def level(self) -> float:
        return self._level

    def put(self, amount: float) -> _ContainerPut:
        return _ContainerPut(self, amount)

    def get(self, amount: float) -> _ContainerGet:
        return _ContainerGet(self, amount)

    def _remove_request(self, request: _BaseRequest) -> None:
        for q in (self._put_queue, self._get_queue):
            try:
                q.remove(request)  # type: ignore[arg-type]
                return
            except ValueError:
                continue

    def _trigger(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            if self._put_queue:
                put = self._put_queue[0]
                if self._level + put.amount <= self._capacity:
                    self._put_queue.pop(0)
                    self._level += put.amount
                    put.succeed()
                    progressed = True
            if self._get_queue:
                get = self._get_queue[0]
                if self._level >= get.amount:
                    self._get_queue.pop(0)
                    self._level -= get.amount
                    get.succeed(get.amount)
                    progressed = True


class _StorePut(_BaseRequest):
    __slots__ = ("item",)

    def __init__(self, store: "Store", item: Any) -> None:
        super().__init__(store)
        self.item = item
        # With both wait queues empty, _trigger() would run exactly one
        # _do_put over [self] and scan nothing else, so the dispatch is
        # done inline. A full store (or a PriorityStore override
        # returning False) falls through to the generic queue-and-scan
        # path.
        if store._put_queue or store._get_queue or not store._do_put(self):
            store._put_queue.append(self)
            store._trigger()


class _StoreGet(_BaseRequest):
    __slots__ = ("filter",)

    def __init__(
        self, store: "Store", filter: Optional[Callable[[Any], bool]] = None
    ) -> None:
        super().__init__(store)
        self.filter = filter
        # Mirror of the put: no blocked puts means a satisfied get frees
        # no capacity anyone is waiting for, so the inline _do_get is the
        # whole _trigger() pass.
        if store._put_queue or store._get_queue or not store._do_get(self):
            store._get_queue.append(self)
            store._trigger()


class Store:
    """A FIFO queue of arbitrary items with optional bounded capacity."""

    def __init__(self, env: "Environment", capacity: float = float("inf")) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be > 0")
        self._env = env
        self._capacity = capacity
        self.items: list[Any] = []
        self._put_queue: list[_StorePut] = []
        self._get_queue: list[_StoreGet] = []

    @property
    def capacity(self) -> float:
        return self._capacity

    def put(self, item: Any) -> _StorePut:
        return _StorePut(self, item)

    def offer(self, item: Any) -> Optional[_StorePut]:
        """Deposit *item* fire-and-forget (a ``put`` whose event nobody
        awaits — watch fan-out, work-queue adds).

        An immediately-satisfiable deposit creates no event at all: the
        put request would trigger with zero subscribers, so its
        schedule/dispatch round trip is pure kernel traffic. A full store
        or blocked puts fall back to the ordinary request event.
        """
        if self._put_queue or len(self.items) >= self._capacity:
            return _StorePut(self, item)
        self._insert(item)
        if self._get_queue:
            self._trigger()
        return None

    def get(self) -> _StoreGet:
        return _StoreGet(self)

    def _remove_request(self, request: _BaseRequest) -> None:
        for q in (self._put_queue, self._get_queue):
            try:
                q.remove(request)  # type: ignore[arg-type]
                return
            except ValueError:
                continue

    # -- item movement ---------------------------------------------------
    def _insert(self, item: Any) -> None:
        """Place *item* into the backing collection (ordering hook)."""
        self.items.append(item)

    def _do_put(self, put: _StorePut) -> bool:
        if len(self.items) < self._capacity:
            self._insert(put.item)
            put.succeed()
            return True
        return False

    def _do_get(self, get: _StoreGet) -> bool:
        if get.filter is None:
            if self.items:
                get.succeed(self.items.pop(0))
                return True
            return False
        for i, item in enumerate(self.items):
            if get.filter(item):
                del self.items[i]
                get.succeed(item)
                return True
        return False

    def _trigger(self) -> None:
        while True:
            idx = 0
            while idx < len(self._put_queue):
                put = self._put_queue[idx]
                if self._do_put(put):
                    self._put_queue.pop(idx)
                else:
                    idx += 1
            got = False
            idx = 0
            # Every _do_get fails on an empty store and changes nothing,
            # so the scan ends when the items run out.
            while self.items and idx < len(self._get_queue):
                get = self._get_queue[idx]
                if self._do_get(get):
                    self._get_queue.pop(idx)
                    got = True
                else:
                    idx += 1
            if not (got and self._put_queue):
                # Only a successful get frees capacity a blocked put could
                # use; gets in this pass already saw every item the put
                # pass added, so any extra pass would be a no-op scan.
                break


class FilterStore(Store):
    """A :class:`Store` whose ``get`` can demand a matching item."""

    def get(self, filter: Optional[Callable[[Any], bool]] = None) -> _StoreGet:
        return _StoreGet(self, filter)


class PriorityItem:
    """Wrap an item with an explicit priority for :class:`PriorityStore`."""

    __slots__ = ("priority", "item", "_seq")
    _counter = count()

    def __init__(self, priority: float, item: Any) -> None:
        self.priority = priority
        self.item = item
        self._seq = next(self._counter)

    def __lt__(self, other: "PriorityItem") -> bool:
        return (self.priority, self._seq) < (other.priority, other._seq)

    def __repr__(self) -> str:  # pragma: no cover
        return f"PriorityItem({self.priority!r}, {self.item!r})"


class PriorityStore(Store):
    """A :class:`Store` that yields items in ascending priority order."""

    def _insert(self, item: Any) -> None:
        heapq.heappush(self.items, item)

    def _do_get(self, get: _StoreGet) -> bool:
        if self.items:
            get.succeed(heapq.heappop(self.items))
            return True
        return False
