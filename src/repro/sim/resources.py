"""Queueing primitives built on the event kernel.

* :class:`Resource` — a semaphore with *capacity* slots and a FIFO wait
  queue (``request`` / ``release``): the container runtime's setup
  slots.
* :class:`Store` — an unbounded FIFO of items (``offer`` / ``get``):
  etcd watch streams and the controllers' work queues.

Both hand out requests that wait in their owner's FIFO until granted.
A request is a context manager: leaving the ``with`` block withdraws it
while it still waits (and releases a granted :class:`Resource` slot).
A process that waits inside ``with ... as req: yield req`` therefore
gives up its place when it is killed, since :meth:`Process.kill` closes
the generator; one that yields a bare request keeps its place, and the
grant goes to nobody.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from .events import PENDING, Event

if TYPE_CHECKING:  # pragma: no cover
    from .environment import Environment

__all__ = ["Resource", "Store"]


class _Request(Event):
    """A request that waits in its owner's ``_waiters`` FIFO until granted."""

    __slots__ = ("owner",)

    def __init__(self, owner: Any) -> None:
        super().__init__(owner._env)
        self.owner = owner

    def cancel(self) -> None:
        """Withdraw the request if it has not been granted yet."""
        if self._value is PENDING:
            waiters = self.owner._waiters
            if self in waiters:
                waiters.remove(self)

    def __enter__(self) -> "_Request":
        return self

    def __exit__(self, exc_type, exc_value, tb) -> None:
        self.cancel()


class Request(_Request):
    """A request for one slot of a :class:`Resource`."""

    __slots__ = ()

    def __exit__(self, exc_type, exc_value, tb) -> None:
        if self._value is PENDING:
            self.cancel()
        else:
            self.owner.release(self)


class Resource:
    """A semaphore with *capacity* slots and a FIFO wait queue."""

    def __init__(self, env: "Environment", capacity: int = 1) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be > 0")
        self._env = env
        self._capacity = capacity
        self._waiters: list[Request] = []
        self._users: list[Request] = []

    @property
    def count(self) -> int:
        """Number of slots currently in use."""
        return len(self._users)

    @property
    def queue(self) -> list[Request]:
        """Pending (ungranted) requests, in grant order."""
        return list(self._waiters)

    def request(self) -> Request:
        """Request a slot. The returned event fires when granted."""
        req = Request(self)
        if len(self._users) < self._capacity:
            self._users.append(req)
            req.succeed()
        else:
            self._waiters.append(req)
        return req

    def release(self, request: Request) -> None:
        """Release a previously granted slot to the longest waiter."""
        try:
            self._users.remove(request)
        except ValueError:
            raise RuntimeError("request was not granted by this resource") from None
        if self._waiters:
            req = self._waiters.pop(0)
            self._users.append(req)
            req.succeed()


class Store:
    """An unbounded FIFO of items: ``offer`` never blocks, ``get`` waits.

    ``items`` holds what no get has taken yet. It and the queue of
    waiting gets are never both non-empty.
    """

    def __init__(self, env: "Environment") -> None:
        self._env = env
        self.items: list[Any] = []
        self._waiters: list[_Request] = []

    def offer(self, item: Any) -> None:
        """Hand *item* to the longest-waiting get, or else append it."""
        if self._waiters:
            self._waiters.pop(0).succeed(item)
        else:
            self.items.append(item)

    def get(self) -> _Request:
        """An event that fires with the head item (at once if there is one)."""
        get = _Request(self)
        if self.items:
            get.succeed(self.items.pop(0))
        else:
            self._waiters.append(get)
        return get
