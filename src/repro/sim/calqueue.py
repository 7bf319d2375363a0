"""Event queue for :class:`repro.sim.Environment`.

:class:`HeapQueue` stores schedule entries — ``(time, priority, seq,
event)`` tuples — in one binary heap and serves them in exact ``(time,
priority, seq)`` order. It exposes ``push``, ``pop`` and ``__len__``,
plus ``__iter__`` over the stored entries (order unspecified) for
introspection and tests.

Lazy cancellation is *not* this module's concern: tombstoned events flow
through the queue untouched and are drained at the head by the
environment's shared ``_pop_live`` helper.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Iterator, Tuple

__all__ = ["HeapQueue", "CalendarQueue"]

#: A schedule entry: (time, priority, seq, event).
Entry = Tuple[float, int, int, Any]


class HeapQueue:
    """One binary heap over all schedule entries."""

    __slots__ = ("_heap",)

    def __init__(self) -> None:
        self._heap: list[Entry] = []

    def push(self, entry: Entry) -> None:
        heappush(self._heap, entry)

    def pop(self) -> Entry:
        """Remove and return the minimum entry (IndexError when empty)."""
        return heappop(self._heap)

    def __len__(self) -> int:
        return len(self._heap)

    def __iter__(self) -> Iterator[Entry]:
        return iter(self._heap)


#: The name ``bench/trace.py`` wraps to count ``sim.queue_pushes``: it
#: looks ``push`` up in this class's own ``vars``, so the alias must be
#: the kernel's queue class itself, and every push must go through it.
CalendarQueue = HeapQueue
