"""Event queue for :class:`repro.sim.Environment`.

Both classes store schedule entries — ``(time, priority, seq, event)``
tuples — and serve them in exact ``(time, priority, seq)`` order:

* :class:`CalendarQueue` — the kernel's queue: an array-backed calendar
  queue / bucketed timer wheel.  Entries are partitioned into
  fixed-width time buckets, a bitmask of non-empty buckets gives O(1)
  lowest-bucket lookup, far-future entries park in an overflow heap, and
  the window rebases — adapting bucket width to the observed event
  density and bucket count to the parked population — whenever the
  in-window buckets drain.

  Buckets are plain unsorted lists: a push is a C-speed ``append`` plus
  two bitmask ORs, and a bucket is sorted (descending, so the minimum
  pops off the tail in O(1)) lazily, the first time the minimum is taken
  from it.  A push into an already-sorted bucket re-marks it dirty; the
  next pop re-sorts, which Timsort handles in near-linear time on the
  mostly-sorted tail.  Because buckets partition the time axis into
  disjoint increasing ranges and ties inside a bucket sort by the full
  ``(time, priority, seq)`` tuple, the pop order is *identical* to a
  binary heap's.
* :class:`HeapQueue` — a thin wrapper over a single binary heap, kept as
  the oracle: the Hypothesis property test in
  ``tests/sim/test_calqueue_property.py`` checks the calendar queue
  against it over adversarial schedule/cancel sequences, same-tick
  priority ties, and far-future overflow entries.

Both expose the same operations — ``push``, ``first``, ``pop``,
``__len__`` — plus ``__iter__`` over the stored entries (order
unspecified) for introspection and tests.

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

#: Bucket-count bounds for the adaptive resize on rebase.
_MIN_BUCKETS = 64
_MAX_BUCKETS = 4096

#: Bucket-width bounds for the adaptive rebase: the floor guards against
#: a degenerate window when a rebase sees a near-zero time span, the cap
#: keeps one bucket from swallowing the whole schedule (at which point
#: the structure would degrade into "one big sorted list").
_MIN_WIDTH = 1e-9
_MAX_WIDTH = 60.0

#: Density target: adapt the bucket width toward this many pops per
#: bucket, estimated from the window just drained.
_PER_BUCKET = 4.0


class HeapQueue:
    """One binary heap over all entries: the calendar queue's oracle."""

    __slots__ = ("_heap",)

    def __init__(self) -> None:
        self._heap: list[Entry] = []

    def push(self, entry: Entry) -> None:
        heappush(self._heap, entry)

    def first(self) -> Entry:
        """The minimum entry without removing it (IndexError when empty)."""
        return self._heap[0]

    def pop(self) -> Entry:
        """Remove and return the minimum entry (IndexError when empty)."""
        return heappop(self._heap)

    def __len__(self) -> int:
        return len(self._heap)

    def __iter__(self) -> Iterator[Entry]:
        return iter(self._heap)


class CalendarQueue:
    """Bucketed timer wheel with an overflow heap and adaptive rebase.

    Bucket ``i`` holds entries whose bucket index ``int(time / width)``
    equals ``base + i``.  Truncation (rather than ``math.floor``) is fine
    — any monotone non-decreasing index function partitions the time
    axis correctly, and ``int()`` skips a function call on the hot path.

    Two boundary cases keep the common path branch-light:

    * entries mapping *below* the window (possible right after a rebase,
      when the window starts at the earliest parked entry but the
      simulation clock is still behind it) clamp into bucket 0 — the
      bucket sort still orders them first, so the total order holds;
    * entries mapping *past* the window land in the ``_overflow`` heap,
      from which :meth:`_rebase` pulls everything under the new horizon
      once the in-window buckets drain.  Far-future entries stay parked
      in the heap across rebases instead of being rescanned each time.
    """

    __slots__ = (
        "_buckets",
        "_mask",
        "_dirty",
        "_base",
        "_inv_width",
        "_nbuckets",
        "_overflow",
        "_size",
        "_pops",
        "_floor_time",
    )

    def __init__(self, width: float = 0.05, nbuckets: int = 256) -> None:
        self._inv_width = 1.0 / float(width)
        self._nbuckets = int(nbuckets)
        self._buckets: list[list[Entry]] = [[] for _ in range(self._nbuckets)]
        #: Bitmask of non-empty buckets; lowest set bit = minimum bucket.
        self._mask = 0
        #: Bitmask of buckets appended to since their last sort.
        self._dirty = 0
        #: Bucket index of bucket 0, or None until the first push.
        self._base: int | None = None
        self._overflow: list[Entry] = []
        self._size = 0
        #: Pops since the last rebase, and the window's start time —
        #: together they estimate event density for the width adaptation.
        self._pops = 0
        self._floor_time = 0.0

    # -- core operations --------------------------------------------------
    def push(self, entry: Entry) -> None:
        self._size += 1
        idx = int(entry[0] * self._inv_width)
        base = self._base
        if base is None:
            self._base = base = idx
            self._floor_time = entry[0]
        rel = idx - base
        if rel < 0:
            rel = 0
        elif rel >= self._nbuckets:
            heappush(self._overflow, entry)
            return
        self._buckets[rel].append(entry)
        bit = 1 << rel
        self._mask |= bit
        self._dirty |= bit

    def first(self) -> Entry:
        """The minimum entry without removing it (IndexError when empty)."""
        mask = self._mask
        if not mask:
            self._rebase()  # raises IndexError when truly empty
            mask = self._mask
        bit = mask & -mask
        rel = bit.bit_length() - 1
        bucket = self._buckets[rel]
        if self._dirty & bit:
            bucket.sort(reverse=True)
            self._dirty &= ~bit
        return bucket[-1]

    def pop(self) -> Entry:
        """Remove and return the minimum entry (IndexError when empty)."""
        mask = self._mask
        if not mask:
            self._rebase()  # raises IndexError when truly empty
            mask = self._mask
        bit = mask & -mask
        bucket = self._buckets[bit.bit_length() - 1]
        if self._dirty & bit:
            bucket.sort(reverse=True)
            self._dirty &= ~bit
        entry = bucket.pop()
        if not bucket:
            self._mask = mask & ~bit
        self._size -= 1
        self._pops += 1
        return entry

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[Entry]:
        for bucket in self._buckets:
            yield from bucket
        yield from self._overflow

    # -- window management -------------------------------------------------
    def _rebase(self) -> None:
        """Slide the window onto the overflow heap and unpark the near end.

        Called only when every in-window bucket is empty.  The new window
        starts at the earliest parked entry.  Bucket width adapts toward
        ``_PER_BUCKET`` pops per bucket using the density observed over
        the window just drained; bucket count doubles (or halves) toward
        the parked population.  Only entries under the new horizon are
        unparked — the far future stays in the overflow heap, so each
        entry is touched at most once per window it actually enters.
        """
        overflow = self._overflow
        if not overflow:
            raise IndexError("empty calendar queue")
        lo = overflow[0][0]

        # Density-adaptive width: pops per sim-second over the drained
        # window, targeting _PER_BUCKET entries per bucket. Deterministic
        # (depends only on queue history), so replay-safe.
        elapsed = lo - self._floor_time
        if self._pops and elapsed > 0.0:
            width = _PER_BUCKET * elapsed / self._pops
            if width < _MIN_WIDTH:
                width = _MIN_WIDTH
            elif width > _MAX_WIDTH:
                width = _MAX_WIDTH
            self._inv_width = 1.0 / width

        n = self._nbuckets
        parked = len(overflow)
        if parked > 2 * n and n < _MAX_BUCKETS:
            n = n * 2
        elif parked < n // 8 and n > _MIN_BUCKETS:
            n = n // 2
        if n != self._nbuckets:
            self._nbuckets = n
            self._buckets = [[] for _ in range(n)]

        inv = self._inv_width
        base = int(lo * inv)
        self._base = base
        self._floor_time = lo
        self._pops = 0
        self._mask = 0
        self._dirty = 0
        horizon = base + n
        buckets = self._buckets
        while overflow and int(overflow[0][0] * inv) < horizon:
            entry = heappop(overflow)
            rel = int(entry[0] * inv) - base
            if rel < 0:
                rel = 0
            buckets[rel].append(entry)
            bit = 1 << rel
            self._mask |= bit
            self._dirty |= bit
