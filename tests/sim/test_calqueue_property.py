"""Property tests: the calendar queue is observationally identical to the
reference heap.

:class:`repro.sim.calqueue.CalendarQueue` promises the exact ``(time,
priority, seq)`` pop order of :class:`HeapQueue`, the oracle, for *any*
interleaving of pushes and pops. Hypothesis drives both queues through
adversarial sequences covering the cases where the bucketed design could
plausibly diverge:

* same-tick ties (entries at the same time, ordered by priority then
  sequence number inside one bucket's lazy sort),
* far-future entries that park in the overflow heap and must surface
  through one or more window rebases,
* below-window pushes right after a rebase (the clamp-into-bucket-0
  boundary case),
* cancel/reschedule via tombstones drained by the environment's shared
  ``_pop_live`` helper, exactly as the kernel does it.
"""

from itertools import count

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.calqueue import CalendarQueue, HeapQueue
from repro.sim.environment import _pop_live

# Times mix a coarse grid (forcing same-tick collisions), a dense near
# range, and a far range that lands well past a 64-bucket x 0.05s window
# so entries park in the overflow heap and resurface via rebases.
_TIMES = st.one_of(
    st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0, 5.0]),
    st.floats(min_value=0.0, max_value=40.0, allow_nan=False, allow_infinity=False),
    st.floats(min_value=500.0, max_value=1e6, allow_nan=False, allow_infinity=False),
)
_PRIORITIES = st.integers(min_value=0, max_value=2)

_PUSH_POP_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("push"), _TIMES, _PRIORITIES),
        st.tuples(st.just("pop")),
    ),
    max_size=300,
)


def _small_calendar() -> CalendarQueue:
    # A deliberately tiny window (64 buckets x 0.05s = 3.2s) so the far
    # time range overflows and mid-size runs trigger several rebases and
    # the adaptive width/bucket-count resizing.
    return CalendarQueue(width=0.05, nbuckets=64)


class TestPopOrderEquivalence:
    @given(ops=_PUSH_POP_OPS)
    @settings(max_examples=150, deadline=None)
    def test_interleaved_push_pop_identical(self, ops):
        heap, cal = HeapQueue(), _small_calendar()
        seq = count()
        now = 0.0  # pushes are now-relative, like Environment.schedule
        for op in ops:
            if op[0] == "push":
                entry = (now + op[1], op[2], next(seq), None)
                heap.push(entry)
                cal.push(entry)
            else:
                assert len(heap) == len(cal)
                if not len(heap):
                    continue
                a, b = heap.pop(), cal.pop()
                assert a == b
                now = a[0]
        while len(heap):
            assert heap.pop() == cal.pop()
        assert len(cal) == 0

    @given(
        times=st.lists(_TIMES, min_size=1, max_size=200),
        priorities=st.lists(_PRIORITIES, min_size=1, max_size=200),
    )
    @settings(max_examples=150, deadline=None)
    def test_bulk_load_drains_in_sorted_order(self, times, priorities):
        # Absolute (not now-relative) times: pushes may land below the
        # window after a mid-drain rebase, hitting the bucket-0 clamp.
        cal = _small_calendar()
        entries = [
            (t, priorities[i % len(priorities)], i, None)
            for i, t in enumerate(times)
        ]
        for e in entries:
            cal.push(e)
        assert [cal.pop() for _ in entries] == sorted(entries)


class _Ev:
    """Just enough of an Event for the ``_pop_live`` tombstone drain."""

    __slots__ = ("callbacks", "_cancelled")

    def __init__(self) -> None:
        self.callbacks = []
        self._cancelled = False


_KERNEL_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), _TIMES, _PRIORITIES),
        st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=10**6)),
        st.tuples(
            st.just("reschedule"),
            st.integers(min_value=0, max_value=10**6),
            _TIMES,
            _PRIORITIES,
        ),
    ),
    max_size=200,
)


class TestKernelTombstoneEquivalence:
    @given(ops=_KERNEL_OPS)
    @settings(max_examples=150, deadline=None)
    def test_cancel_reschedule_pop_live_identical(self, ops):
        """Drive both backends through the environment's actual drain.

        Cancellation is lazy — a tombstoned event flows through either
        backend and is discarded by ``_pop_live`` — and a reschedule is
        cancel + fresh entry with a new sequence number, exactly what
        ``Timeout``/``Process`` rescheduling does. The *live* pop
        sequences must match entry for entry.
        """
        heap, cal = HeapQueue(), _small_calendar()
        seq = count()
        pending = []  # events scheduled and not yet cancelled

        def schedule(t, prio):
            ev = _Ev()
            entry = (t, prio, next(seq), ev)
            heap.push(entry)
            cal.push(entry)
            pending.append((t, prio, ev))

        for op in ops:
            if op[0] == "schedule":
                schedule(op[1], op[2])
            elif op[0] == "cancel" and pending:
                _, _, ev = pending.pop(op[1] % len(pending))
                ev._cancelled = True
            elif op[0] == "reschedule" and pending:
                t, prio, ev = pending.pop(op[1] % len(pending))
                ev._cancelled = True
                schedule(t + 1.0, prio)

        while True:
            try:
                a = _pop_live(heap.pop)
            except IndexError:
                a = None
            try:
                b = _pop_live(cal.pop)
            except IndexError:
                b = None
            assert a == b
            if a is None:
                break


class TestBoundaryRegressions:
    """Deterministic witnesses for the docstring's boundary cases."""

    def test_same_tick_priority_ties(self):
        cal = _small_calendar()
        entries = [(5.0, p, s, None) for s, p in enumerate([2, 0, 1, 0, 2, 1])]
        for e in entries:
            cal.push(e)
        # One bucket, one lazy sort: priority breaks the time tie, then
        # the sequence number breaks the priority tie.
        assert [cal.pop() for _ in entries] == sorted(entries)

    def test_far_future_survives_multiple_rebases(self):
        cal = _small_calendar()
        far = (9_999.0, 0, 0, None)
        cal.push(far)
        near = [(float(i), 0, i + 1, None) for i in range(1, 40)]
        for e in near:
            cal.push(e)
        drained = [cal.pop() for _ in range(len(near) + 1)]
        assert drained == sorted(near) + [far]

    def test_below_window_push_after_rebase(self):
        cal = _small_calendar()
        cal.push((100.0, 0, 0, None))
        assert cal.pop()[0] == 100.0  # window now starts around t=100
        late = (1.0, 0, 1, None)  # maps below the base: bucket-0 clamp
        ahead = (100.5, 0, 2, None)
        cal.push(ahead)
        cal.push(late)
        assert cal.pop() == late
        assert cal.pop() == ahead
