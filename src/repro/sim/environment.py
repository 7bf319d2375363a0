"""The simulation environment: virtual clock and event queue."""

from __future__ import annotations

from itertools import count
from typing import Any, Iterable, Optional, Union

from .calqueue import CalendarQueue
from .events import (
    AllOf,
    AnyOf,
    Event,
    NORMAL,
    PENDING,
    StopProcess,
    Timeout,
)
from .process import Process, ProcessGenerator

__all__ = ["Environment", "EmptySchedule", "set_profile_hook"]

#: Optional profiler around callback dispatch (see repro.obs.profile).
#: Module-level rather than per-instance: Environment has __slots__ and
#: the disabled cost must stay one global read per step. The hook sees
#: exactly the (event, callbacks) pair step() would have dispatched and
#: must preserve its semantics (order, exception propagation).
_PROFILE = None


def set_profile_hook(hook) -> None:
    """Install (or with ``None`` remove) the step-dispatch profiler."""
    global _PROFILE
    _PROFILE = hook


class EmptySchedule(Exception):
    """Raised by :meth:`Environment.step` when no events remain."""


class _StopSimulation(Exception):
    """Internal: raised to stop :meth:`Environment.run` at ``until``."""

    @classmethod
    def callback(cls, event: Event) -> None:
        if event._ok:
            raise cls(event._value)
        raise event._value


class _StopSentinel(Event):
    """Module-level no-op stop marker for ``run(until=<float>)``.

    A single shared instance is pushed into the queue at the stop time —
    no per-call :class:`Event` or callback-list allocation. It carries no
    state and is recognized by identity in :meth:`Environment.step`, so
    one instance can sit in any number of queues (or several times in the
    same queue, for nested ``run`` calls) simultaneously.
    """

    __slots__ = ()

    def __init__(self) -> None:
        self.env = None  # type: ignore[assignment] - never scheduled via an env
        self.callbacks = None  # never dispatched
        self._value = None
        self._ok = True
        self._defused = False
        self._cancelled = False


_STOP = _StopSentinel()

Until = Union[None, float, int, Event]


def _pop_live(pop) -> tuple:
    """Pop entries off a queue until one is live; return that entry.

    The single place lazy cancellation is resolved: both
    :meth:`~Environment.step` and :meth:`~Environment.peek` share this
    drain, so the two call sites cannot drift. Tombstoned entries are
    discarded without dispatching callbacks, without advancing the
    clock, and without counting toward ``events_processed``; their
    callback list is dropped so a cancelled event can never be
    double-processed.

    *pop* is the backend's bound ``pop`` — passed in (rather than looked
    up here) so the per-event hot path costs exactly one extra frame.
    Raises :class:`IndexError` when the queue is exhausted.
    """
    while True:
        entry = pop()
        event = entry[3]
        if not event._cancelled:
            return entry
        event.callbacks = None


class Environment:
    """Execution environment for a discrete-event simulation.

    Time is a float in arbitrary units (we use **seconds** throughout this
    project). Events are processed in ``(time, priority, insertion order)``
    order, which makes runs fully deterministic.

    Cancelled (tombstoned) events — see :meth:`Event.cancel` — are
    skipped by :meth:`step` without dispatching callbacks and without
    counting toward :attr:`events_processed`; :meth:`peek` discards them
    from the head of the queue, so both agree on the next *live* event.
    """

    __slots__ = (
        "_now",
        "_queue",
        "_qpush",
        "_qpop",
        "_eid",
        "_active_proc",
        "_events_processed",
    )

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now: float = float(initial_time)
        # The push/pop bound methods are cached: schedule() and step()
        # run once per event, and the two attribute hops are measurable
        # there.
        self._queue = CalendarQueue()
        self._qpush = self._queue.push
        self._qpop = self._queue.pop
        self._eid = count()
        self._active_proc: Optional[Process] = None
        self._events_processed: int = 0

    # -- introspection ---------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total events dispatched by :meth:`step` (observability gauge)."""
        return self._events_processed

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed (``None`` between steps)."""
        return self._active_proc

    # -- factories --------------------------------------------------------
    def process(self, generator: ProcessGenerator, name: Optional[str] = None) -> Process:
        """Start a new process from *generator*."""
        return Process(self, generator, name=name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that fires after *delay* time units."""
        return Timeout(self, delay, value)

    def event(self) -> Event:
        """A fresh, untriggered event."""
        return Event(self)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def exit(self, value: Any = None) -> None:
        """Exit the active process, returning *value* (legacy style)."""
        raise StopProcess(value)

    # -- scheduling --------------------------------------------------------
    def schedule(self, event: Event, priority: int = NORMAL, delay: float = 0.0) -> None:
        """Enqueue *event* to be processed after *delay*."""
        self._qpush((self._now + delay, priority, next(self._eid), event))

    def peek(self) -> float:
        """Time of the next live scheduled event, or ``inf`` if none.

        Shares the tombstone drain with :meth:`step` via ``_pop_live``;
        the live head is pushed straight back (same entry tuple, so the
        same ``(time, priority, seq)`` slot) to keep this non-destructive.
        """
        try:
            entry = _pop_live(self._qpop)
        except IndexError:
            return float("inf")
        self._qpush(entry)
        return entry[0]

    def step(self) -> None:  # hot-path
        """Process the next event; raises :class:`EmptySchedule` if none."""
        try:
            entry = _pop_live(self._qpop)
        except IndexError:
            raise EmptySchedule() from None
        now = entry[0]
        event = entry[3]

        self._now = now
        if event is _STOP:
            self._events_processed += 1
            raise _StopSimulation(None)

        self._events_processed += 1
        callbacks, event.callbacks = event.callbacks, None
        if callbacks is None:  # pragma: no cover - double-processing guard
            return
        prof = _PROFILE
        if prof is None:
            for callback in callbacks:
                callback(event)
        else:
            prof.dispatch(event, callbacks)

        if not event._ok and not event._defused:
            # An unhandled failure crashes the simulation, exactly like an
            # uncaught exception would crash a program.
            exc = event._value
            if isinstance(exc, BaseException):
                raise exc
            raise RuntimeError(exc)  # pragma: no cover - defensive

    def run(self, until: Until = None) -> Any:
        """Run until the queue is empty, time *until*, or event *until*.

        Returns the value of the *until* event when one is given.
        """
        if until is not None:
            if isinstance(until, Event):
                if until.callbacks is None:
                    return until._value if until._value is not PENDING else None
                until.callbacks.append(_StopSimulation.callback)
            else:
                at = float(until)
                if at < self._now:
                    raise ValueError(
                        f"until ({at}) must not be before the current time ({self._now})"
                    )
                # Priority below NORMAL so events at exactly `at` still run.
                self._qpush((at, NORMAL + 1, next(self._eid), _STOP))

        try:
            while True:
                self.step()
        except _StopSimulation as stop:
            return stop.args[0]
        except EmptySchedule:
            if isinstance(until, Event) and until._value is PENDING:
                raise RuntimeError(
                    f"no scheduled events left but {until!r} was not triggered"
                ) from None
        return None
