"""Event primitives for the discrete-event simulation kernel.

The kernel follows the classic generator-coroutine design (in the style of
SimPy, which is not available in this environment): simulation *processes*
are Python generators that ``yield`` :class:`Event` objects, and the
:class:`~repro.sim.environment.Environment` resumes them when those events
are processed.

Events move through three states:

``pending``
    created but not yet triggered; ``event.triggered`` is ``False``.
``triggered``
    a value (or exception) has been set and the event is scheduled in the
    environment's event queue.
``processed``
    the environment has popped the event and invoked all callbacks.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .environment import Environment
    from .process import Process

__all__ = [
    "PENDING",
    "Event",
    "Timeout",
    "Initialize",
    "ConditionValue",
    "AllOf",
    "Interrupt",
]


class _Pending:
    """Unique sentinel for "no value yet"."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<PENDING>"


#: Sentinel stored in :attr:`Event._value` until the event is triggered.
PENDING = _Pending()

# Scheduling priorities: urgent events (process initialization) run before
# normal events that were scheduled for the same simulation time.
URGENT = 0
NORMAL = 1


class Interrupt(Exception):
    """Raised inside a process when another process interrupts it.

    The interrupt ``cause`` is available as :attr:`cause`.
    """

    @property
    def cause(self) -> Any:
        return self.args[0]


class Event:
    """An event that may happen at some point in (virtual) time.

    Callbacks appended to :attr:`callbacks` are invoked with the event as
    their only argument once the event is processed.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused", "_cancelled")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        #: list of callables invoked on processing; ``None`` once processed.
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: bool = True
        self._defused: bool = False
        self._cancelled: bool = False

    # -- state ---------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """``True`` once a value or exception has been set."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """``True`` once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """``True`` if the event succeeded (only meaningful if triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value; raises if the event is not yet triggered."""
        if self._value is PENDING:
            raise AttributeError(f"value of {self!r} is not yet available")
        return self._value

    @property
    def defused(self) -> bool:
        """Whether a failure was marked as handled (suppresses crash)."""
        return self._defused

    @defused.setter
    def defused(self, value: bool) -> None:
        self._defused = bool(value)

    @property
    def cancelled(self) -> bool:
        """Whether the event was tombstoned via :meth:`cancel`."""
        return self._cancelled

    def cancel(self) -> None:
        """Lazily cancel a scheduled event (tombstone, not removal).

        The heap entry stays where it is; the environment discards it when
        it reaches the head of the queue instead of dispatching it. This
        makes cancelling a stale timer O(1) — the classic lazy-deletion
        trick for binary-heap schedulers.

        Only cancel events nothing else is waiting on (their callbacks
        will never run). Cancelling an already-processed event is a no-op.
        """
        if self.callbacks is not None:
            self._cancelled = True

    # -- triggering ----------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Set the event's value and schedule it."""
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.env.schedule(self, NORMAL)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Fail the event with *exception* and schedule it."""
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        self.env.schedule(self, NORMAL)
        return self

    def __repr__(self) -> str:
        state = (
            "processed"
            if self.processed
            else ("triggered" if self.triggered else "pending")
        )
        return f"<{type(self).__name__} ({state}) at {id(self):#x}>"


class Timeout(Event):
    """An event that fires after a fixed *delay* of simulation time."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        super().__init__(env)
        self.delay = delay
        self._ok = True
        self._value = value
        env.schedule(self, NORMAL, delay)


class Initialize(Event):
    """Internal event that starts a newly created process."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process") -> None:
        super().__init__(env)
        self._ok = True
        self._value = None
        self.callbacks.append(process._resume)
        env.schedule(self, URGENT)


class ConditionValue:
    """Result of an :class:`AllOf`: an ordered event → value mapping."""

    __slots__ = ("events",)

    def __init__(self) -> None:
        self.events: list[Event] = []

    def __getitem__(self, key: Event) -> Any:
        if key not in self.events:
            raise KeyError(str(key))
        return key._value

    def __contains__(self, key: Event) -> bool:
        return key in self.events

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ConditionValue):
            return self.todict() == other.todict()
        if isinstance(other, dict):
            return self.todict() == other
        return NotImplemented

    def __iter__(self):
        return iter(self.events)

    def keys(self):
        return iter(self.events)

    def values(self):
        return (e._value for e in self.events)

    def items(self):
        return ((e, e._value) for e in self.events)

    def todict(self) -> dict[Event, Any]:
        return {e: e._value for e in self.events}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ConditionValue {self.todict()}>"


class AllOf(Event):
    """Fires once all *events* have fired, with a :class:`ConditionValue`.

    The first failing sub-event fails it with that sub-event's exception.
    An empty *events* fires at once.
    """

    __slots__ = ("_events", "_count")

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env)
        self._events = list(events)
        self._count = 0

        for event in self._events:
            if event.env is not env:
                raise ValueError("events belong to different environments")

        if not self._events:
            self.succeed(ConditionValue())
            return

        for event in self._events:
            if event.callbacks is None:
                self._check(event)
            else:
                event.callbacks.append(self._check)

    def _populate_value(self, value: ConditionValue) -> None:
        for event in self._events:
            if isinstance(event, AllOf):
                event._populate_value(value)
            elif event not in value.events:
                value.events.append(event)

    def _check(self, event: Event) -> None:
        if self._value is not PENDING:
            return
        self._count += 1
        if not event._ok:
            # Propagate the first failure.
            event.defused = True
            self._detach()
            self.fail(event._value)
        elif self._count == len(self._events):
            # Every sub-event has been processed: nothing to detach from.
            value = ConditionValue()
            self._populate_value(value)
            self.succeed(value)

    def _detach(self) -> None:
        """Unsubscribe from sub-events that have not fired yet.

        Without this an AllOf failed by one sub-event leaves its
        ``_check`` hanging off every still-pending sub-event (a long
        timer, a pending token grant), pinning the whole condition graph
        until those eventually fire. The check is removed the way
        ``Process._detach_from_target`` does it.

        Behavior-neutral (a settled condition's ``_check`` returns
        immediately): detaching only saves memory and dispatch work.
        """
        check = self._check
        for ev in self._events:
            callbacks = ev.callbacks
            if callbacks is not None:
                try:
                    callbacks.remove(check)
                except ValueError:  # already fired, or never subscribed
                    pass
