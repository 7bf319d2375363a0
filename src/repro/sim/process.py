"""Simulation processes: generator coroutines driven by events."""

from __future__ import annotations

from types import GeneratorType
from typing import TYPE_CHECKING, Any, Generator, Optional

from .events import Event, Initialize, Interrupt, PENDING, URGENT

if TYPE_CHECKING:  # pragma: no cover
    from .environment import Environment

__all__ = ["Process", "ProcessGenerator"]

ProcessGenerator = Generator[Event, Any, Any]


class Process(Event):
    """A process wraps a generator and is itself an event.

    The process event triggers when the generator terminates (its value is
    the generator's return value) or raises (the process fails with that
    exception unless defused).

    Other processes can wait for it (``yield proc``) or interrupt it
    (:meth:`interrupt`). An exit nobody waits for is not an event: a
    process that returns or is killed with no callback attached is marked
    processed at once instead of being scheduled, so a later ``yield
    proc``, ``run(until=proc)`` or :class:`AllOf` sees it done and takes
    its value without waiting. A failure is always scheduled, so one that
    nothing defuses still stops :meth:`Environment.run`.
    """

    __slots__ = ("_generator", "_target", "name")

    def __init__(
        self,
        env: "Environment",
        generator: ProcessGenerator,
        name: Optional[str] = None,
    ) -> None:
        if not isinstance(generator, GeneratorType):
            raise ValueError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        self.name = name or generator.__name__
        #: The event the process is currently waiting for.
        self._target: Optional[Event] = Initialize(env, self)

    @property
    def target(self) -> Optional[Event]:
        """The event this process is currently waiting for (or ``None``)."""
        return self._target

    @property
    def is_alive(self) -> bool:
        """``True`` until the generator has terminated."""
        return self._value is PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Interrupt this process, raising :class:`Interrupt` inside it."""
        if self._value is not PENDING:
            raise RuntimeError(f"{self.name} has terminated and cannot be interrupted")
        if self is self.env.active_process:
            raise RuntimeError("a process is not allowed to interrupt itself")

        interrupt_event = Event(self.env)
        interrupt_event._ok = False
        interrupt_event._value = Interrupt(cause)
        interrupt_event._defused = True

        self._detach_from_target()

        interrupt_event.callbacks = [self._resume]
        self.env.schedule(interrupt_event, URGENT)

    def kill(self) -> None:
        """Terminate this process immediately without raising inside it.

        The generator is closed (``finally`` blocks run synchronously, so
        cleanup still happens) and the process event succeeds with ``None``.
        Unlike :meth:`interrupt`, the process gets no chance to catch
        anything and cannot fail the simulation — this models hard external
        termination (a machine losing power) rather than a signal.
        """
        if self._value is not PENDING:
            return
        if self is self.env.active_process:
            raise RuntimeError("a process is not allowed to kill itself")

        self._detach_from_target()
        self._target = None
        self._generator.close()
        self._exit(None)

    def _exit(self, value: Any) -> None:
        """Succeed with *value*: dispatched to the waiters, if any; with
        none, processed now (an exit nobody awaits is not an event)."""
        self._ok = True
        self._value = value
        if self.callbacks:
            self.env.schedule(self)
        else:
            self.callbacks = None

    def _detach_from_target(self) -> None:
        """Unsubscribe from the event we were waiting for, so that its
        later processing does not resume us (again)."""
        target = self._target
        if target is None or target.callbacks is None:
            return
        try:
            target.callbacks.remove(self._resume)
        except ValueError:  # pragma: no cover - already detached
            pass
        if target._value is not PENDING and not target._ok:
            # The target already failed but has not been processed yet; we
            # were the waiter who would have handled (defused) it. Detaching
            # must not turn that pending failure into a simulation crash.
            target._defused = True

    # -- internal -------------------------------------------------------
    def _resume(self, event: Event) -> None:
        """Advance the generator with the outcome of *event*."""
        env = self.env
        env._active_proc = self

        while True:
            try:
                if event._ok:
                    next_event = self._generator.send(event._value)
                else:
                    # Mark the failure as handled; the generator may
                    # re-raise it, in which case the process itself fails.
                    event._defused = True
                    exc = event._value
                    if isinstance(exc, BaseException):
                        next_event = self._generator.throw(exc)
                    else:  # pragma: no cover - defensive
                        next_event = self._generator.throw(RuntimeError(exc))
            except StopIteration as stop:
                self._target = None
                self._exit(stop.value)
                break
            except BaseException as err:
                self._target = None
                self._ok = False
                self._value = err
                env.schedule(self)
                break

            if not isinstance(next_event, Event):
                self._target = None
                bad = RuntimeError(
                    f"process {self.name!r} yielded a non-event: {next_event!r}"
                )
                self._ok = False
                self._value = bad
                env.schedule(self)
                break

            if next_event.callbacks is not None:
                # Pending or triggered-but-unprocessed: wait for it.
                next_event.callbacks.append(self._resume)
                self._target = next_event
                break

            # Already processed: continue immediately with its outcome.
            event = next_event

        env._active_proc = None

    def __repr__(self) -> str:
        return f"<Process {self.name!r} ({'alive' if self.is_alive else 'dead'})>"
