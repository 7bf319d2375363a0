"""Continuous wall-clock profiler for the simulation kernel.

The profiler hooks the single dispatch point every simulated action
funnels through — ``Environment.step`` — via
:func:`repro.sim.environment.set_profile_hook`, and times each callback
with the host's monotonic clock. Attribution is two-level:

* **actor**: callbacks are mostly the bound ``_resume`` of a
  :class:`~repro.sim.process.Process`; its ``name`` (``"kubeshare-sched:
  worker0"``, ``"workload:sp3"``, ``"devmgr:node-watch"``) names the
  actor, and its first ``:``-segment names the subsystem. A timer
  callback bound to a component, directly or through
  :func:`functools.partial` (``TokenBackend._handoff``,
  ``VGPUDeviceLibrary._idle_fire``), is charged to the component's class,
  with the method as the actor. Only the kernel's own callbacks (condition
  checks, the stop marker) and unbound functions land in ``kernel``;
* **operation**: the actor's open span stack in the hub's tracer
  (``reconcile``, ``token.wait``, …) extends the frame stack, so the
  flamegraph shows *what* the actor was doing, not just who it was.

Output is the collapsed-stack ("folded") format —
``frame;frame;frame <count>`` with integer microsecond counts — which
speedscope and flamegraph.pl both import directly, plus per-subsystem
totals that ``python -m repro.obs profile`` prints as a table.

Unlike every other obs instrument, the measurements here are **host
time** and therefore non-deterministic run to run. The profiler is kept
strictly out of :meth:`ObsHub.snapshot`; a run attaches
:meth:`WallProfiler.to_dict` to the artifact under ``profile``, which
:func:`repro.obs.artifact.export_all` writes out as a ``.folded`` file,
so the byte-identical snapshot contract is untouched. The *schedule* is
also untouched: callbacks run in exactly the original order with
exceptions propagating unchanged, and nothing here feeds back into the
simulation.
"""

from __future__ import annotations

from functools import partial
from time import perf_counter
from typing import Dict, List, Tuple

from .. import sim

__all__ = ["WallProfiler"]

#: module prefix of the kernel's own classes (``AllOf``, the stop marker).
_KERNEL_MODULES = sim.__name__ + "."

#: keep folded stacks readable: at most this many span frames per stack.
_MAX_SPAN_FRAMES = 6


def _clean(frame: str) -> str:
    """Folded format delimiters are ``;`` (frames) and the last space
    (count) — strip both from frame names."""
    return frame.replace(";", ":").replace(" ", "_") or "<unnamed>"


class WallProfiler:
    """Aggregating wall-clock profiler around ``Environment.step``."""

    def __init__(self, env, tracer=None) -> None:
        self.env = env
        self.tracer = tracer
        #: frame tuple -> accumulated host seconds.
        self.samples: Dict[Tuple[str, ...], float] = {}
        self.total_seconds = 0.0
        self.dispatches = 0
        self.installed = False

    # -- install -----------------------------------------------------------
    def install(self) -> "WallProfiler":
        from ..sim import environment as _env_mod

        _env_mod.set_profile_hook(self)
        self.installed = True
        return self

    def uninstall(self) -> None:
        from ..sim import environment as _env_mod

        if self.installed:
            _env_mod.set_profile_hook(None)
            self.installed = False

    # -- hot path ----------------------------------------------------------
    def dispatch(self, event, callbacks) -> None:
        """Run ``Environment.step``'s callback loop under timing.

        Semantics are identical to the uninstrumented loop: callbacks run
        in order and exceptions propagate; the sample for a raising
        callback is still recorded on the way out.
        """
        self.dispatches += 1
        for callback in callbacks:
            t0 = perf_counter()  # noqa: RPR001 - wall-clock profiler measures host time by design
            try:
                callback(event)
            finally:
                dt = perf_counter() - t0  # noqa: RPR001 - wall-clock profiler measures host time by design
                frames = self._frames(callback)
                self.samples[frames] = self.samples.get(frames, 0.0) + dt
                self.total_seconds += dt

    def _frames(self, callback) -> Tuple[str, ...]:
        func = callback
        while isinstance(func, partial):
            func = func.func
        receiver = getattr(func, "__self__", None)
        if isinstance(receiver, sim.Process):
            name = receiver.name or "<anonymous>"
            frames: List[str] = [_clean(name.split(":", 1)[0]), _clean(name)]
            if self.tracer is not None:
                stack = self.tracer._stacks.get(receiver)
                if stack:
                    frames.extend(
                        _clean(span.name) for span in stack[-_MAX_SPAN_FRAMES:]
                    )
            return tuple(frames)
        if receiver is not None:
            owner = receiver if isinstance(receiver, type) else type(receiver)
            if owner.__module__.startswith(_KERNEL_MODULES):
                return ("kernel", _clean(owner.__name__))
            return (_clean(owner.__name__), _clean(func.__name__))
        return ("kernel", _clean(getattr(func, "__qualname__", "<callback>")))

    # -- views -------------------------------------------------------------
    def attributed_fraction(self) -> float:
        """Fraction of measured time attributed to a named subsystem
        (i.e. not the generic ``kernel`` bucket)."""
        if self.total_seconds <= 0:
            return 1.0
        named = sum(
            secs for frames, secs in self.samples.items() if frames[0] != "kernel"
        )
        return named / self.total_seconds

    def by_subsystem(self) -> List[Tuple[str, float]]:
        agg: Dict[str, float] = {}
        for frames, secs in self.samples.items():
            agg[frames[0]] = agg.get(frames[0], 0.0) + secs
        return sorted(agg.items(), key=lambda kv: (-kv[1], kv[0]))

    def folded_lines(self) -> List[str]:
        """Collapsed-stack lines (integer microsecond counts); zero-count
        stacks are dropped per the format."""
        lines = []
        for frames in sorted(self.samples):
            micros = int(round(self.samples[frames] * 1e6))
            if micros > 0:
                lines.append(";".join(frames) + f" {micros}")
        return lines

    def to_dict(self) -> Dict[str, object]:
        return {
            "total_seconds": self.total_seconds,
            "dispatches": self.dispatches,
            "attributed_fraction": self.attributed_fraction(),
            "by_subsystem": [
                {"subsystem": name, "seconds": secs}
                for name, secs in self.by_subsystem()
            ],
            "folded": self.folded_lines(),
        }
