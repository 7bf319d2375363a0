"""Per-layer host-time trace of one scenario run, recorded from outside.

The trace attaches to the program only through public seams and restores
every one of them when it ends:

* the kernel's dispatch hook (:func:`repro.sim.environment.set_profile_hook`,
  the seam :class:`repro.obs.profile.WallProfiler` uses), which times each
  callback and charges it to the layer of the process it resumes
  (:data:`LAYER_OF_PROCESS`; callbacks that are not a process go to
  ``sim``);
* public functions wrapped in the binding their callers resolve
  (:data:`SPANS`), each timed as a child span on the same stack, so a
  layer's self time is its spans' duration minus their children's.

The simulator is single-threaded, so a layer's busy time equals its self
time and nothing waits on the host. Self time is host time; nothing here
feeds back into the simulation, so a traced run must reproduce the
untraced summary byte for byte.
"""

from __future__ import annotations

import functools
import inspect
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Dict, Iterator, List, Tuple

from repro.cluster.apiserver import APIServer
from repro.cluster.etcd import Etcd
from repro.core import scheduler as core_scheduler
from repro.core import viewindex
from repro.gpu import device as gpu_device
from repro.gpu.backend import TokenBackend
from repro.obs import runtime as obs_runtime
from repro.obs.tracing import Tracer
from repro.sim import environment as sim_environment
from repro.sim.calqueue import CalendarQueue
from repro.sim.process import Process

from .metrics import LAYERS

__all__ = ["LAYER_OF_PROCESS", "SPANS", "LayerTrace", "traced"]

#: First ``:``-segment of ``Process.name`` -> layer. ``chaos`` is off the
#: hot path and not tabled; anything missing here is charged to
#: ``unmapped``, which the tests keep empty for every workload.
LAYER_OF_PROCESS = {
    # job bodies and the experiment drivers that submit and await them
    "workload": "workloads",
    "driver": "workloads",
    "wait_all": "workloads",
    "burst-starter": "workloads",
    "burst-submitter": "workloads",
    "token-backend": "gpu",
    "kubeshare-sched": "core",
    "kubeshare-devmgr": "core",
    "devmgr": "core",
    "informer": "cluster.api",
    "elector": "cluster.api",
    "default-scheduler": "cluster.scheduler",
    "kubelet": "cluster.node",
    "kubelet-hb": "cluster.node",
    "node-lifecycle": "cluster.node",
    "startpod": "cluster.node",
    "runc": "cluster.node",
    "container": "cluster.node",
    "teardown": "cluster.node",
    "stop_container": "cluster.node",
    "obs-sampler": "obs",
    "slo-evaluator": "obs",
    "chaos-engine": "chaos",
}

_OBS_CONTROL = {"current", "enabled", "enable", "disable", "install_from_env", "install_federation_from_env"}


def _obs_hooks() -> List[str]:
    """The hook surface instrumented modules call as ``obs.<hook>(...)``.

    Every hook returns at once when no hub is enabled, so on an obs-off
    workload this is what the obs layer costs.
    """
    return sorted(
        name
        for name, fn in vars(obs_runtime).items()
        if inspect.isfunction(fn)
        and fn.__module__ == obs_runtime.__name__
        and not name.startswith("_")
        and name not in _OBS_CONTROL
    )


#: (owner, attribute, layer, counter, error counter). Every call is timed
#: as a span of *layer*; *counter*, if any, counts calls that return and
#: sums their inclusive time, *error counter*, if any, counts calls that
#: raise. A layer of ``None`` counts calls without timing them
#: (``TokenBackend.acquire`` returns a generator, so the call itself does
#: none of the work).
SPANS: Tuple[tuple, ...] = (
    (sim_environment.Environment, "run", "sim", None, None),
    (CalendarQueue, "push", "sim", "sim.queue_pushes", None),
    (core_scheduler, "schedule_request", "core", "core.alg1", None),
    (core_scheduler, "build_device_views", "core", "core.views.rebuilds", None),
    (viewindex, "build_device_views", "core", "core.views.rebuilds", None),
    (gpu_device, "elastic_shares", "gpu", "gpu.elastic", None),
    (gpu_device, "elastic_shares_py", "gpu", "gpu.elastic", None),
    (TokenBackend, "acquire", None, "gpu.token.acquires", None),
    (TokenBackend, "release", None, "gpu.token.releases", None),
    *(
        (APIServer, verb, "cluster.api", "cluster.api.writes", "cluster.api.write_errors")
        for verb in ("create", "update", "patch", "delete", "bind")
    ),
    *((Etcd, op, "cluster.api", "cluster.etcd.commits", None) for op in ("put", "put_if", "delete")),
    (Tracer, "start", "obs", "obs.spans", None),
    (Tracer, "instant", "obs", "obs.spans", None),
    *((obs_runtime, hook, "obs", "obs.hooks", None) for hook in _obs_hooks()),
)


class LayerTrace:
    """Self time, dispatches and call counts per layer for one run."""

    def __init__(self) -> None:
        #: layer -> host seconds not covered by a child span.
        self.self_s: Dict[str, float] = defaultdict(float)
        #: layer -> kernel callbacks dispatched.
        self.dispatches: Counter = Counter()
        #: process-name prefix -> kernel callbacks dispatched.
        self.by_process: Counter = Counter()
        #: counter -> calls; counter -> inclusive host seconds.
        self.calls: Counter = Counter()
        self.call_s: Dict[str, float] = defaultdict(float)
        #: host seconds the trace spent on its own bookkeeping, measured
        #: and kept out of every layer's self time.
        self.overhead_s = 0.0
        # Child time accumulated by each open span; the bottom entry
        # collects top-level spans and is never popped.
        self._children: List[float] = [0.0]

    # -- the dispatch hook (set_profile_hook protocol) -----------------------
    def dispatch(self, event, callbacks) -> None:
        t_in = perf_counter()
        children = self._children
        covered = children[-1]
        try:
            for callback in callbacks:
                receiver = getattr(callback, "__self__", None)
                if isinstance(receiver, Process):
                    prefix = receiver.name.split(":", 1)[0]
                    self.by_process[prefix] += 1
                    layer = LAYER_OF_PROCESS.get(prefix, "unmapped")
                else:
                    layer = "sim"
                self.dispatches[layer] += 1
                self._span(layer, None, None, callback, (event,), {})
        finally:
            # What the loop spent outside its callbacks' spans is the
            # trace's own; without this it would read as kernel time.
            own = perf_counter() - t_in - (children[-1] - covered)
            children[-1] += own
            self.overhead_s += own

    # -- spans ---------------------------------------------------------------
    def _span(self, layer, counter, error_counter, fn, args, kwargs):
        t_in = perf_counter()
        nested_overhead = self.overhead_s
        children = self._children
        children.append(0.0)
        ok = False
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
            ok = True
            return result
        finally:
            t1 = perf_counter()
            dt = t1 - t0
            self.self_s[layer] += dt - children.pop()
            if ok and counter is not None:
                self.calls[counter] += 1
                self.call_s[counter] += dt - (self.overhead_s - nested_overhead)
            elif not ok and error_counter is not None:
                self.calls[error_counter] += 1
            own = (t0 - t_in) + (perf_counter() - t1)
            self.overhead_s += own
            children[-1] += dt + own

    def _wrap(self, fn, layer, counter, error_counter):
        if layer is None:
            calls = self.calls

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                calls[counter] += 1
                return fn(*args, **kwargs)

            return counted
        span = self._span

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            return span(layer, counter, error_counter, fn, args, kwargs)

        return timed

    def metrics(self, events: int, wall_s: float, untraced_wall_s: float, scale: float) -> Dict[str, float]:
        """The per-layer table of one traced run that took *wall_s*.

        *untraced_wall_s* is a paired untraced run's wall time; *scale*
        converts this run's host seconds to the seconds of both.
        Shares are of the time spent in spans, which excludes the trace's
        own measured bookkeeping. ``trace.attributed`` is the part of the
        run that named layers and that bookkeeping account for; the rest
        ran outside every span or in ``unmapped`` processes.
        """
        in_spans = sum(self.self_s.values())
        named = in_spans - self.self_s.get("unmapped", 0.0)
        calls = self.calls
        out: Dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_s.get(layer, 0.0) * scale
            out[f"{layer}.share"] = self.self_s.get(layer, 0.0) / in_spans
            out[f"{layer}.dispatches"] = self.dispatches[layer]
        out.update({
            "sim.events": events,
            "sim.queue_pushes": calls["sim.queue_pushes"],
            "sim.ns_per_event": 1e9 * scale * self.self_s.get("sim", 0.0) / events,
            "gpu.token.acquires": calls["gpu.token.acquires"],
            "gpu.token.releases": calls["gpu.token.releases"],
            "gpu.elastic.calls": calls["gpu.elastic"],
            "core.alg1.calls": calls["core.alg1"],
            "core.alg1.us_per_call": 1e6 * scale * self.call_s.get("core.alg1", 0.0) / max(calls["core.alg1"], 1),
            "core.views.rebuilds": calls["core.views.rebuilds"],
            "cluster.api.writes": calls["cluster.api.writes"],
            "cluster.api.write_errors": calls["cluster.api.write_errors"],
            "cluster.etcd.commits": calls["cluster.etcd.commits"],
            "cluster.node.heartbeats": self.by_process["kubelet-hb"],
            "obs.spans": calls["obs.spans"],
            "obs.hooks": calls["obs.hooks"],
            "trace.attributed": (named + self.overhead_s) * scale / wall_s,
            "trace.overhead_x": wall_s / untraced_wall_s,
        })
        return out


@contextmanager
def traced(trace: LayerTrace) -> Iterator[LayerTrace]:
    """Install *trace* on every seam for the duration of the block.

    Every original is restored in ``finally``, including after a partial
    install, and the dispatch hook is cleared.
    """
    installed = []
    try:
        for owner, attr, layer, counter, error_counter in SPANS:
            original = vars(owner)[attr]
            setattr(owner, attr, trace._wrap(original, layer, counter, error_counter))
            installed.append((owner, attr, original))
        sim_environment.set_profile_hook(trace)
        yield trace
    finally:
        sim_environment.set_profile_hook(None)
        for owner, attr, original in reversed(installed):
            setattr(owner, attr, original)
