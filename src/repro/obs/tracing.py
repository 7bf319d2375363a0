"""Virtual-time spans and Chrome trace-event export.

A :class:`Tracer` records :class:`Span` objects whose timestamps come
exclusively from ``sim.Environment.now`` — never the wall clock — so a
trace is a deterministic artifact of the simulation, byte-identical
across identical-seed runs.

Parenting is context-propagated: each simulated process (keyed by
``env.active_process``) carries a stack of open spans, and a new span
started inside that process becomes a child of the stack top unless an
explicit ``parent`` is given. Cross-process causality (the SharePod
journey: apiserver write → scheduler decision → DevMgr bind → kubelet
Allocate → container start → token grants → kernel bursts) is stitched
with a shared ``trace_id`` (the SharePod's ``namespace/name`` key).

Export is Chrome trace-event JSON (``ph: "X"`` duration events plus
``ph: "i"`` instants, microsecond timestamps), directly loadable in
Perfetto / ``chrome://tracing``.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

__all__ = ["Span", "Tracer"]

#: statuses a span can close with.
STATUS_OK = "ok"
STATUS_ERROR = "error"
STATUS_OPEN = "open"


@dataclass
class Span:
    """One timed operation in virtual time."""

    span_id: int
    name: str
    #: display track ("thread" in the Chrome trace): component identity,
    #: e.g. ``apiserver``, ``kubeshare-sched``, ``kubelet:node01``.
    track: str
    start: float
    parent_id: Optional[int] = None
    #: stitches spans of one logical story (SharePod key) across tracks.
    trace_id: Optional[str] = None
    end: Optional[float] = None
    status: str = STATUS_OPEN
    attrs: Dict[str, object] = field(default_factory=dict)
    #: zero-duration marker (rendered as a Chrome instant event).
    instant: bool = False

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start

    def to_dict(self) -> Dict[str, object]:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "trace_id": self.trace_id,
            "name": self.name,
            "track": self.track,
            "start": self.start,
            "end": self.end,
            "status": self.status,
            "attrs": dict(self.attrs),
            "instant": self.instant,
        }


class Tracer:
    """Records spans against a simulated clock.

    The tracer never yields, never sleeps, and never consumes randomness:
    recording a span is pure bookkeeping, so instrumented runs replay
    identically to uninstrumented ones.
    """

    def __init__(self, env, max_spans: int = 250_000) -> None:
        self.env = env
        self.max_spans = max_spans
        self.spans: List[Span] = []
        self.dropped = 0
        self._next_id = 1
        #: per-process stack of open spans (implicit parenting); a
        #: process has an entry only while it has an open span.
        self._stacks: Dict[object, List[Span]] = {}
        #: called once per span on its fresh ok/error close (never on the
        #: bulk ``close_open`` sweep) — the hub hangs latency histograms
        #: off this without touching any instrumentation site.
        self.on_end = None

    # -- recording ---------------------------------------------------------
    def _actor(self) -> object:
        proc = getattr(self.env, "active_process", None)
        return proc if proc is not None else "<root>"

    def start(
        self,
        name: str,
        track: str,
        parent: Optional[Span] = None,
        trace_id: Optional[str] = None,
        attrs: Optional[Dict[str, object]] = None,
        detached: bool = False,
    ) -> Span:
        """Open a span; it becomes the current span of this process.

        With ``detached=True`` the span neither inherits the current
        process's span as implicit parent nor joins its stack — used for
        long-lived story spans (SharePod journeys, leadership reigns)
        whose lifetime is not lexical.
        """
        actor = self._actor()
        stack = self._stacks.get(actor)
        if parent is None and not detached and stack:
            parent = stack[-1]
        if trace_id is None and parent is not None:
            trace_id = parent.trace_id
        span = Span(
            span_id=self._next_id,
            name=name,
            track=track,
            start=self.env.now,
            parent_id=parent.span_id if parent is not None else None,
            trace_id=trace_id,
            attrs=dict(attrs or {}),
        )
        self._next_id += 1
        if len(self.spans) < self.max_spans:
            self.spans.append(span)
        else:
            self.dropped += 1
        if not detached:
            self._stacks.setdefault(actor, []).append(span)
        return span

    def end(self, span: Span, status: str = STATUS_OK) -> Span:
        """Close a span (idempotent) and pop it off its process stack."""
        fresh = span.end is None
        if fresh:
            span.end = self.env.now
            span.status = status
        for actor, stack in self._stacks.items():
            if span in stack:
                stack.remove(span)
                if not stack:
                    del self._stacks[actor]
                break
        if fresh and self.on_end is not None:
            self.on_end(span)
        return span

    @contextmanager
    def span(
        self,
        name: str,
        track: str,
        parent: Optional[Span] = None,
        trace_id: Optional[str] = None,
        **attrs: object,
    ) -> Iterator[Span]:
        """Context manager: closes ``ok`` on exit, ``error`` on exception.

        Any exception — including ``GeneratorExit`` when the enclosing
        simulated process is killed mid-span — closes the span with error
        status instead of leaking it open.
        """
        span = self.start(name, track, parent=parent, trace_id=trace_id, attrs=attrs)
        try:
            yield span
        except BaseException:
            self.end(span, status=STATUS_ERROR)
            raise
        else:
            self.end(span, status=STATUS_OK)

    def instant(
        self,
        name: str,
        track: str,
        trace_id: Optional[str] = None,
        **attrs: object,
    ) -> Span:
        """Record a zero-duration marker (does not affect the span stack)."""
        stack = self._stacks.get(self._actor())
        parent = stack[-1] if stack else None
        if trace_id is None and parent is not None:
            trace_id = parent.trace_id
        span = Span(
            span_id=self._next_id,
            name=name,
            track=track,
            start=self.env.now,
            end=self.env.now,
            parent_id=parent.span_id if parent is not None else None,
            trace_id=trace_id,
            status=STATUS_OK,
            attrs=dict(attrs),
            instant=True,
        )
        self._next_id += 1
        if len(self.spans) < self.max_spans:
            self.spans.append(span)
        else:
            self.dropped += 1
        return span

    # -- views -------------------------------------------------------------
    def open_spans(self) -> List[Span]:
        return [s for s in self.spans if s.end is None]

    def close_open(self, status: str = STATUS_OPEN) -> int:
        """Close every still-open span at the current time (for export)."""
        closed = 0
        for span in self.spans:
            if span.end is None:
                span.end = self.env.now
                span.status = status
                closed += 1
        self._stacks.clear()
        return closed

    def for_trace(self, trace_id: str) -> List[Span]:
        return [s for s in self.spans if s.trace_id == trace_id]

    def to_dicts(self) -> List[Dict[str, object]]:
        return [s.to_dict() for s in self.spans]


# -- Chrome trace-event export --------------------------------------------
def chrome_trace_events(spans: List[Dict[str, object]]) -> List[Dict[str, object]]:
    """Convert span dicts to Chrome trace-event JSON objects.

    Timestamps are virtual seconds scaled to microseconds; each track
    becomes a named "thread" of a single process so Perfetto renders one
    swimlane per component.
    """
    tids: Dict[str, int] = {}
    events: List[Dict[str, object]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "tid": 0,
            "args": {"name": "repro (virtual time)"},
        }
    ]
    for span in spans:
        track = str(span["track"])
        if track not in tids:
            tids[track] = len(tids) + 1
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": 1,
                    "tid": tids[track],
                    "args": {"name": track},
                }
            )
    for span in spans:
        tid = tids[str(span["track"])]
        ts = round(float(span["start"]) * 1e6, 3)
        args = dict(span["attrs"])  # type: ignore[arg-type]
        args["status"] = span["status"]
        if span.get("trace_id"):
            args["trace_id"] = span["trace_id"]
        if span.get("instant"):
            events.append(
                {
                    "name": str(span["name"]),
                    "ph": "i",
                    "s": "t",
                    "pid": 1,
                    "tid": tid,
                    "ts": ts,
                    "args": args,
                }
            )
        else:
            end = span["end"] if span["end"] is not None else span["start"]
            dur = round((float(end) - float(span["start"])) * 1e6, 3)
            events.append(
                {
                    "name": str(span["name"]),
                    "ph": "X",
                    "pid": 1,
                    "tid": tid,
                    "ts": ts,
                    "dur": dur,
                    "args": args,
                }
            )
    return events


def chrome_trace_json(spans: List[Dict[str, object]]) -> str:
    return json.dumps(
        {"traceEvents": chrome_trace_events(spans), "displayTimeUnit": "ms"},
        indent=None,
        separators=(",", ":"),
    )
