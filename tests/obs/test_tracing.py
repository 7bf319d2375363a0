"""Span nesting, error propagation, and Chrome trace export.

The satellite case: spans open across an apiserver outage must close
with ``error`` status instead of leaking open when the operation inside
them blows up (including the enclosing process being killed mid-span).
"""

import json

import pytest

from repro.cluster.apiserver import APIServer, ServiceUnavailable
from repro.obs.tracing import Tracer, chrome_trace_events, chrome_trace_json
from repro.sim import Environment


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def tracer(env):
    return Tracer(env)


class TestNesting:
    def test_child_inherits_parent_and_trace_id(self, env, tracer):
        def proc():
            with tracer.span("outer", "ctl", trace_id="default/sp0") as outer:
                yield env.timeout(1)
                with tracer.span("inner", "ctl") as inner:
                    yield env.timeout(1)
            assert inner.parent_id == outer.span_id
            assert inner.trace_id == "default/sp0"

        p = env.process(proc())
        env.run(until=p)
        outer, inner = tracer.spans
        assert outer.status == "ok" and inner.status == "ok"
        assert (outer.start, outer.end) == (0.0, 2.0)
        assert (inner.start, inner.end) == (1.0, 2.0)

    def test_sibling_processes_do_not_cross_parent(self, env, tracer):
        def worker(name):
            with tracer.span(name, "ctl"):
                yield env.timeout(2)

        env.process(worker("a"))
        env.process(worker("b"))
        env.run(until=3)
        a, b = tracer.spans
        assert a.parent_id is None and b.parent_id is None

    def test_detached_span_neither_parents_nor_joins_stack(self, env, tracer):
        def proc():
            root = tracer.start("journey", "sharepod:sp0", detached=True)
            with tracer.span("work", "ctl") as work:
                yield env.timeout(1)
            assert root.parent_id is None
            assert work.parent_id is None  # detached span never on the stack
            tracer.end(root)

        p = env.process(proc())
        env.run(until=p)

    def test_instant_parents_to_stack_top(self, env, tracer):
        def proc():
            with tracer.span("outer", "ctl", trace_id="default/sp0") as outer:
                yield env.timeout(1)
                mark = tracer.instant("bind", "ctl")
            assert mark.parent_id == outer.span_id
            assert mark.trace_id == "default/sp0"
            assert mark.instant and mark.duration == 0.0

        p = env.process(proc())
        env.run(until=p)

    def test_stack_map_holds_only_processes_with_open_spans(self, env, tracer):
        """Processes that recorded only instants or detached spans leave
        no stack behind, and a stack goes when its last span closes."""

        def marker(i):
            tracer.instant("mark", "ctl")
            yield env.timeout(i)
            tracer.end(tracer.start("story", "ctl", detached=True))

        def nested():
            with tracer.span("outer", "ctl"):
                with tracer.span("inner", "ctl"):
                    yield env.timeout(1)
                assert len(tracer._stacks) == 1
            assert tracer._stacks == {}
            yield env.timeout(1)

        for i in range(5):
            env.process(marker(i))
        env.process(nested())
        env.run()
        assert len(tracer.spans) == 12
        assert tracer._stacks == {}

    def test_max_spans_drops_not_grows(self, env):
        small = Tracer(env, max_spans=2)
        for i in range(5):
            small.end(small.start(f"s{i}", "t"))
        assert len(small.spans) == 2
        assert small.dropped == 3


class TestErrorClose:
    def test_exception_closes_error_and_reraises(self, env, tracer):
        def proc():
            try:
                with tracer.span("doomed", "ctl"):
                    yield env.timeout(1)
                    raise RuntimeError("boom")
            except RuntimeError:
                pass
            yield env.timeout(0)

        p = env.process(proc())
        env.run(until=p)
        [span] = tracer.spans
        assert span.status == "error"
        assert span.end == 1.0
        assert tracer.open_spans() == []

    def test_apiserver_outage_closes_span_with_error(self, env, tracer):
        api = APIServer(env)
        api.set_outage(10.0)

        def controller():
            try:
                with tracer.span("reconcile", "devmgr", key="default/sp0"):
                    yield env.timeout(1)
                    api.list("Pod")  # 503: inside the outage window
            except ServiceUnavailable:
                pass
            yield env.timeout(0)

        p = env.process(controller())
        env.run(until=p)
        [span] = tracer.spans
        assert span.status == "error"
        assert span.end is not None
        assert tracer.open_spans() == []

    def test_killed_process_does_not_leak_span(self, env, tracer):
        # A controller replica crashed mid-reconcile: the span must not
        # stay open forever on a dead process's stack.
        def controller():
            from repro.sim import Interrupt

            try:
                with tracer.span("reconcile", "devmgr"):
                    yield env.timeout(100)
            except Interrupt:
                pass

        proc = env.process(controller())

        def chaos():
            yield env.timeout(2)
            proc.interrupt("replica crashed")

        env.process(chaos())
        env.run(until=5)
        [span] = tracer.spans
        assert span.end == 2.0
        assert span.status == "error"
        assert tracer.open_spans() == []

    def test_close_open_flushes_remaining(self, env, tracer):
        root = tracer.start("journey", "sharepod:sp0", detached=True)
        assert tracer.open_spans() == [root]
        assert tracer.close_open() == 1
        assert root.status == "open"
        assert tracer.open_spans() == []


class TestChromeExport:
    def test_export_structure(self, env, tracer):
        def proc():
            with tracer.span("outer", "ctl", trace_id="default/sp0"):
                yield env.timeout(1.5)
                tracer.instant("bind", "apiserver")

        p = env.process(proc())
        env.run(until=p)
        events = chrome_trace_events(tracer.to_dicts())
        meta = [e for e in events if e["ph"] == "M"]
        # process_name + one thread_name per track.
        assert {m["args"]["name"] for m in meta} == {
            "repro (virtual time)", "ctl", "apiserver",
        }
        [dur] = [e for e in events if e["ph"] == "X"]
        assert dur["ts"] == 0.0 and dur["dur"] == 1.5e6  # seconds → µs
        assert dur["args"]["trace_id"] == "default/sp0"
        [inst] = [e for e in events if e["ph"] == "i"]
        assert inst["ts"] == 1.5e6

    def test_json_round_trips(self, env, tracer):
        tracer.end(tracer.start("s", "t"))
        doc = json.loads(chrome_trace_json(tracer.to_dicts()))
        assert doc["displayTimeUnit"] == "ms"
        assert any(e.get("ph") == "X" for e in doc["traceEvents"])
