"""Unit tests for the API server (CRUD, optimistic concurrency, watches)."""
# repro-lint: disable=RPR004 - update/Conflict semantics are the test subject

import pytest

from repro.cluster.apiserver import (
    AlreadyExists,
    APIServer,
    Conflict,
    NotFound,
    UnknownKind,
    translate_event,
)
from repro.cluster.etcd import WatchEventType
from repro.cluster.objects import LabelSelector, ObjectMeta, Pod, PodPhase
from repro.sim import Environment


@pytest.fixture
def api():
    return APIServer(Environment())


def make_pod(name, labels=None, namespace="default"):
    return Pod(metadata=ObjectMeta(name=name, namespace=namespace, labels=labels or {}))


class TestCrud:
    def test_create_returns_stored_copy_with_rv(self, api):
        stored = api.create(make_pod("p1"))
        assert stored.metadata.resource_version > 0
        assert stored.metadata.creation_time == 0.0

    def test_create_duplicate_raises(self, api):
        api.create(make_pod("p1"))
        with pytest.raises(AlreadyExists):
            api.create(make_pod("p1"))

    def test_reads_share_the_stored_object(self, api):
        stream = api.watch("Pod")
        stored = api.create(make_pod("p1"))
        assert api.get("Pod", "p1") is stored
        assert api.list("Pod")[0] is stored
        assert api.delete("Pod", "p1") is stored
        # Both watch events, the PUT and the DELETE, deliver it too.
        delivered = [translate_event(ev) for ev in stream.events.items]
        assert [etype for etype, _ in delivered] == [
            WatchEventType.PUT,
            WatchEventType.DELETE,
        ]
        assert all(obj is stored for _, obj in delivered)

    def test_caller_mutation_after_write_leaves_store_unchanged(self, api):
        pod = make_pod("p1", labels={"k": "v"})
        api.create(pod)
        pod.metadata.labels["k"] = "after-create"
        assert api.get("Pod", "p1").metadata.labels["k"] == "v"
        obj = api.get("Pod", "p1").clone()
        obj.metadata.labels["k"] = "updated"
        api.update(obj)
        obj.metadata.labels["k"] = "after-update"
        assert api.get("Pod", "p1").metadata.labels["k"] == "updated"

    def test_get_missing_returns_none(self, api):
        assert api.get("Pod", "ghost") is None

    def test_unknown_kind_rejected(self, api):
        with pytest.raises(UnknownKind):
            api.get("Widget", "w")

    def test_register_crd_enables_kind(self, api):
        api.register_crd("Widget")

        class Widget:
            kind = "Widget"

            def __init__(self, name):
                self.metadata = ObjectMeta(name=name)

        api.create(Widget("w1"))
        assert api.get("Widget", "w1") is not None

    def test_list_filters_namespace_and_selector(self, api):
        api.create(make_pod("a", labels={"app": "x"}))
        api.create(make_pod("b", labels={"app": "y"}))
        api.create(make_pod("c", labels={"app": "x"}, namespace="other"))
        assert {p.name for p in api.list("Pod")} == {"a", "b", "c"}
        assert {p.name for p in api.list("Pod", namespace="default")} == {"a", "b"}
        sel = LabelSelector({"app": "x"})
        assert {p.name for p in api.list("Pod", selector=sel)} == {"a", "c"}

    def test_update_bumps_resource_version(self, api):
        api.create(make_pod("p1"))
        obj = api.get("Pod", "p1").clone()
        obj.status.phase = PodPhase.RUNNING
        updated = api.update(obj)
        assert updated.metadata.resource_version > obj.metadata.resource_version
        assert api.get("Pod", "p1").status.phase is PodPhase.RUNNING

    def test_update_with_stale_rv_conflicts(self, api):
        api.create(make_pod("p1"))
        stale = api.get("Pod", "p1").clone()
        fresh = api.get("Pod", "p1").clone()
        fresh.status.message = "first"
        api.update(fresh)
        stale.status.message = "second"
        with pytest.raises(Conflict):
            api.update(stale)

    def test_update_deleted_object_raises_notfound(self, api):
        api.create(make_pod("p1"))
        obj = api.get("Pod", "p1")
        api.delete("Pod", "p1")
        with pytest.raises(NotFound):
            api.update(obj)

    def test_patch_retries_through_conflicts(self, api):
        api.create(make_pod("p1"))
        api.patch("Pod", "p1", lambda p: setattr(p.status, "message", "patched"))
        assert api.get("Pod", "p1").status.message == "patched"

    def test_patch_missing_raises(self, api):
        with pytest.raises(NotFound):
            api.patch("Pod", "nope", lambda p: None)

    def test_delete_returns_last_value(self, api):
        api.create(make_pod("p1"))
        gone = api.delete("Pod", "p1")
        assert gone.name == "p1"
        with pytest.raises(NotFound):
            api.delete("Pod", "p1")

    def test_try_delete(self, api):
        api.create(make_pod("p1"))
        assert api.try_delete("Pod", "p1") is True
        assert api.try_delete("Pod", "p1") is False


class TestBind:
    def test_bind_sets_node_name(self, api):
        api.create(make_pod("p1"))
        api.bind("p1", "node-7")
        assert api.get("Pod", "p1").spec.node_name == "node-7"

    def test_double_bind_conflicts(self, api):
        api.create(make_pod("p1"))
        api.bind("p1", "node-1")
        with pytest.raises(Conflict):
            api.bind("p1", "node-2")


class TestWatch:
    def test_watch_translates_objects(self):
        env = Environment()
        api = APIServer(env)
        events = []

        def watcher():
            stream = api.watch("Pod")
            while True:
                raw = yield stream.get()
                events.append(translate_event(raw))

        def writer():
            yield env.timeout(1)
            api.create(make_pod("p1"))
            api.patch("Pod", "p1", lambda p: setattr(p.status, "phase", PodPhase.RUNNING))
            api.delete("Pod", "p1")

        env.process(watcher())
        env.process(writer())
        env.run(until=3)
        kinds = [(etype, obj.name) for etype, obj in events]
        assert kinds == [
            (WatchEventType.PUT, "p1"),
            (WatchEventType.PUT, "p1"),
            (WatchEventType.DELETE, "p1"),
        ]
        assert events[1][1].status.phase is PodPhase.RUNNING
        # DELETE carries the last stored state.
        assert events[2][1].status.phase is PodPhase.RUNNING
