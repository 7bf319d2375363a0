"""Unit tests for the etcd substrate."""
# repro-lint: disable=RPR004 - this file tests raw put/CAS semantics; blind puts are the subject

import pytest

from repro.cluster.etcd import CasFailure, Etcd, WatchEventType
from repro.sim import Environment


@pytest.fixture
def etcd():
    return Etcd(Environment())


class TestBasicKV:
    def test_get_missing_returns_none(self, etcd):
        assert etcd.get("/nope") is None

    def test_put_then_get(self, etcd):
        etcd.put("/a", {"x": 1})
        assert etcd.get("/a").value == {"x": 1}

    def test_revision_increases_monotonically(self, etcd):
        r1 = etcd.put("/a", 1).mod_revision
        r2 = etcd.put("/b", 2).mod_revision
        r3 = etcd.put("/a", 3).mod_revision
        assert r1 < r2 < r3
        assert etcd.revision == r3

    def test_create_revision_preserved_across_updates(self, etcd):
        kv1 = etcd.put("/a", 1)
        kv2 = etcd.put("/a", 2)
        assert kv2.create_revision == kv1.create_revision
        assert kv2.mod_revision > kv1.mod_revision

    def test_delete_returns_previous(self, etcd):
        etcd.put("/a", "v")
        prev = etcd.delete("/a")
        assert prev.value == "v"
        assert etcd.get("/a") is None

    def test_delete_missing_returns_none(self, etcd):
        assert etcd.delete("/ghost") is None

    def test_len_counts_keys(self, etcd):
        etcd.put("/a", 1)
        etcd.put("/b", 2)
        etcd.delete("/a")
        assert len(etcd) == 1


class TestRange:
    def test_range_is_prefix_filtered_and_sorted(self, etcd):
        etcd.put("/pods/z", 1)
        etcd.put("/pods/a", 2)
        etcd.put("/nodes/n1", 3)
        keys = [kv.key for kv in etcd.range("/pods/")]
        assert keys == ["/pods/a", "/pods/z"]

    def test_keys_iterator(self, etcd):
        etcd.put("/x/1", 1)
        etcd.put("/x/2", 2)
        assert list(etcd.keys("/x/")) == ["/x/1", "/x/2"]


class TestCas:
    def test_create_only_succeeds_when_absent(self, etcd):
        etcd.put_if("/a", 1, mod_revision=0)
        with pytest.raises(CasFailure):
            etcd.put_if("/a", 2, mod_revision=0)

    def test_cas_succeeds_with_matching_revision(self, etcd):
        kv = etcd.put("/a", 1)
        etcd.put_if("/a", 2, mod_revision=kv.mod_revision)
        assert etcd.get("/a").value == 2

    def test_cas_fails_on_stale_revision(self, etcd):
        kv = etcd.put("/a", 1)
        etcd.put("/a", 2)
        with pytest.raises(CasFailure):
            etcd.put_if("/a", 3, mod_revision=kv.mod_revision)


class TestWatch:
    def test_watch_delivers_puts_under_prefix(self):
        env = Environment()
        etcd = Etcd(env)
        seen = []

        def watcher():
            w = etcd.watch("/pods/")
            while True:
                ev = yield w.get()
                seen.append((ev.type, ev.kv.key))

        def writer():
            yield env.timeout(1)
            etcd.put("/pods/a", 1)
            etcd.put("/nodes/n", 2)  # outside the prefix
            etcd.delete("/pods/a")

        env.process(watcher())
        env.process(writer())
        env.run(until=5)
        assert seen == [
            (WatchEventType.PUT, "/pods/a"),
            (WatchEventType.DELETE, "/pods/a"),
        ]

    def test_watch_replay_delivers_existing_state(self):
        env = Environment()
        etcd = Etcd(env)
        etcd.put("/pods/a", 1)
        etcd.put("/pods/b", 2)
        seen = []

        def watcher():
            w = etcd.watch("/pods/", replay=True)
            for _ in range(2):
                ev = yield w.get()
                seen.append(ev.kv.key)

        env.process(watcher())
        env.run()
        assert seen == ["/pods/a", "/pods/b"]

    def test_delete_event_carries_previous_value(self):
        env = Environment()
        etcd = Etcd(env)
        got = []

        def watcher():
            w = etcd.watch("")
            while True:
                ev = yield w.get()
                if ev.type is WatchEventType.DELETE:
                    got.append(ev.prev.value)

        def writer():
            yield env.timeout(1)
            etcd.put("/k", "payload")
            etcd.delete("/k")

        env.process(watcher())
        env.process(writer())
        env.run(until=3)
        assert got == ["payload"]

    def test_cancelled_watch_gets_nothing_further(self):
        env = Environment()
        etcd = Etcd(env)
        w = etcd.watch("")
        etcd.put("/a", 1)
        w.close()
        etcd.put("/b", 2)
        # Only the first event was queued.
        assert len(w.events.items) == 1


class TestCloseAndUnwatch:
    def test_close_detaches_subscriber_eagerly(self, etcd):
        got = []
        w = etcd.watch("/pods/", deliver=got.append)
        assert etcd.watchers("/pods/") == [w]
        w.close()
        # Removed from the table at once: a stopped subscriber is called
        # no more and pins nothing in the store.
        assert w.cancelled
        assert etcd.watchers("/pods/") == []
        etcd.put("/pods/a", 1)
        assert got == []

    def test_unwatch_is_idempotent(self, etcd):
        w = etcd.watch("")
        w.close()
        etcd.unwatch(w)  # second removal must be a no-op
        assert etcd.watchers("") == []
        etcd.put("/a", 1)
        assert len(w.events.items) == 0

    def test_close_leaves_other_watches_untouched(self, etcd):
        w1 = etcd.watch("/pods/")
        w2 = etcd.watch("/pods/")
        w1.close()
        etcd.put("/pods/a", 1)
        assert len(w1.events.items) == 0
        assert len(w2.events.items) == 1


class TestPrefixReads:
    def test_prefix_reads_keep_whole_store_key_order(self, etcd):
        keys = [
            "/registry/SharePod/default/b", "/registry/Pod/default/z",
            "/registry/Node//node01", "/registry/Pod/default/a",
            "/registry/Pod/kube-system/m", "/registry/Node//node00",
            "/registry/Lease/kube-system/x", "/registry/Pod/default/a-2",
            "/registry/SharePod/default/a", "/other",
        ]
        for i, key in enumerate(keys):
            etcd.put(key, i)
        for prefix in ("", "/registry/", "/registry/Pod/", "/registry/Pod/default/",
                       "/registry/Node/", "/registry/SharePod/", "/nope"):
            expected = [k for k in sorted(keys) if k.startswith(prefix)]
            assert [kv.key for kv in etcd.range(prefix)] == expected
            assert [kv.key for kv in etcd.snapshot(prefix)] == expected
            assert list(etcd.keys(prefix)) == expected
