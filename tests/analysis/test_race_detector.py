"""The dynamic race detector must catch deliberately staged violations —
a lost update, a laundered resourceVersion, a double-bound vGPU, and a
token over-grant — and stay silent on the correct patterns."""
# repro-lint: disable=RPR004 - staged blind puts are what these tests detect

import pytest

from repro.analysis.race import RaceDetector, RaceViolation, install
from repro.cluster.apiserver import APIServer
from repro.cluster.controller import Controller
from repro.cluster.etcd import Etcd
from repro.cluster.objects import (
    ContainerSpec,
    ObjectMeta,
    Pod,
    PodPhase,
    PodSpec,
)
from repro.core.vgpu import PLACEHOLDER_PREFIX
from repro.sim import Environment


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def etcd(env):
    store = Etcd(env)
    store.tracker = RaceDetector(env)
    return store


def detector(etcd) -> RaceDetector:
    return etcd.tracker


class TestLostUpdate:
    def test_blind_overwrite_of_unread_revision_flagged(self, env, etcd):
        def writer_a():
            etcd.put("/registry/Lease/default/l", "a")
            yield env.timeout(0)

        def writer_b():
            # b never read the key, yet blindly overwrites a's write.
            etcd.put("/registry/Lease/default/l", "b")
            yield env.timeout(0)

        env.process(writer_a(), name="a")
        proc = env.process(writer_b(), name="b")
        with pytest.raises(RaceViolation, match="lost-update"):
            env.run(until=proc)

    def test_read_then_cas_is_clean(self, env, etcd):
        def writer():
            kv = etcd.put("/registry/Lease/default/l", 0)
            fresh = etcd.get("/registry/Lease/default/l")
            etcd.put_if("/registry/Lease/default/l", kv.value + 1, fresh.mod_revision)
            yield env.timeout(0)

        proc = env.process(writer(), name="w")
        env.run(until=proc)
        assert detector(etcd).violations == []

    def test_laundered_resource_version_flagged(self, env, etcd):
        """A CAS with a revision the actor obtained out-of-band (not via a
        tracked read) is still a lost-update hazard."""

        def setup():
            etcd.put("/registry/Pod/default/p", "v1")
            yield env.timeout(0)

        def launderer():
            # Forge the revision instead of reading it: CAS succeeds at
            # the store level but the actor never observed the value it
            # is replacing.
            etcd.put_if("/registry/Pod/default/p", "v2", etcd.revision)
            yield env.timeout(0)

        env.process(setup(), name="owner")
        proc = env.process(launderer(), name="launderer")
        with pytest.raises(RaceViolation, match="compare-and-swap"):
            env.run(until=proc)

    def test_first_create_never_flagged(self, env, etcd):
        def creator():
            etcd.put("/registry/Pod/default/p", "v1")
            yield env.timeout(0)

        proc = env.process(creator(), name="c")
        env.run(until=proc)
        assert detector(etcd).violations == []

    def test_check_reports_collected_violations(self, env, etcd):
        etcd.tracker = RaceDetector(env, fail_fast=False)

        def racers():
            etcd.put("/registry/Node/n1", "a")
            yield env.timeout(0)

        def blind():
            etcd.put("/registry/Node/n1", "b")
            yield env.timeout(0)

        env.process(racers(), name="a")
        proc = env.process(blind(), name="b")
        env.run(until=proc)
        det = detector(etcd)
        assert len(det.violations) == 1
        assert det.violations[0].kind == "lost-update"
        with pytest.raises(RaceViolation, match="1 violation"):
            det.check()


def make_placeholder(name: str, uuid: str) -> Pod:
    pod = Pod(
        metadata=ObjectMeta(name=name, namespace="kubeshare"),
        spec=PodSpec(containers=[ContainerSpec(name="holder")]),
    )
    pod.status.phase = PodPhase.RUNNING
    pod.status.container_env = {"NVIDIA_VISIBLE_DEVICES": uuid}
    return pod


class TestDoubleBind:
    def test_two_running_holders_on_one_uuid_flagged(self, env, etcd):
        def binder():
            etcd.put(
                f"/registry/Pod/kubeshare/{PLACEHOLDER_PREFIX}aaa",
                make_placeholder(f"{PLACEHOLDER_PREFIX}aaa", "GPU-0"),
            )
            etcd.put(
                f"/registry/Pod/kubeshare/{PLACEHOLDER_PREFIX}bbb",
                make_placeholder(f"{PLACEHOLDER_PREFIX}bbb", "GPU-0"),
            )
            yield env.timeout(0)

        proc = env.process(binder(), name="devmgr")
        with pytest.raises(RaceViolation, match="double-bind"):
            env.run(until=proc)

    def test_distinct_uuids_clean(self, env, etcd):
        def binder():
            etcd.put(
                f"/registry/Pod/kubeshare/{PLACEHOLDER_PREFIX}aaa",
                make_placeholder(f"{PLACEHOLDER_PREFIX}aaa", "GPU-0"),
            )
            etcd.put(
                f"/registry/Pod/kubeshare/{PLACEHOLDER_PREFIX}bbb",
                make_placeholder(f"{PLACEHOLDER_PREFIX}bbb", "GPU-1"),
            )
            yield env.timeout(0)

        proc = env.process(binder(), name="devmgr")
        env.run(until=proc)
        assert detector(etcd).violations == []

    def test_rebind_after_delete_clean(self, env, etcd):
        """Teardown then re-create on the same UUID is the legitimate
        failover path, not a double-bind."""
        key_a = f"/registry/Pod/kubeshare/{PLACEHOLDER_PREFIX}aaa"
        key_b = f"/registry/Pod/kubeshare/{PLACEHOLDER_PREFIX}bbb"

        def cycle():
            etcd.put(key_a, make_placeholder(f"{PLACEHOLDER_PREFIX}aaa", "GPU-0"))
            etcd.delete(key_a)
            etcd.put(key_b, make_placeholder(f"{PLACEHOLDER_PREFIX}bbb", "GPU-0"))
            yield env.timeout(0)

        proc = env.process(cycle(), name="devmgr")
        env.run(until=proc)
        assert detector(etcd).violations == []


class Token:
    def __init__(self, client_id: str, valid: bool = True):
        self.client_id = client_id
        self.valid = valid


class TestTokenOvergrant:
    def test_grant_over_valid_token_flagged(self, env):
        det = RaceDetector(env)
        det.record_token_grant("GPU-0", Token("c1"), None)
        with pytest.raises(RaceViolation, match="token-overgrant"):
            det.record_token_grant("GPU-0", Token("c2"), Token("c1", valid=True))

    def test_grant_after_expiry_clean(self, env):
        det = RaceDetector(env)
        det.record_token_grant("GPU-0", Token("c1"), None)
        det.record_token_grant("GPU-0", Token("c2"), Token("c1", valid=False))
        assert det.violations == []


class TestInstall:
    def test_install_wires_etcd_and_backends(self, small_cluster):
        det = install(small_cluster)
        assert small_cluster.api.etcd.tracker is det
        for node in small_cluster.nodes:
            assert node.backend.tracker is det

    def test_clean_scenario_records_traffic_without_violations(self, small_cluster):
        from repro.core import KubeShare

        det = install(small_cluster)
        ks = KubeShare(small_cluster, isolation="token").start()
        ks.submit(ks.make_sharepod("sp0", gpu_request=0.5, gpu_limit=0.5, gpu_mem=0.3))
        small_cluster.env.run(until=20.0)
        assert det.reads_total > 0 and det.writes_total > 0
        det.check()  # no violations in a healthy run


class Stomper(Controller):
    """Reads its Pod, naps, then blind-puts its stale copy back: the
    lost-update bug inside a reconcile pass. ``reads``/``writes`` switch
    either half off, so one pass can read and a later one write."""

    kind = "Pod"

    def __init__(self, env, api):
        super().__init__(env, api)
        self.reads = self.writes = True
        self.seen = None

    def filter(self, etype, obj):
        return False  # passes are queued by hand

    def reconcile(self, key):
        namespace, name = key.split("/", 1)
        if self.reads:
            self.seen = self.api.get("Pod", name, namespace)
        yield self.env.timeout(1.0)
        if self.writes:
            self.api.etcd.put(f"/registry/Pod/{key}", self.seen)


class TestControllerPasses:
    """A worker is one actor across all its passes (DESIGN §8.3)."""

    @pytest.fixture
    def api(self, env):
        api = APIServer(env)
        api.etcd.tracker = RaceDetector(env, fail_fast=False)
        api.create(Pod(metadata=ObjectMeta(name="p1")))
        return api

    def test_overwrite_of_another_actors_commit_is_flagged(self, env, api):
        ctl = Stomper(env, api).start()

        def intruder():
            yield env.timeout(0.5)
            api.patch("Pod", "p1", lambda p: setattr(p.status, "message", "mine"))

        env.process(intruder(), name="intruder")
        ctl.queue.add("default/p1")
        env.run(until=3)
        [violation] = api.etcd.tracker.violations
        assert violation.kind == RaceDetector.LOST_UPDATE
        assert violation.actor == "Stomper:worker0"
        assert violation.subject == "/registry/Pod/default/p1"
        assert violation.at == 1.0

    def test_worker_rewriting_what_it_read_in_an_earlier_pass_is_clean(
        self, env, api
    ):
        """No other writer's change is lost when nothing was written
        between the worker's read and its overwrite."""
        ctl = Stomper(env, api).start()
        ctl.writes = False
        ctl.queue.add("default/p1")
        env.run(until=1.5)
        ctl.reads, ctl.writes = False, True
        ctl.queue.add("default/p1")
        env.run(until=5)
        assert ctl.reconciles_total == 2
        assert api.etcd.tracker.writes_total == 2  # the create, then the pass
        assert api.etcd.tracker.violations == []
