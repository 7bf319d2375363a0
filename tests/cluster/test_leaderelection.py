"""Lease mechanics and fencing for the leader-elected control plane.

Covers the three guarantees of :mod:`repro.cluster.leaderelection`:
mutual exclusion (acquire / renew / steal-after-expiry within the bound),
CAS rejection of stale lease writers, and write fencing that stops a
deposed leader — including the pause/resume (GC pause) scenario where the
ex-leader still believes it leads.
"""

import pytest

from repro.cluster.apiserver import APIServer, Conflict, FencingConflict
from repro.cluster.leaderelection import (
    LEASE_NAMESPACE,
    FencedAPIServer,
    FencingToken,
    HAControllerGroup,
    LeaderElector,
    ReplicaState,
)
from repro.cluster.objects import ObjectMeta, Pod
from repro.sim import Environment


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def api(env):
    return APIServer(env)


def make_elector(env, api, identity, **kw):
    kw.setdefault("lease_duration", 1.0)
    kw.setdefault("renew_interval", 0.2)
    kw.setdefault("retry_interval", 0.2)
    return LeaderElector(env, api, "test-lease", identity, **kw)


class TestAcquire:
    def test_first_acquisition_creates_lease_with_epoch_1(self, env, api):
        elector = make_elector(env, api, "a").start()
        env.run(until=0.5)
        assert elector.is_leader
        assert elector.token is not None and elector.token.epoch == 1
        lease = api.get("Lease", "test-lease", LEASE_NAMESPACE)
        assert lease is not None
        assert lease.spec.holder == "a"
        assert lease.spec.epoch == 1

    def test_two_electors_exactly_one_leader(self, env, api):
        a = make_elector(env, api, "a").start()
        b = make_elector(env, api, "b").start()
        env.run(until=2.0)
        assert sorted([a.is_leader, b.is_leader]) == [False, True]

    def test_renewal_keeps_leadership_past_lease_duration(self, env, api):
        a = make_elector(env, api, "a").start()
        b = make_elector(env, api, "b").start()
        env.run(until=10.0)  # many lease_durations later
        leader = a if a.is_leader else b
        assert leader.is_leader
        # Renewals never bump the epoch: one reign, one fencing token.
        assert leader.token.epoch == 1
        lease = api.get("Lease", "test-lease", LEASE_NAMESPACE)
        assert lease.spec.renew_time > lease.spec.acquire_time


class TestStealAfterExpiry:
    def test_standby_takes_over_within_bound(self, env, api):
        a = make_elector(env, api, "a").start()
        env.run(until=0.5)
        assert a.is_leader

        b = make_elector(env, api, "b").start()
        env.run(until=2.0)
        assert not b.is_leader  # lease renewed, nothing to steal

        # The leader's process dies silently (crash): renewals stop but
        # the lease is not released.
        t_crash = env.now
        a.stop()
        # Worst case: the lease was renewed just before the crash, then
        # must fully expire, then the standby's next retry tick wins.
        bound = a.lease_duration + a.renew_interval + b.retry_interval
        env.run(until=t_crash + bound + 0.01)
        assert b.is_leader
        assert b.token.epoch == 2  # acquisition bumped the fencing token
        (t_acq, what, epoch) = b.transitions[-1]
        assert what == "acquired"
        # Not early either: the steal happened only after lease expiry.
        assert t_acq >= t_crash + a.lease_duration - a.renew_interval

    def test_expiry_respects_skewed_renew_times(self, env, api):
        """A lease whose renew_time is mid-tick (virtual-time skew between
        the holder's stagger and the challenger's) still expires exactly
        ``lease_duration`` after the last renewal, not on tick boundaries."""
        a = make_elector(env, api, "a").start()
        env.run(until=0.73)  # a non-aligned instant
        assert a.is_leader
        a.stop()
        last_renew = api.get("Lease", "test-lease", LEASE_NAMESPACE).spec.renew_time
        b = make_elector(env, api, "b").start()
        env.run(until=20.0)
        assert b.is_leader
        t_acq = next(t for t, what, _ in b.transitions if what == "acquired")
        assert t_acq > last_renew + a.lease_duration

    def test_cas_rejects_stale_lease_writer(self, env, api):
        """Two challengers racing for an expired lease: the loser's write
        carries a stale resourceVersion and surfaces Conflict."""
        a = make_elector(env, api, "a").start()
        env.run(until=0.5)
        stale = api.get("Lease", "test-lease", LEASE_NAMESPACE).clone()
        # Another writer renews first (resourceVersion moves on).
        fresh = api.get("Lease", "test-lease", LEASE_NAMESPACE).clone()
        fresh.spec.renew_time = env.now
        api.update(fresh)  # noqa: RPR004 - deliberately racing two writers to assert CAS
        stale.spec.holder = "z"
        stale.spec.epoch += 1
        with pytest.raises(Conflict):
            api.update(stale)  # noqa: RPR004 - the stale write is the test subject
        # The loser did not become holder.
        assert api.get("Lease", "test-lease", LEASE_NAMESPACE).spec.holder == "a"


class TestVoluntaryStepDown:
    def test_leader_steps_down_when_apiserver_unreachable(self, env, api):
        a = make_elector(env, api, "a").start()
        env.run(until=0.5)
        assert a.is_leader
        # Outage longer than the lease: the leader can no longer prove its
        # lease is valid and must stop acting (renew-deadline rule).
        api.set_outage(3 * a.lease_duration)
        env.run(until=env.now + a.lease_duration + 2 * a.renew_interval)
        assert not a.is_leader
        assert any("lost" in what for _, what, _ in a.transitions)


class TestFencedWrites:
    def _leased_token(self, env, api):
        elector = make_elector(env, api, "a").start()
        env.run(until=0.5)
        assert elector.is_leader
        return elector.token

    def test_current_epoch_writes_pass(self, env, api):
        token = self._leased_token(env, api)
        client = FencedAPIServer(api, token)
        pod = client.create(Pod(metadata=ObjectMeta(name="p1"))).clone()
        pod.metadata.labels["x"] = "1"
        client.update(pod)
        client.patch("Pod", "p1", lambda p: p.metadata.labels.update(y="2"))
        assert api.get("Pod", "p1").metadata.labels == {"x": "1", "y": "2"}
        assert client.try_delete("Pod", "p1")

    def test_stale_epoch_rejected_on_every_write_verb(self, env, api):
        token = self._leased_token(env, api)
        api.create(Pod(metadata=ObjectMeta(name="p1")))
        stale = FencingToken(
            token.lease_namespace, token.lease_name, token.holder, token.epoch - 1
        )
        client = FencedAPIServer(api, stale)
        with pytest.raises(FencingConflict):
            client.create(Pod(metadata=ObjectMeta(name="p2")))
        pod = api.get("Pod", "p1")
        with pytest.raises(FencingConflict):
            client.update(pod)
        with pytest.raises(FencingConflict):
            client.patch("Pod", "p1", lambda p: None)
        with pytest.raises(FencingConflict):
            client.delete("Pod", "p1")
        # Nothing leaked through.
        assert api.get("Pod", "p2") is None
        assert api.get("Pod", "p1") is not None

    def test_wrong_holder_rejected_even_with_right_epoch(self, env, api):
        token = self._leased_token(env, api)
        imposter = FencingToken(
            token.lease_namespace, token.lease_name, "imposter", token.epoch
        )
        with pytest.raises(FencingConflict):
            FencedAPIServer(api, imposter).create(
                Pod(metadata=ObjectMeta(name="p3"))
            )

    def test_reads_delegate_unfenced(self, env, api):
        token = self._leased_token(env, api)
        stale = FencingToken(
            token.lease_namespace, token.lease_name, token.holder, token.epoch - 1
        )
        client = FencedAPIServer(api, stale)
        assert client.get("Pod", "nope") is None  # reads never fenced
        assert client.list("Pod") == []


class WriterController:
    """Test double: writes a uniquely named Pod every 0.1 s while running,
    logging whether the write passed or was fenced."""

    def __init__(self, env, client, log):
        self.env = env
        self.client = client
        self.log = log
        self.rebuilds = 0
        self._proc = None
        self._seq = 0

    def rebuild_state(self):
        self.rebuilds += 1

    def start(self):
        self._proc = self.env.process(self._run(), name="writer-controller")
        return self

    def stop(self):
        if self._proc is not None and self._proc.is_alive:
            self._proc.kill()
        self._proc = None

    def _run(self):
        while True:
            token = self.client.token
            self._seq += 1
            name = f"w-{token.holder}-e{token.epoch}-{self._seq}"
            try:
                self.client.create(Pod(metadata=ObjectMeta(name=name)))
                self.log.append((self.env.now, token.epoch, "ok"))
            except FencingConflict:
                self.log.append((self.env.now, token.epoch, "fenced"))
            yield self.env.timeout(0.1)


class TestDeposedLeaderFencing:
    def make_group(self, env, api, log):
        def factory(client):
            return WriterController(env, client, log)

        return HAControllerGroup(
            env,
            api,
            "writers",
            factory,
            replicas=2,
            lease_duration=1.0,
            renew_interval=0.2,
            retry_interval=0.2,
        )

    def test_paused_leader_resumes_fenced(self, env, api):
        log = []
        group = self.make_group(env, api, log).start()
        env.run(until=1.0)
        old = group.leader
        assert old is not None
        old_epoch = old.elector.token.epoch

        # GC pause: long enough for the lease to expire and the standby to
        # take over while the old leader is frozen.
        old.pause(3.0)
        assert old.state is ReplicaState.PAUSED
        env.run(until=3.0)
        new = group.leader
        assert new is not None and new is not old
        new_epoch = new.elector.token.epoch
        assert new_epoch == old_epoch + 1
        # The promoted replica got a fresh instance and rebuilt its state.
        assert group.controllers[-1].rebuilds == 1

        env.run(until=6.0)
        # On resume the deposed leader acted with its stale token until the
        # elector noticed: every such write was fenced, none passed.
        stale_after_promotion = [
            entry
            for entry in log
            if entry[1] == old_epoch
            and entry[0] >= min(t for t, e, _ in log if e == new_epoch)
        ]
        assert stale_after_promotion, "the resumed ex-leader never tried to write"
        assert all(kind == "fenced" for _, _, kind in stale_after_promotion)
        # The replica noticed its deposition and is a standby again.
        assert old.state is ReplicaState.STANDBY

    def test_split_brain_never_interleaves_epochs(self, env, api):
        """Once a write from epoch N+1 succeeded, no epoch-N write ever
        succeeds again — the fencing-token total order."""
        log = []
        group = self.make_group(env, api, log).start()
        env.run(until=1.0)
        group.leader.pause(3.0)
        env.run(until=8.0)
        ok = [(t, e) for t, e, kind in log if kind == "ok"]
        epochs = [e for _, e in ok]
        assert epochs == sorted(epochs), f"stale-epoch write succeeded: {ok}"

    def test_node_lifecycle_controller_runs_leader_elected(self, env):
        """ClusterConfig.node_lifecycle_replicas=N runs the node
        lifecycle controller leader-elected: one active instance, and a
        standby takes over when the leader crashes."""
        from repro.cluster import Cluster, ClusterConfig

        cluster = Cluster(
            env,
            ClusterConfig(
                nodes=2,
                gpus_per_node=1,
                node_lifecycle_replicas=2,
                controller_lease_duration=1.0,
                controller_renew_interval=0.2,
                controller_retry_interval=0.2,
            ),
        ).start()
        group = cluster.node_lifecycle_group
        assert cluster.node_lifecycle is None  # no leader elected yet
        env.run(until=2.0)
        assert group.leader is not None
        assert cluster.node_lifecycle is group.active_controller is not None
        group.leader.crash()
        t = env.now
        env.run(until=t + group.failover_bound + 0.01)
        assert group.leader is not None
        assert len(group.promotions) == 2
        # The promoted instance really monitors: it notices a node whose
        # kubelet goes silent after the failover.
        cluster.nodes[0].crash()
        env.run(until=env.now + cluster.config.lease_duration + 1.0)
        assert group.controllers[-1].not_ready_total >= 1

    def test_crash_and_restart_rejoins_as_standby(self, env, api):
        log = []
        group = self.make_group(env, api, log).start()
        env.run(until=1.0)
        old = group.leader
        old.crash()
        assert old.state is ReplicaState.CRASHED
        assert old.controller is None  # memory gone
        env.run(until=1.0 + group.failover_bound + 0.01)
        assert group.leader is not None and group.leader is not old
        old.restart()
        env.run(until=6.0)
        assert old.state is ReplicaState.STANDBY
        assert len(group.promotions) == 2


class SoloController:
    """Test double: records the client it was built with, its rebuilds,
    and whether it runs."""

    def __init__(self, client):
        self.client = client
        self.rebuilds = 0
        self.running = False

    def rebuild_state(self):
        self.rebuilds += 1

    def start(self):
        self.running = True
        return self

    def stop(self):
        self.running = False


class TestUnelectedGroup:
    """``replicas=None``: one instance, no lease, no elector, no fencing."""

    def test_runs_one_instance_built_against_the_apiserver(self, env, api):
        built = []

        def factory(client):
            built.append(client)
            return SoloController(client)

        group = HAControllerGroup(env, api, "solo", factory, replicas=None)
        # Built once, at construction, with the bare apiserver.
        assert len(built) == 1 and built[0] is api
        (instance,) = group.controllers
        assert group.active_controller is instance and not instance.running
        group.start()
        env.run(until=10.0)
        assert len(built) == 1
        assert instance.running and instance.rebuilds == 0
        assert group.active_controller is instance
        assert group.replicas == [] and group.promotions == []
        assert group.leader is None
        assert api.list("Lease") == []
        assert env.events_processed == 1  # the run(until=) stop marker
        group.stop()
        assert not instance.running


class TestErrorBackoff:
    """Apiserver-unreachable attempts back off with jitter (no tight loop)."""

    def test_acquire_errors_back_off(self, env, api):
        api.set_outage(10.0)
        elector = make_elector(env, api, "a").start()
        env.run(until=10.0)
        assert elector.error_backoffs_total >= 3
        # A plain retry_interval tick would make ~50 attempts in 10s; the
        # jittered schedule decays towards the lease_duration cap instead.
        assert elector.acquire_attempts < 30

    def test_denied_acquire_keeps_plain_tick(self, env, api):
        leader = make_elector(env, api, "a").start()
        env.run(until=0.5)
        assert leader.is_leader
        standby = make_elector(env, api, "b").start()
        env.run(until=5.0)
        # A healthy denial ("lease held") is not an error: the standby
        # polls on its plain retry_interval so failover_bound still holds.
        assert standby.error_backoffs_total == 0
        assert standby.acquire_attempts >= 15

    def test_renew_errors_back_off_but_respect_grace(self, env, api):
        elector = make_elector(env, api, "a").start()
        env.run(until=1.0)
        assert elector.is_leader
        api.set_outage(20.0)
        renews_at_outage = elector.renew_attempts
        env.run(until=6.0)
        # Errored renews are jittered (fewer attempts than the plain
        # 0.2s tick would make) ...
        assert elector.error_backoffs_total >= 1
        assert elector.renew_attempts - renews_at_outage < 15
        # ... yet the voluntary step-down still lands within the lease
        # grace period, preserving the failover bound.
        assert not elector.is_leader

    def test_backoff_resets_after_recovery(self, env, api):
        api.set_outage(3.0)
        elector = make_elector(env, api, "a").start()
        env.run(until=3.0)
        errored = elector.error_backoffs_total
        assert errored >= 1
        env.run(until=6.0)
        assert elector.is_leader
        assert elector.error_backoffs_total == errored
