"""Node leases evaluated on read, and the lifecycle controller that sleeps
between the ticks that can matter.

Two oracles pin the design:

* ``renewed_at`` against a brute-force walk of the renewal grid, with
  crashes and outage windows landing exactly on renewal instants;
* the real controller against a dense subclass that ticks every
  ``monitor_interval`` with the same decision code (the pre-lease
  behaviour): seeded crash/restart/outage schedules must give identical
  NotReady/Ready/eviction logs and counters.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, ClusterConfig
from repro.cluster.apiserver import APIServer
from repro.cluster.nodelifecycle import NodeLifecycleController
from repro.cluster.objects import ContainerSpec, ObjectMeta, Pod, PodSpec
from repro.sim import Environment

# -- renewed_at vs. brute force ----------------------------------------------


def brute_renewed_at(origin, interval, stop, windows, now):
    """Latest renewal instant <= now, enumerated the way the old heartbeat
    timer produced them (repeated float addition)."""
    best, g = origin, origin + interval
    while g <= now and g < stop:
        if not any(start <= g < end for start, end in windows):
            best = g
        g += interval
    return best


quarter = st.integers(0, 80).map(lambda k: k / 4)  # exact ties with the grid

actions = st.lists(
    st.one_of(
        st.tuples(st.just("query"), quarter, st.just(0.0)),
        st.tuples(st.just("outage"), quarter, st.integers(1, 24).map(lambda k: k / 4)),
        st.tuples(st.just("crash"), quarter, st.just(0.0)),
    ),
    max_size=20,
)


class TestRenewedAt:
    @given(
        origin=quarter,
        interval=st.sampled_from([0.25, 0.5, 0.75, 1.0, 1.5, 0.1, 0.3]),
        acts=actions,
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_brute_force_enumeration(self, origin, interval, acts):
        env = Environment()
        api = APIServer(env)
        checks = []

        def scenario():
            yield env.timeout(origin)
            lease = api.arm_node_lease("n0", interval)
            stop, windows = float("inf"), []
            # Stable sort: same-instant actions keep their drawn order, so
            # a query can land before or after a crash/outage at its time.
            for kind, at, duration in sorted(acts, key=lambda a: a[1]):
                at = max(at, origin)
                if at > env.now:
                    yield env.timeout(at - env.now)
                if kind == "outage":
                    api.set_outage(duration)
                    windows.append((env.now, env.now + duration))
                elif kind == "crash" and stop == float("inf"):
                    api.stop_node_lease(lease)
                    stop = env.now
                elif kind == "query":
                    got = lease.renewed_at(env.now)
                    want = brute_renewed_at(origin, interval, stop, windows, env.now)
                    checks.append((env.now, got, want))

        env.run(until=env.process(scenario()))
        for now, got, want in checks:
            assert got == want, f"renewed_at({now}) = {got}, brute force {want}"

    def test_crash_at_a_renewal_instant_beats_the_renewal(self, env):
        api = APIServer(env)
        lease = api.arm_node_lease("n0", 1.0)
        env.run(until=3.0)
        assert lease.renewed_at(3.0) == 3.0
        api.stop_node_lease(lease)
        assert lease.renewed_at(3.0) == 2.0
        env.run(until=9.0)
        assert lease.renewed_at(9.0) == 2.0

    def test_origin_always_counts_and_outage_edges(self, env):
        api = APIServer(env)
        api.set_outage(2.0)  # [0, 2): the origin renewal still registered the node
        lease = api.arm_node_lease("n0", 1.0)
        env.run(until=1.5)
        assert lease.renewed_at(1.5) == 0.0
        env.run(until=2.0)
        assert lease.renewed_at(2.0) == 2.0  # window end is exclusive

    def test_overlapping_outages_merge(self, env):
        api = APIServer(env)
        api.set_outage(2.0)
        env.run(until=1.0)
        api.set_outage(3.0)
        assert api.outages == [[0.0, 4.0]]
        env.run(until=5.0)
        api.set_outage(1.0)
        assert api.outages == [[0.0, 4.0], [5.0, 6.0]]

    def test_renewals_commit_no_revision(self, env):
        cluster = Cluster(env, ClusterConfig(nodes=2, gpus_per_node=1)).start()
        env.run(until=1.0)
        revision = cluster.etcd.revision
        env.run(until=30.0)
        assert cluster.etcd.revision == revision
        assert cluster.api.node_leases["node01"].renewed_at(env.now) == 30.0


# -- the real controller vs. a dense oracle --------------------------------------


class DenseLifecycle(NodeLifecycleController):
    """Ticks every monitor_interval, as before leases: same decisions."""

    def _next_tick(self, stale, fresh):
        return self._tick_after(self.env.now)


def cpu_pod(name):
    return Pod(
        metadata=ObjectMeta(name=name),
        spec=PodSpec(containers=[ContainerSpec(requests={"cpu": 1})]),
    )


def run_schedule(controller_cls, seed, nodes, timing, horizon=80.0):
    """Seeded crash/restart/outage schedule; returns (log, counters, ticks)."""
    heartbeat, lease_duration, monitor = timing
    env = Environment()
    cluster = Cluster(
        env,
        ClusterConfig(
            nodes=nodes, gpus_per_node=1, node_lifecycle=False,
            heartbeat_interval=heartbeat,
        ),
    )
    ctrl = controller_cls(
        env, cluster.api, lease_duration=lease_duration, monitor_interval=monitor
    )
    log = []
    ticks = []

    def on_node(ev):
        prev = ev.prev.value if ev.prev is not None else None
        cur = ev.kv.value
        if cur is not None and prev is not None and prev.status.ready != cur.status.ready:
            log.append((env.now, cur.name, "Ready" if cur.status.ready else "NotReady"))

    cluster.etcd.watch("/registry/Node/", deliver=on_node)
    evict = ctrl._evict_pods
    ctrl._evict_pods = lambda name: (log.append((env.now, name, "evicted")), evict(name))
    tick = ctrl._tick
    ctrl._tick = lambda: (ticks.append(env.now), tick())[1]
    ctrl.start()
    cluster.start()
    for i in range(2 * nodes):
        cluster.submit(cpu_pod(f"p{i}"))

    rng = random.Random(seed)
    plan = []
    for _ in range(rng.randint(2, 6)):
        at = round(rng.uniform(1.0, horizon - 10.0), 2)
        kind = rng.choice(["crash", "crash", "outage", "restart"])
        plan.append((at, kind, rng.randrange(nodes), round(rng.uniform(0.5, 9.0), 2)))
    # Exact collisions with the renewal and tick grids.
    plan.append((float(rng.randint(5, 30)), "crash", rng.randrange(nodes), 0.0))
    plan.append((float(rng.randint(5, 40)), "outage", 0, float(rng.randint(1, 8))))

    def chaos():
        for at, kind, victim, duration in sorted(plan):
            if at > env.now:
                yield env.timeout(at - env.now)
            node = cluster.nodes[victim]
            crashed = [n for n in cluster.nodes if n.crashed]
            if kind == "crash":
                node.crash()
            elif kind == "restart" and crashed and cluster.api.available:
                env.process(crashed[victim % len(crashed)].restart())
            elif kind == "outage":
                cluster.api.set_outage(duration)

    env.process(chaos())
    env.run(until=horizon)
    counters = (ctrl.not_ready_total, ctrl.evictions_total, ctrl.evicted_pods_total)
    return log, counters, ticks


TIMINGS = [
    (1.0, 4.0, 0.5),  # ClusterConfig defaults
    (0.7, 2.0, 0.3),  # non-dyadic grids
    (3.0, 2.0, 0.5),  # renewals slower than the lease: live nodes flap
]


class TestAgainstDenseOracle:
    @pytest.mark.parametrize("timing", TIMINGS, ids=["default", "odd-grid", "flapping"])
    @pytest.mark.parametrize("seed", range(8))
    def test_same_transitions_as_ticking_every_interval(self, seed, timing):
        nodes = 3 + seed % 2
        dense_log, dense_counters, dense_ticks = run_schedule(DenseLifecycle, seed, nodes, timing)
        log, counters, ticks = run_schedule(NodeLifecycleController, seed, nodes, timing)
        assert log == dense_log
        assert counters == dense_counters
        assert set(ticks) <= set(dense_ticks)  # only ever ticks on the grid
        assert len(ticks) < len(dense_ticks)

    def test_idle_cluster_never_ticks(self, env):
        cluster = Cluster(env, ClusterConfig(nodes=3, gpus_per_node=1)).start()
        env.run(until=2.0)
        events = env.events_processed
        env.run(until=500.0)
        assert env.events_processed == events + 1  # the run(until=) stop marker
        assert cluster.node_lifecycle.not_ready_total == 0

    def test_stop_in_the_same_instant_as_a_wake(self, env):
        cluster = Cluster(env, ClusterConfig(nodes=3, gpus_per_node=1)).start()
        env.run(until=2.0)
        cluster.nodes[0].crash()  # the controller now sleeps until t=6.5
        env.run(until=3.2)
        ctrl = cluster.node_lifecycle
        cluster.api.set_outage(0.1)  # wakes it for t=3.5 ...
        ctrl.stop()  # ... and a replica crash stops it in the same instant
        env.run(until=60.0)
        assert ctrl.not_ready_total == 0
        assert cluster.api.lease_hooks == []


# -- HA: a deposed replica leaves nothing behind ----------------------------------

NODE_PREFIX = "/registry/Node/"


def ha_crash_detection(env, node_crash_at):
    cluster = Cluster(
        env,
        ClusterConfig(
            nodes=3,
            gpus_per_node=1,
            node_lifecycle_replicas=2,
            controller_lease_duration=1.0,
            controller_renew_interval=0.2,
            controller_retry_interval=0.2,
        ),
    )

    def node_watchers():
        # The lifecycle controllers' Node watches (the kube-scheduler's
        # own Node watch is not this test's subject).
        return sum(
            isinstance(getattr(w.deliver, "__self__", None), NodeLifecycleController)
            for w in cluster.etcd.watchers(NODE_PREFIX)
        )

    watchers_before = node_watchers()
    cluster.start()
    group = cluster.node_lifecycle_group
    env.run(until=2.0)
    one_leader = (node_watchers(), len(cluster.api.lease_hooks))
    group.leader.crash()
    env.run(until=2.0 + group.failover_bound + 0.01)
    assert len(group.promotions) == 2
    assert (node_watchers(), len(cluster.api.lease_hooks)) == one_leader
    detected = []
    cluster.etcd.watch(
        NODE_PREFIX,
        deliver=lambda ev: detected.append(env.now) if not ev.kv.value.status.ready else None,
    )
    env.run(until=node_crash_at)
    cluster.nodes[0].crash()
    env.run(until=node_crash_at + 8.0)
    watchers = node_watchers()
    group.stop()
    return detected, watchers_before, watchers, node_watchers()


class TestHALifecycle:
    def test_promoted_replica_detects_a_crash_at_the_dense_tick(self, env, monkeypatch):
        detected, before, during, after = ha_crash_detection(env, node_crash_at=9.0)
        assert len(detected) == 1
        assert during == before + 1  # the one leader's Node watch
        assert after == before  # stop() removes every hook

        import repro.cluster.cluster as cluster_module

        monkeypatch.setattr(cluster_module, "NodeLifecycleController", DenseLifecycle)
        dense, *_ = ha_crash_detection(Environment(), node_crash_at=9.0)
        assert detected == dense
