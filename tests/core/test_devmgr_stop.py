"""KubeShare-DevMgr's timers die with the instance that armed them.

An idle vGPU's TTL timer and an eviction's drain timer belong to the
DevMgr instance that armed them: ``stop()`` (a crash or a deposition on
the replicated wiring, ``KubeShare.stop()`` on the unelected one) kills
them, so a dead instance never writes through its stale client. A
successor re-arms both from apiserver state: ``rebuild_state`` idles the
vGPUs nothing is attached to, and the eviction annotations re-open a
drain. An instance started again (a paused replica resuming) re-arms
each idle vGPU's TTL for the time it has left. A TTL due inside an
apiserver outage waits, still armed, for the outage to end.
"""

import pytest

from repro.cluster import Cluster, ClusterConfig
from repro.core import HybridPolicy, KubeShare
from repro.policy.layer import PolicyConfig
from repro.policy.reaper import ReaperConfig
from repro.policy.revocation import mark_eviction
from repro.sim import Environment
from repro.workloads import TrainingJob

TTL = 10.0


@pytest.fixture
def spawned(monkeypatch):
    """Every process started from here on, as (owner, function, name,
    process); the owner is the generator's ``self`` at spawn time."""
    started = []
    spawn = Environment.process

    def process(self, gen, name=None):
        proc = spawn(self, gen, name)
        started.append((gen.gi_frame.f_locals.get("self"), gen.__qualname__, name, proc))
        return proc

    monkeypatch.setattr(Environment, "process", process)
    return started


def sharepod(ks, name, steps):
    job = TrainingJob(name, steps=steps, step_work=0.05)
    return ks.make_sharepod(
        name, gpu_request=0.6, gpu_limit=1.0, gpu_mem=0.3, workload=job.workload()
    )


def run_until_idle(ks, name):
    """Run *name* to completion; return its vGPU's placeholder pod name."""
    env = ks.cluster.env
    env.run(until=env.process(ks.wait_all_terminal([name])))
    vgpu = ks.pool.get(ks.get(name).spec.gpu_id)
    assert vgpu.idle and vgpu.idle_since == env.now
    return vgpu.placeholder_pod


def test_a_crashed_leaders_idle_ttl_dies_with_it(env):
    cluster = Cluster(env, ClusterConfig(nodes=1, gpus_per_node=1)).start()
    ks = KubeShare(cluster, policy=HybridPolicy(max_idle=2, idle_ttl=TTL), replicas=2).start()
    ks.submit(sharepod(ks, "j", steps=20))
    holder = run_until_idle(ks, "j")
    env.run(until=env.now + 1.0)
    ks.devmgr_group.leader.crash()
    # A TTL timer that outlived the dead leader would delete the
    # placeholder here, through its stale fenced client.
    env.run(until=env.now + TTL)
    promoted_at = ks.devmgr_group.promotions[-1][0]
    assert cluster.api.get("Pod", holder) is not None
    # The new leader found the vGPU idle and releases it at its own TTL.
    env.run(until=promoted_at + TTL - 0.01)
    assert cluster.api.get("Pod", holder) is not None
    env.run(until=promoted_at + TTL + 0.01)
    assert cluster.api.get("Pod", holder) is None
    assert ks.devmgr.vgpus_released_total == 1


def assert_released_at(ks, holder, deadline):
    env = ks.cluster.env
    env.run(until=deadline - 0.01)
    assert ks.cluster.api.get("Pod", holder) is not None
    env.run(until=deadline + 0.01)
    assert ks.cluster.api.get("Pod", holder) is None


def test_a_paused_leader_releases_its_idle_vgpu_at_the_ttl(env):
    cluster = Cluster(env, ClusterConfig(nodes=1, gpus_per_node=1)).start()
    ks = KubeShare(cluster, policy=HybridPolicy(max_idle=2, idle_ttl=TTL), replicas=2).start()
    ks.submit(sharepod(ks, "j", steps=20))
    holder = run_until_idle(ks, "j")
    idle_at = env.now
    devmgr = ks.devmgr
    env.run(until=env.now + 1.0)
    ks.devmgr_group.leader.pause(0.2)
    assert_released_at(ks, holder, idle_at + TTL)
    assert ks.devmgr is devmgr  # it resumed as leader
    assert devmgr.vgpus_released_total == 1


def test_a_devmgr_started_again_releases_its_idle_vgpu_at_the_ttl(env):
    cluster = Cluster(env, ClusterConfig(nodes=1, gpus_per_node=1)).start()
    ks = KubeShare(cluster, policy=HybridPolicy(max_idle=2, idle_ttl=TTL)).start()
    ks.submit(sharepod(ks, "j", steps=20))
    holder = run_until_idle(ks, "j")
    idle_at = env.now
    env.run(until=env.now + 1.0)
    ks.devmgr.stop()
    ks.devmgr.start()
    assert_released_at(ks, holder, idle_at + TTL)
    assert ks.devmgr.vgpus_released_total == 1


def test_a_deposed_leader_resumed_after_its_ttl_is_fenced_off(env):
    cluster = Cluster(env, ClusterConfig(nodes=1, gpus_per_node=1)).start()
    ks = KubeShare(cluster, policy=HybridPolicy(max_idle=2, idle_ttl=TTL), replicas=2).start()
    ks.submit(sharepod(ks, "j", steps=20))
    holder = run_until_idle(ks, "j")
    old = ks.devmgr
    env.run(until=env.now + 1.0)
    # Paused past its lease and its TTL: a standby takes over and
    # releases the vGPU at its own TTL, and the ex-leader resumes
    # believing it still leads, its re-armed TTL already due.
    ks.devmgr_group.leader.pause(2 * TTL)
    env.run(until=env.now + 3 * TTL)
    assert cluster.api.get("Pod", holder) is None
    assert ks.devmgr is not old
    assert ks.devmgr.vgpus_released_total == 1
    assert old.vgpus_released_total == 0


def test_stop_leaves_no_devmgr_timer_process_or_watch(env, spawned):
    cluster = Cluster(env, ClusterConfig(nodes=1, gpus_per_node=2)).start()
    etcd = cluster.api.etcd
    prefixes = [f"/registry/{kind}/" for kind in ("SharePod", "Pod", "Node")]
    watchers = {prefix: etcd.watchers(prefix) for prefix in prefixes}

    def alive():
        return sorted(what for owner, what, _, proc in spawned if owner is devmgr and proc.is_alive)

    ks = KubeShare(cluster, policy=HybridPolicy(max_idle=2, idle_ttl=TTL)).start()
    devmgr = ks.devmgr
    ks.submit(sharepod(ks, "short", steps=20))
    ks.submit(sharepod(ks, "long", steps=100_000))
    holder = run_until_idle(ks, "short")
    idle_at = env.now
    mark_eviction(cluster.api, "default/long", "test", env.now + 5.0, "test")
    env.run(until=env.now + 1.0)
    assert {"KubeShareDevMgr._drain_timer", "KubeShareDevMgr._ttl_watch"} <= set(alive())

    ks.stop()
    assert alive() == []
    assert {prefix: etcd.watchers(prefix) for prefix in prefixes} == watchers
    env.run(until=idle_at + 2 * TTL)
    assert cluster.api.get("Pod", holder) is not None
    assert devmgr.vgpus_released_total == 0


def idle_then_outage(env):
    """KubeShare on 1×1 with an idle vGPU whose TTL falls due inside a
    2 s apiserver outage that begins 9.5 s after the vGPU went idle.
    Returns (ks, placeholder pod name, outage end)."""
    cluster = Cluster(env, ClusterConfig(nodes=1, gpus_per_node=1)).start()
    ks = KubeShare(cluster, policy=HybridPolicy(max_idle=2, idle_ttl=TTL)).start()
    ks.submit(sharepod(ks, "j", steps=20))
    holder = run_until_idle(ks, "j")
    env.run(until=env.now + TTL - 0.5)
    cluster.api.set_outage(2.0)
    return ks, holder, cluster.api.down_until


def test_an_idle_ttl_due_inside_an_outage_releases_when_it_ends(env):
    ks, holder, healed_at = idle_then_outage(env)
    devmgr = ks.devmgr
    # The TTL fell due 1.5 s before this: a release refused by the
    # outage gate would stop the run there.
    env.run(until=healed_at - 0.01)
    assert devmgr.vgpus_released_total == 0
    env.run(until=healed_at + 0.01)
    assert ks.cluster.api.get("Pod", holder) is None
    assert devmgr.vgpus_released_total == 1
    env.run()


def test_stop_inside_the_outage_wait_kills_the_ttl_timer(env, spawned):
    ks, holder, healed_at = idle_then_outage(env)
    devmgr = ks.devmgr

    def ttl_timers():
        return [
            proc
            for owner, what, _, proc in spawned
            if owner is devmgr and what == "KubeShareDevMgr._ttl_watch" and proc.is_alive
        ]

    env.run(until=healed_at - 1.0)  # the TTL fell due 0.5 s ago
    assert len(ttl_timers()) == 1
    ks.stop()
    assert ttl_timers() == []
    env.run(until=healed_at + TTL)
    assert ks.cluster.api.get("Pod", holder) is not None
    assert devmgr.vgpus_released_total == 0


@pytest.mark.parametrize("reaper", [False, True], ids=["no-policy", "reaper"])
@pytest.mark.parametrize("replicas", [None, 2], ids=["unelected", "replicas2"])
def test_kubeshare_stop_leaves_no_subscriber_or_process(env, spawned, replicas, reaper):
    cluster = Cluster(env, ClusterConfig(nodes=1, gpus_per_node=2)).start()
    etcd = cluster.api.etcd
    kinds = ("SharePod", "Pod", "Node", "Lease", "Namespace", "PriorityClass")
    prefixes = [f"/registry/{kind}/" for kind in kinds]
    watchers = {prefix: etcd.watchers(prefix) for prefix in prefixes}
    cluster_procs = len(spawned)
    contention = PolicyConfig(reaper=ReaperConfig()) if reaper else None
    ks = KubeShare(
        cluster,
        policy=HybridPolicy(max_idle=2, idle_ttl=TTL),
        contention=contention,
        replicas=replicas,
    ).start()
    ks.submit(sharepod(ks, "j", steps=20))
    run_until_idle(ks, "j")
    env.run(until=env.now + 1.0)

    def alive():
        # A pod's process (``workload:<pod>``) is its kubelet's.
        return sorted(
            name
            for _, _, name, proc in spawned[cluster_procs:]
            if proc.is_alive and not (name or "").startswith("workload:")
        )

    groups = ["kubeshare-sched", "kubeshare-devmgr"]
    expected = {f"{group}:worker0" for group in groups} | {"devmgr:node-watch"}
    if reaper:
        groups += ["quota-controller", "reaper"]
        expected |= {"quota-controller:worker0", "reaper:sweep"}
    if replicas:
        expected |= {f"elector:{group}-{i}" for group in groups for i in range(replicas)}
    assert expected <= set(alive())

    ks.stop()
    assert alive() == []
    assert {prefix: etcd.watchers(prefix) for prefix in prefixes} == watchers
