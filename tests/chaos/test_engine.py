"""Chaos engine: fault scheduling, target picking, and failure injection."""

import pytest

from repro.chaos import ChaosEngine, FaultKind
from repro.cluster import Cluster, ClusterConfig, ServiceUnavailable
from repro.cluster.objects import (
    GPU_RESOURCE,
    ContainerSpec,
    ObjectMeta,
    Pod,
    PodPhase,
    PodSpec,
)
from repro.sim import Environment, Process
from repro.sim.environment import set_profile_hook


def cpu_pod(name):
    return Pod(
        metadata=ObjectMeta(name=name),
        spec=PodSpec(containers=[ContainerSpec(requests={"cpu": 1})]),
    )


def build(env, nodes=2, **cfg):
    return Cluster(env, ClusterConfig(nodes=nodes, gpus_per_node=2, **cfg)).start()


class TestScheduling:
    def test_builders_accumulate_sorted_execution(self, env):
        cluster = build(env)
        eng = ChaosEngine(cluster, seed=1)
        eng.node_restart(at=30.0).node_crash(at=10.0).apiserver_outage(at=20.0, duration=1.0)
        eng.start()
        env.run(until=40.0)
        assert [f.kind for _, f, _, _ in eng.log] == [
            FaultKind.NODE_CRASH,
            FaultKind.APISERVER_OUTAGE,
            FaultKind.NODE_RESTART,
        ]
        assert [t for t, _, _, _ in eng.log] == [10.0, 20.0, 30.0]

    def test_same_seed_same_victims(self):
        def run(seed):
            env = Environment()
            cluster = build(env, nodes=4)
            eng = ChaosEngine(cluster, seed=seed)
            eng.node_crash(at=5.0).gpu_failure(at=10.0).container_crash(at=15.0)
            eng.start()
            env.run(until=20.0)
            return [(t, f.kind, target) for t, f, target, _ in eng.log]

        assert run(7) == run(7)
        # Different seeds pick different victims at least once across kinds.
        assert run(7) != run(8) or True  # seeds may collide; determinism is the claim

    def test_random_faults_deterministic(self, env):
        cluster = build(env)
        a = ChaosEngine(cluster, seed=42).random_faults(horizon=600.0)
        b = ChaosEngine(cluster, seed=42).random_faults(horizon=600.0)
        assert a.schedule == b.schedule
        assert all(f.at < 600.0 for f in a.schedule)
        c = ChaosEngine(cluster, seed=43).random_faults(horizon=600.0)
        assert a.schedule != c.schedule

    def test_explicit_target_respected(self, env):
        cluster = build(env)
        eng = ChaosEngine(cluster, seed=0).node_crash(at=1.0, target="node01")
        eng.start()
        env.run(until=2.0)
        assert cluster.node("node01").crashed
        assert not cluster.node("node00").crashed

    def test_noop_when_no_candidate(self, env):
        cluster = build(env)
        eng = ChaosEngine(cluster, seed=0).node_restart(at=1.0)  # nothing crashed
        eng.start()
        env.run(until=2.0)
        [(_, _, target, outcome)] = eng.log
        assert target is None
        assert outcome.startswith("no-op")


class TestFaultEffects:
    def test_node_crash_kills_containers_and_heartbeats(self, env):
        cluster = build(env)
        cluster.submit(cpu_pod("p1"))
        wait = env.process(cluster.wait_for_phase("p1", [PodPhase.RUNNING]))
        env.run(until=wait)
        victim = cluster.api.get("Pod", "p1").spec.node_name
        eng = ChaosEngine(cluster, seed=0).node_crash(at=env.now + 1.0)
        eng.start()
        env.run(until=env.now + 2.0)
        # prefer_busy: the node hosting the only container is picked
        assert eng.log[0][2] == victim
        assert cluster.node(victim).runtime.containers == {}
        env.run(until=env.now + 8.0)
        node = cluster.api.get("Node", victim, namespace="")
        assert not node.status.ready

    def test_node_crash_counts_only_running_containers(self, env):
        """Exited containers stay in the runtime's table until their pods
        are deleted; a node holding only those is idle, not busy."""

        def sleep(seconds):
            def wl(ctx):
                yield ctx.env.timeout(seconds)

            return wl

        def pinned(name, node, seconds):
            pod = cpu_pod(name)
            pod.spec.node_name = node
            pod.spec.workload = sleep(seconds)
            return pod

        cluster = build(env)
        cluster.submit(pinned("short0", "node00", 1.0))
        cluster.submit(pinned("short1", "node00", 1.0))
        cluster.submit(pinned("long", "node01", 1000.0))
        eng = ChaosEngine(cluster, seed=0).node_crash(at=10.0)
        eng.start()
        env.run(until=9.0)
        idle, busy = cluster.node("node00"), cluster.node("node01")
        assert [h.running for h in idle.runtime.containers.values()] == [False, False]
        assert [h.running for h in busy.runtime.containers.values()] == [True]
        env.run(until=11.0)
        assert eng.log[0][2] == "node01"
        assert busy.crashed and not idle.crashed

    def test_node_restart_brings_node_back(self, env):
        cluster = build(env)
        eng = ChaosEngine(cluster, seed=0)
        eng.node_crash(at=2.0, target="node00").node_restart(at=12.0)
        eng.start()
        env.run(until=20.0)
        assert not cluster.node("node00").crashed
        node = cluster.api.get("Node", "node00", namespace="")
        assert node.status.ready

    def test_gpu_failure_propagates_to_device_and_backend(self, env):
        from repro.gpu.device import DeviceLostError

        cluster = build(env)
        uuid = cluster.nodes[0].gpus[0].uuid
        eng = ChaosEngine(cluster, seed=0).gpu_failure(at=1.0, target=uuid)
        eng.start()
        env.run(until=3.0)
        gpu = cluster.gpu_by_uuid(uuid)
        assert gpu.failed
        backend = cluster.nodes[0].backend
        backend.register(uuid, "c1", 0.5, 1.0)

        def ask():
            yield from backend.acquire(uuid, "c1")

        env.process(ask())
        with pytest.raises(DeviceLostError):
            env.run()

    def test_gpu_recovery_restores_device(self, env):
        cluster = build(env)
        uuid = cluster.nodes[0].gpus[0].uuid
        eng = ChaosEngine(cluster, seed=0)
        eng.gpu_failure(at=1.0, target=uuid).gpu_recovery(at=5.0, target=uuid)
        eng.start()
        env.run(until=8.0)
        gpu = cluster.gpu_by_uuid(uuid)
        assert not gpu.failed
        node = cluster.api.get("Node", "node00", namespace="")
        assert node.status.unhealthy_gpus == []

    def test_backend_restart_bumps_epoch(self, env):
        cluster = build(env)
        restarts_before = [n.backend.restarts_total for n in cluster.nodes]
        eng = ChaosEngine(cluster, seed=0).backend_restart(at=1.0, target="node00")
        eng.start()
        env.run(until=2.0)
        assert cluster.node("node00").backend.restarts_total == restarts_before[0] + 1
        assert cluster.node("node01").backend.restarts_total == restarts_before[1]

    def test_container_crash_fails_the_pod(self, env):
        cluster = build(env)
        cluster.submit(cpu_pod("p1"))
        wait = env.process(cluster.wait_for_phase("p1", [PodPhase.RUNNING]))
        env.run(until=wait)
        eng = ChaosEngine(cluster, seed=0).container_crash(at=env.now + 0.5)
        eng.start()
        env.run(until=env.now + 3.0)
        pod = cluster.api.get("Pod", "p1")
        assert pod.status.phase is PodPhase.FAILED
        assert "crashed" in (pod.status.message or "")

    def test_container_crash_reaches_the_pod_process(self, env):
        """The kill interrupts the pod's one process: the workload's
        cleanup runs, and the same process writes Failed with the kill
        reason and gives the GPU back."""
        cluster = build(env, nodes=1)
        node = cluster.nodes[0]
        cleaned = []

        def service(ctx):
            try:
                yield ctx.env.event()
            finally:
                cleaned.append(ctx.env.now)

        pod = cpu_pod("p1")
        pod.spec.containers[0].requests[GPU_RESOURCE] = 1
        pod.spec.workload = service
        cluster.submit(pod)
        wait = env.process(cluster.wait_for_phase("p1", [PodPhase.RUNNING]))
        env.run(until=wait)
        assert node.device_manager.free_count(GPU_RESOURCE) == 1
        names = set()

        class Recorder:
            def dispatch(self, event, callbacks):
                for callback in callbacks:
                    receiver = getattr(callback, "__self__", None)
                    if isinstance(receiver, Process):
                        names.add(receiver.name)
                    callback(event)

        crash_at = env.now + 0.5
        ChaosEngine(cluster, seed=0).container_crash(at=crash_at).start()
        set_profile_hook(Recorder())
        try:
            env.run(until=env.now + 3.0)
        finally:
            set_profile_hook(None)
        pod = cluster.api.get("Pod", "p1")
        assert pod.status.phase is PodPhase.FAILED
        assert pod.status.message == repr(RuntimeError("container crashed (chaos)"))
        assert pod.status.finish_time == cleaned[0] == crash_at
        assert [n for n in sorted(names) if n.endswith(":p1")] == ["workload:p1"]
        assert node.device_manager.free_count(GPU_RESOURCE) == 2

    def test_apiserver_outage_window(self, env):
        cluster = build(env)
        eng = ChaosEngine(cluster, seed=0).apiserver_outage(at=1.0, duration=2.0)
        eng.start()
        env.run(until=1.5)
        with pytest.raises(ServiceUnavailable):
            cluster.api.list("Pod")
        env.run(until=4.0)
        cluster.api.list("Pod")  # back up, no raise
        assert cluster.api.outages == [[1.0, 3.0]]

    def test_apiserver_latency_window_restores(self, env):
        cluster = build(env)
        eng = ChaosEngine(cluster, seed=0).apiserver_latency(
            at=1.0, duration=3.0, extra=0.05
        )
        eng.start()
        env.run(until=2.0)
        assert cluster.api.extra_latency == pytest.approx(0.05)
        env.run(until=5.0)
        assert cluster.api.extra_latency == pytest.approx(0.0)

    def test_cluster_survives_outage_during_node_failure(self, env):
        """The nasty overlap: a node dies while the apiserver is down.
        Controllers must ride out ServiceUnavailable and converge late."""
        cluster = build(env, nodes=3)
        cluster.submit(cpu_pod("p1"))
        wait = env.process(cluster.wait_for_phase("p1", [PodPhase.RUNNING]))
        env.run(until=wait)
        victim = cluster.api.get("Pod", "p1").spec.node_name
        eng = ChaosEngine(cluster, seed=0)
        t = env.now
        eng.apiserver_outage(at=t + 0.5, duration=4.0)
        eng.node_crash(at=t + 1.0, target=victim)
        eng.start()
        env.run(until=t + 20.0)
        node = cluster.api.get("Node", victim, namespace="")
        assert not node.status.ready
        assert cluster.api.get("Pod", "p1") is None  # evicted post-outage

    def test_errors_are_logged_not_raised(self, env):
        cluster = build(env)
        eng = ChaosEngine(cluster, seed=0)
        eng.gpu_failure(at=1.0, target="GPU-does-not-exist")
        eng.start()
        env.run(until=2.0)
        [(_, _, _, outcome)] = eng.log
        assert outcome.startswith("error:")
