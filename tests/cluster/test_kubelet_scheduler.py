"""Integration tests for kube-scheduler + kubelet + runtime on a cluster."""

import pytest

from repro.cluster import Cluster, ClusterConfig
from repro.cluster.apiserver import translate_event
from repro.cluster.objects import (
    GPU_RESOURCE,
    ContainerSpec,
    ObjectMeta,
    Pod,
    PodPhase,
    PodSpec,
)
from repro.cluster.runtime import RuntimeLatency
from repro.sim import Environment, Process
from repro.sim.environment import set_profile_hook


def gpu_pod(name, gpus=1, cpu=1.0, workload=None, node_selector=None):
    return Pod(
        metadata=ObjectMeta(name=name),
        spec=PodSpec(
            containers=[
                ContainerSpec(requests={"cpu": cpu, GPU_RESOURCE: gpus})
            ],
            workload=workload,
            node_selector=node_selector or {},
        ),
    )


def finish_quickly(ctx):
    yield ctx.env.timeout(1.0)
    return "ok"


class TestScheduling:
    def test_pod_gets_bound_and_runs(self, small_cluster):
        c = small_cluster
        c.submit(gpu_pod("p1", workload=finish_quickly))
        done = c.env.process(
            c.wait_for_phase("p1", [PodPhase.SUCCEEDED, PodPhase.FAILED])
        )
        c.env.run(until=done)
        pod = c.api.get("Pod", "p1")
        assert pod.status.phase is PodPhase.SUCCEEDED
        assert pod.spec.node_name in {"node00", "node01"}
        assert "NVIDIA_VISIBLE_DEVICES" in pod.status.container_env

    def test_least_allocated_spreads_pods(self, small_cluster):
        c = small_cluster
        for i in range(2):
            c.submit(gpu_pod(f"p{i}", workload=None))
        waits = [
            c.env.process(c.wait_for_phase(f"p{i}", [PodPhase.RUNNING]))
            for i in range(2)
        ]
        c.env.run(until=c.env.all_of(waits))
        nodes = {c.api.get("Pod", f"p{i}").spec.node_name for i in range(2)}
        assert len(nodes) == 2  # spread, not packed

    def test_queueing_when_gpus_exhausted(self, small_cluster):
        c = small_cluster

        def short(ctx):
            yield ctx.env.timeout(5.0)

        # 4 GPUs total; submit 5 single-GPU pods.
        for i in range(5):
            c.submit(gpu_pod(f"p{i}", workload=short))
        done = c.env.process(c.wait_all_terminal([f"p{i}" for i in range(5)]))
        c.env.run(until=done)
        finishes = sorted(
            c.api.get("Pod", f"p{i}").status.finish_time for i in range(5)
        )
        # The 5th pod had to wait for a release: clearly later than the rest.
        assert finishes[4] > finishes[3] + 2.0

    def test_node_selector_respected(self, env):
        cluster = Cluster(env, ClusterConfig(nodes=2, gpus_per_node=1))
        cluster.nodes[1].kubelet.labels["zone"] = "west"
        cluster.start()
        cluster.submit(
            gpu_pod("picky", workload=None, node_selector={"zone": "west"})
        )
        wait = env.process(cluster.wait_for_phase("picky", [PodPhase.RUNNING]))
        env.run(until=wait)
        assert cluster.api.get("Pod", "picky").spec.node_name == "node01"

    def test_impossible_request_stays_pending(self, small_cluster):
        c = small_cluster
        c.submit(gpu_pod("greedy", gpus=3))  # nodes only have 2 GPUs
        c.env.run(until=5)
        pod = c.api.get("Pod", "greedy")
        assert pod.status.phase is PodPhase.PENDING
        assert not pod.bound

    def test_prebound_pod_skips_scheduler(self, small_cluster):
        c = small_cluster
        pod = gpu_pod("pinned", workload=None)
        pod.spec.node_name = "node01"
        c.submit(pod)
        wait = c.env.process(c.wait_for_phase("pinned", [PodPhase.RUNNING]))
        c.env.run(until=wait)
        assert c.scheduler.binds_total == 0

    def test_a_read_failed_in_an_outage_waits_for_its_end(self):
        """A pod created as a 5 s outage begins: the scheduler's failed
        read waits until the apiserver is up, and binds then."""

        def outage(pod):
            env = Environment()
            cluster = Cluster(env, ClusterConfig(nodes=1, gpus_per_node=1)).start()
            env.run(until=10.0)
            before = env.events_processed
            bound = []

            def on_pod(raw):
                _, pod = translate_event(raw)
                if pod.bound and not bound:
                    bound.append(env.now)

            cluster.api.watch("Pod", deliver=on_pod)
            if pod is not None:
                cluster.submit(pod)
            cluster.api.set_outage(5.0)
            env.run(until=15.5)
            return env.events_processed - before, bound, cluster

        idle, _, _ = outage(None)
        events, bound, cluster = outage(gpu_pod("p", workload=None))
        # A retry every 50 ms would cost about 200 events here.
        assert events - idle <= 10
        assert bound == [15.0 + cluster.scheduler.attempt_latency]


class TestKubelet:
    def test_failing_workload_marks_pod_failed(self, small_cluster):
        c = small_cluster

        def crash(ctx):
            yield ctx.env.timeout(0.5)
            raise ValueError("bad model")

        c.submit(gpu_pod("crasher", workload=crash))
        done = c.env.process(
            c.wait_for_phase("crasher", [PodPhase.SUCCEEDED, PodPhase.FAILED])
        )
        c.env.run(until=done)
        pod = c.api.get("Pod", "crasher")
        assert pod.status.phase is PodPhase.FAILED
        assert "bad model" in pod.status.message

    def test_fractional_extended_request_fails_admission(self, small_cluster):
        c = small_cluster
        pod = Pod(
            metadata=ObjectMeta(name="frac"),
            spec=PodSpec(
                containers=[ContainerSpec(requests={GPU_RESOURCE: 0.5})],
            ),
        )
        pod.spec.node_name = "node00"  # bypass scheduler fit checks
        c.submit(pod)
        done = c.env.process(
            c.wait_for_phase("frac", [PodPhase.FAILED, PodPhase.RUNNING])
        )
        c.env.run(until=done)
        assert c.api.get("Pod", "frac").status.phase is PodPhase.FAILED

    def test_deleting_running_pod_releases_gpu(self, small_cluster):
        c = small_cluster
        c.submit(gpu_pod("svc", workload=None))  # runs forever
        wait = c.env.process(c.wait_for_phase("svc", [PodPhase.RUNNING]))
        c.env.run(until=wait)
        node = c.node(c.api.get("Pod", "svc").spec.node_name)
        assert node.device_manager.free_count(GPU_RESOURCE) == 1
        c.api.delete("Pod", "svc")
        c.env.run(until=c.env.now + 2)
        assert node.device_manager.free_count(GPU_RESOURCE) == 2

    def test_gpu_released_on_completion(self, small_cluster):
        c = small_cluster
        c.submit(gpu_pod("quick", workload=finish_quickly))
        done = c.env.process(c.wait_for_phase("quick", [PodPhase.SUCCEEDED]))
        c.env.run(until=done)
        total_free = sum(
            n.device_manager.free_count(GPU_RESOURCE) for n in c.nodes
        )
        assert total_free == 4

    def test_container_env_from_spec_preserved(self, small_cluster):
        c = small_cluster
        pod = gpu_pod("envy", workload=finish_quickly)
        pod.spec.containers[0].env["MY_FLAG"] = "42"
        c.submit(pod)
        done = c.env.process(c.wait_for_phase("envy", [PodPhase.SUCCEEDED]))
        c.env.run(until=done)
        env_vars = c.api.get("Pod", "envy").status.container_env
        assert env_vars["MY_FLAG"] == "42"
        assert "NVIDIA_VISIBLE_DEVICES" in env_vars


class TestRuntimeLatency:
    def test_start_latency_applied(self, small_cluster):
        c = small_cluster
        c.submit(gpu_pod("timed", workload=None))
        wait = c.env.process(c.wait_for_phase("timed", [PodPhase.RUNNING]))
        c.env.run(until=wait)
        pod = c.api.get("Pod", "timed")
        lat = c.config.runtime_latency
        assert pod.status.start_time >= lat.base + lat.setup

    def test_concurrent_starts_contend_for_setup_slots(self, env):
        cluster = Cluster(env, ClusterConfig(nodes=1, gpus_per_node=4)).start()
        for i in range(4):
            cluster.submit(gpu_pod(f"p{i}", workload=None))
        waits = [
            env.process(cluster.wait_for_phase(f"p{i}", [PodPhase.RUNNING]))
            for i in range(4)
        ]
        env.run(until=env.all_of(waits))
        starts = sorted(
            cluster.api.get("Pod", f"p{i}").status.start_time for i in range(4)
        )
        lat = cluster.config.runtime_latency
        # Only `setup_slots` containers set up at once: the last of 4 pods on
        # one node waits a full extra setup round.
        assert starts[3] >= starts[0] + lat.setup - 1e-6


class TestStartInCaller:
    def test_pod_start_dispatches_no_runtime_process(self, env):
        """The kubelet's pod process starts the container, runs the
        workload and reports its exit, and deleting the pod stops it: no
        other process runs on the pod's behalf."""
        cluster = Cluster(env, ClusterConfig(nodes=1, gpus_per_node=1)).start()
        names = set()

        class Recorder:
            def dispatch(self, event, callbacks):
                for callback in callbacks:
                    receiver = getattr(callback, "__self__", None)
                    if isinstance(receiver, Process):
                        names.add(receiver.name)
                    callback(event)

        cluster.submit(gpu_pod("p1", workload=finish_quickly))
        done = env.process(cluster.wait_for_phase("p1", [PodPhase.SUCCEEDED]))
        set_profile_hook(Recorder())
        try:
            env.run(until=done)
            cluster.api.delete("Pod", "p1")
            env.run(until=env.now + 1.0)
        finally:
            set_profile_hook(None)
        assert "workload:p1" in names
        assert [
            n for n in sorted(names)
            if n.split(":", 1)[0] in ("startpod", "container", "teardown", "runc")
        ] == []
        assert [n for n in sorted(names) if n.endswith(":p1")] == ["workload:p1"]


class TestDeleteMidStart:
    def test_pod_deleted_while_starting_never_runs(self, env):
        """Deleting a pod inside its container start kills the pod
        process: the start is abandoned with its setup slot, the
        workload never runs, and the GPU is free for the next pod."""
        cluster = Cluster(env, ClusterConfig(nodes=1, gpus_per_node=1)).start()
        node = cluster.nodes[0]
        slots = node.runtime._setup_slots
        ran = []

        def sleeper(ctx):
            ran.append(ctx.env.now)
            yield ctx.env.timeout(5.0)

        cluster.submit(gpu_pod("p1", workload=sleeper))
        env.run(until=0.5)  # inside the 1.3 s start, holding a setup slot
        assert slots.count == 1
        cluster.api.delete("Pod", "p1")
        env.run(until=10.0)
        assert ran == []
        assert node.runtime.containers == {} and node.runtime.started_total == 0
        assert slots.count == 0 and slots.queue == []
        assert node.device_manager.free_count(GPU_RESOURCE) == 1
        cluster.submit(gpu_pod("p2", workload=finish_quickly))
        done = env.process(cluster.wait_for_phase("p2", [PodPhase.SUCCEEDED]))
        env.run(until=done)
        assert ran == [] and node.runtime.started_total == 1


class TestCrashMidStart:
    """A node crash takes a container start in flight down with the
    kubelet: the start never materializes a container and never keeps a
    setup slot."""

    @pytest.mark.parametrize(
        "slot_taken", [True, False], ids=["waiting-for-slot", "during-setup"]
    )
    def test_crash_abandons_the_start(self, env, slot_taken):
        lat = RuntimeLatency(setup_slots=1)
        cluster = Cluster(
            env, ClusterConfig(nodes=1, gpus_per_node=1, runtime_latency=lat)
        ).start()
        node = cluster.nodes[0]
        slots = node.runtime._setup_slots

        def squatter():
            # Holds the only setup slot across the crash, so the pod's
            # start is still queued for it when the node goes down.
            with slots.request() as req:
                yield req
                yield env.timeout(2.0)

        if slot_taken:
            env.process(squatter())
        pod = gpu_pod("p1", workload=None)
        pod.spec.node_name = node.name
        cluster.submit(pod)
        env.run(until=lat.base + 0.1)
        assert (slots.count, len(slots.queue)) == (1, 1 if slot_taken else 0)
        node.crash()
        assert slots.queue == []
        assert slots.count == (1 if slot_taken else 0)
        env.run(until=3.0)
        # No container was created later, and the slot is free.
        assert node.runtime.started_total == 0
        assert node.runtime.containers == {}
        assert slots.count == 0 and slots.queue == []
        # The agent comes back clean and starts the pod exactly once.
        env.process(node.restart())
        running = env.process(cluster.wait_for_phase("p1", [PodPhase.RUNNING]))
        env.run(until=running)
        started = cluster.api.get("Pod", "p1").status.start_time
        assert started == pytest.approx(3.0 + lat.base + lat.setup)
        assert not node.kubelet.crashed
        assert node.runtime.started_total == 1
        assert slots.count == 0 and slots.queue == []
