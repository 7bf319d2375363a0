"""Unit tests for the container runtime (start latency, stop, workloads).

The runtime spawns no process: each test runs a container start and its
workload inside one process, the way the kubelet's pod process does.
"""

import pytest

from repro.cluster.runtime import ContainerContext, ContainerRuntime, RuntimeLatency
from repro.sim import Environment


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def runtime(env):
    return ContainerRuntime(
        env, "node0", latency=RuntimeLatency(base=0.5, setup=1.0, setup_slots=1)
    )


def ctx_for(env, name="pod"):
    return ContainerContext(
        env=env, pod_name=name, pod_uid=f"uid-{name}", node_name="node0"
    )


def pod(runtime, ctx, workload=None, out=None):
    """A pod process as the kubelet runs one: start the container, then
    run *workload* in it; *out* collects the start time and exit."""
    handle = yield from runtime.start_container(ctx)
    if out is not None:
        out["started"] = (ctx.env.now, handle)
    ok = yield from runtime.run(handle, ctx, workload)
    if out is not None:
        out["exited"] = (ok, handle.exit_value, handle.finished_at)


class TestStartLatency:
    def test_single_start_pays_base_plus_setup(self, env, runtime):
        out = {}
        env.process(pod(runtime, ctx_for(env), out=out))
        env.run(until=10)
        started_at, handle = out["started"]
        assert started_at == pytest.approx(1.5)
        assert handle.running
        assert runtime.containers == {"uid-pod": handle}

    def test_concurrent_starts_serialize_on_setup_slots(self, env, runtime):
        outs = [{} for _ in range(3)]
        for i, out in enumerate(outs):
            env.process(pod(runtime, ctx_for(env, f"p{i}"), out=out))
        env.run(until=10)
        times = [out["started"][0] for out in outs]
        assert times == pytest.approx([1.5, 2.5, 3.5])

    def test_started_total_counts(self, env, runtime):
        env.process(pod(runtime, ctx_for(env)))
        env.run(until=10)
        assert runtime.started_total == 1


class TestWorkloadExecution:
    def test_workload_value_recorded(self, env, runtime):
        def wl(ctx):
            yield ctx.env.timeout(2.0)
            return {"answer": 42}

        out = {}
        env.process(pod(runtime, ctx_for(env), wl, out))
        env.run()
        ok, value, finished = out["exited"]
        assert ok and value == {"answer": 42}
        assert finished == pytest.approx(3.5)

    def test_crashing_workload_reports_failure(self, env, runtime):
        def wl(ctx):
            yield ctx.env.timeout(0.1)
            raise RuntimeError("segfault")

        out = {}
        env.process(pod(runtime, ctx_for(env), wl, out))
        env.run()
        ok, value, _ = out["exited"]
        assert ok is False
        assert isinstance(value, RuntimeError)

    def test_stop_interrupts_service_workload(self, env, runtime):
        out = {}
        proc = env.process(pod(runtime, ctx_for(env, "svc"), out=out))
        env.run(until=5.0)
        handle = runtime.containers["uid-svc"]
        handle.stop()
        env.run()
        assert not handle.running and not proc.is_alive
        assert out["exited"] == (True, "stopped", 5.0)  # graceful stop

    def test_kill_fails_the_workload_and_runs_its_cleanup(self, env, runtime):
        cleaned = []

        def wl(ctx):
            try:
                yield ctx.env.timeout(10.0)
            finally:
                cleaned.append(ctx.env.now)

        out = {}
        env.process(pod(runtime, ctx_for(env), wl, out))
        env.run(until=5.0)
        runtime.containers["uid-pod"].kill("oom")
        env.run()
        ok, value, finished = out["exited"]
        assert ok is False and repr(value) == "RuntimeError('oom')"
        assert cleaned == [5.0] and finished == 5.0

    def test_stop_unknown_container_is_noop(self, env, runtime):
        """Stopping a container that is gone or already exited does
        nothing: there is no handle to stop, or no process to reach."""

        def wl(ctx):
            yield ctx.env.timeout(1.0)

        env.process(pod(runtime, ctx_for(env), wl))
        env.run()
        assert runtime.containers.get("uid-ghost") is None
        handle = runtime.containers["uid-pod"]
        handle.stop()
        handle.kill()
        env.run()
        assert handle.exit_ok and handle.finished_at == pytest.approx(2.5)


class TestContainerContext:
    def test_visible_gpus_parsing(self, env):
        class FakeGPU:
            pass

        g1, g2 = FakeGPU(), FakeGPU()
        ctx = ContainerContext(
            env=env, pod_name="p", pod_uid="u", node_name="n",
            env_vars={"NVIDIA_VISIBLE_DEVICES": "g1"},
            gpu_registry={"g1": g1, "g2": g2},
        )
        assert ctx.visible_gpus() == [g1]
        ctx.env_vars["NVIDIA_VISIBLE_DEVICES"] = "all"
        assert set(ctx.visible_gpus()) == {g1, g2}
        ctx.env_vars["NVIDIA_VISIBLE_DEVICES"] = "none"
        assert ctx.visible_gpus() == []
        ctx.env_vars["NVIDIA_VISIBLE_DEVICES"] = "g1,g2"
        assert ctx.visible_gpus() == [g1, g2]
        ctx.env_vars["NVIDIA_VISIBLE_DEVICES"] = "g1,ghost"
        assert ctx.visible_gpus() == [g1]
