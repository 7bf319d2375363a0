"""Unit tests for the vGPU device library (frontend, §4.5)."""

import pytest

from repro.gpu.backend import TokenBackend
from repro.gpu.device import GPUDevice, GpuOutOfMemory
from repro.gpu.frontend import (
    DEVICE_LIB_SONAME,
    ENV_ISOLATION,
    ENV_LIMIT,
    ENV_MEM,
    ENV_REQUEST,
)
from repro.gpu.standalone import kubeshare_env_vars, standalone_context
from repro.sim import Environment


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def gpu(env):
    return GPUDevice(env, uuid="GPU-f", node_name="n0")


def make_ctx(env, gpu, request=0.5, limit=0.8, mem=0.25, isolation="token",
             backend=None, name=None):
    return standalone_context(
        env,
        [gpu],
        env_vars=kubeshare_env_vars(request, limit, mem, isolation),
        backend=backend or TokenBackend(env),
        name=name,
    )


class TestInstallation:
    def test_library_installed_when_preloaded(self, env, gpu):
        api = make_ctx(env, gpu).cuda()
        assert api.hooks.installed("cuMemAlloc")
        assert api.hooks.installed("cuLaunchKernel")

    def test_no_preload_no_hooks(self, env, gpu):
        api = standalone_context(env, [gpu]).cuda()
        assert not api.hooks.installed("cuMemAlloc")
        assert not api.hooks.installed("cuLaunchKernel")

    def test_memory_mode_installs_memory_hooks_only(self, env, gpu):
        api = make_ctx(env, gpu, isolation="memory").cuda()
        assert api.hooks.installed("cuMemAlloc")
        assert not api.hooks.installed("cuLaunchKernel")

    @pytest.mark.parametrize(
        "isolation, overcommit, paced",
        [("token", False, False), ("fluid", False, True), ("memory", False, False), ("fluid", True, False)],
    )
    def test_only_fluid_library_takes_paced_launches(self, env, gpu, isolation, overcommit, paced):
        from repro.gpu.swap import ENV_MEM_OVERCOMMIT

        ctx = make_ctx(env, gpu, isolation=isolation)
        if overcommit:
            ctx.env_vars[ENV_MEM_OVERCOMMIT] = "1"
        assert ctx.cuda().paced_launches is paced
        assert standalone_context(env, [gpu]).cuda().paced_launches is False

    def test_token_isolation_rejects_paced_launch(self, env, gpu):
        from repro.gpu.cuda import CudaError

        api = make_ctx(env, gpu).cuda()
        cu = api.cu_ctx_create()

        def proc():
            yield from api.cu_launch_kernel(cu, 1.0, pace=0.3)

        env.process(proc())
        with pytest.raises(CudaError):
            env.run()

    def test_invalid_isolation_rejected(self, env, gpu):
        ctx = standalone_context(
            env,
            [gpu],
            env_vars={
                "LD_PRELOAD": DEVICE_LIB_SONAME,
                ENV_REQUEST: "0.5",
                ENV_LIMIT: "0.8",
                ENV_MEM: "0.3",
                ENV_ISOLATION: "quantum",
            },
        )
        with pytest.raises(ValueError, match="isolation"):
            ctx.cuda()

    def test_invalid_spec_env_rejected(self, env, gpu):
        ctx = standalone_context(
            env,
            [gpu],
            env_vars={
                "LD_PRELOAD": DEVICE_LIB_SONAME,
                ENV_REQUEST: "1.5",
                ENV_LIMIT: "0.8",
                ENV_MEM: "0.3",
            },
        )
        with pytest.raises(ValueError):
            ctx.cuda()

    def test_fluid_mode_configures_sessions(self, env, gpu):
        api = make_ctx(env, gpu, request=0.4, limit=0.7, isolation="fluid").cuda()
        cu = api.cu_ctx_create()
        assert cu.session.request == 0.4
        assert cu.session.limit == 0.7
        assert cu.session.isolated


class TestMemoryQuota:
    def test_allocation_within_quota(self, env, gpu):
        api = make_ctx(env, gpu, mem=0.25).cuda()
        cu = api.cu_ctx_create()
        api.cu_mem_alloc(cu, int(0.2 * gpu.memory))

    def test_allocation_beyond_quota_raises_oom(self, env, gpu):
        """The paper: the frontend throws OOM rather than over-committing."""
        api = make_ctx(env, gpu, mem=0.25).cuda()
        cu = api.cu_ctx_create()
        with pytest.raises(GpuOutOfMemory, match="gpu_mem quota"):
            api.cu_mem_alloc(cu, int(0.3 * gpu.memory))

    def test_quota_accumulates_across_allocations(self, env, gpu):
        api = make_ctx(env, gpu, mem=0.25).cuda()
        cu = api.cu_ctx_create()
        api.cu_mem_alloc(cu, int(0.15 * gpu.memory))
        with pytest.raises(GpuOutOfMemory):
            api.cu_mem_alloc(cu, int(0.15 * gpu.memory))

    def test_free_returns_quota(self, env, gpu):
        api = make_ctx(env, gpu, mem=0.25).cuda()
        cu = api.cu_ctx_create()
        ptr = api.cu_mem_alloc(cu, int(0.2 * gpu.memory))
        api.cu_mem_free(cu, ptr)
        api.cu_mem_alloc(cu, int(0.2 * gpu.memory))  # fits again

    def test_no_overcommit_between_containers(self, env, gpu):
        """Two containers with gpu_mem=0.6 each: the device itself rejects
        the second container's over-commitment (no swap support, §4.5)."""
        backend = TokenBackend(env)
        api1 = make_ctx(env, gpu, mem=0.6, backend=backend, name="c1").cuda()
        api2 = make_ctx(env, gpu, mem=0.6, backend=backend, name="c2").cuda()
        cu1 = api1.cu_ctx_create()
        cu2 = api2.cu_ctx_create()
        api1.cu_mem_alloc(cu1, int(0.6 * gpu.memory))
        with pytest.raises(GpuOutOfMemory):
            api2.cu_mem_alloc(cu2, int(0.6 * gpu.memory))


class TestTokenGating:
    def test_single_job_proceeds_with_small_overhead(self, env, gpu):
        backend = TokenBackend(env, quota=0.1, handoff_overhead=0.0015)
        api = make_ctx(env, gpu, backend=backend).cuda()
        cu = api.cu_ctx_create()

        def proc():
            yield from api.cu_launch_kernel(cu, 1.0)
            return env.now

        p = env.process(proc())
        env.run()
        assert 1.0 < p.value < 1.05  # ~1.5% token overhead

    def test_two_containers_serialize_via_token(self, env, gpu):
        backend = TokenBackend(env, quota=0.05, handoff_overhead=0.0)
        done = {}

        def job(name):
            api = make_ctx(
                env, gpu, request=0.5, limit=1.0, backend=backend, name=name
            ).cuda()
            cu = api.cu_ctx_create()
            yield from api.cu_launch_kernel(cu, 1.0)
            api.cu_ctx_destroy(cu)
            done[name] = env.now

        env.process(job("a"))
        env.process(job("b"))
        env.run()
        # total 2.0 of work time-sliced: both finish close to 2.0
        assert done["a"] == pytest.approx(2.0, abs=0.1)
        assert done["b"] == pytest.approx(2.0, abs=0.1)

    def test_limit_throttles_job(self, env, gpu):
        backend = TokenBackend(env, quota=0.1, window=1.0, handoff_overhead=0.0)
        api = make_ctx(env, gpu, request=0.2, limit=0.5, backend=backend).cuda()
        cu = api.cu_ctx_create()

        def proc():
            yield from api.cu_launch_kernel(cu, 2.0)
            return env.now

        p = env.process(proc())
        env.run()
        # limit 0.5 ⇒ 2.0 work needs ≈ 4s
        assert p.value == pytest.approx(4.0, rel=0.15)

    def test_ctx_destroy_releases_backend_state(self, env, gpu):
        backend = TokenBackend(env, quota=0.1)
        api = make_ctx(env, gpu, backend=backend, name="bye").cuda()
        cu = api.cu_ctx_create()

        def proc():
            yield from api.cu_launch_kernel(cu, 0.2)
            api.cu_ctx_destroy(cu)

        env.process(proc())
        env.run()
        assert backend.usage(gpu.uuid, "uid-bye") == 0.0

    def test_idle_container_reregisters_after_device_revival(self, env, gpu):
        # fail_device drops the device's client records without a daemon
        # restart; the next launch after the revival must register anew.
        backend = TokenBackend(env, quota=0.1)
        api = make_ctx(env, gpu, backend=backend, name="s").cuda()
        cu = api.cu_ctx_create()
        finished = []

        def proc():
            yield from api.cu_launch_kernel(cu, 0.2)
            yield env.timeout(0.5)
            gpu.fail()
            backend.fail_device(gpu.uuid)
            yield env.timeout(0.5)
            gpu.recover()
            backend.revive_device(gpu.uuid)
            yield from api.cu_launch_kernel(cu, 0.2)
            finished.append(env.now)

        env.process(proc())
        env.run()
        assert len(finished) == 1
        assert backend.registered(gpu.uuid, "uid-s")

    def test_missing_backend_raises(self, env, gpu):
        ctx = standalone_context(
            env, [gpu], env_vars=kubeshare_env_vars(0.5, 1.0, 0.3, "token")
        )
        api = ctx.cuda()
        cu = api.cu_ctx_create()

        def proc():
            yield from api.cu_launch_kernel(cu, 0.1)

        env.process(proc())
        with pytest.raises(RuntimeError, match="backend daemon"):
            env.run()


class TestFluidCalibration:
    def test_fluid_overhead_matches_token_quota_ratio(self, env, gpu):
        backend = TokenBackend(env, quota=0.1, handoff_overhead=0.0015)
        api = make_ctx(env, gpu, isolation="fluid", limit=1.0, backend=backend).cuda()
        cu = api.cu_ctx_create()

        def proc():
            yield from api.cu_launch_kernel(cu, 1.0)
            return env.now

        p = env.process(proc())
        env.run()
        assert p.value == pytest.approx(1.0 * (1 + 0.0015 / 0.1), rel=1e-6)
