"""Unit tests for the CUDA driver-API façade and interception registry."""

import pytest

from repro.gpu.cuda import CudaAPI, CudaError
from repro.gpu.device import GPUDevice, GpuOutOfMemory
from repro.gpu.interception import HookRegistry
from repro.gpu.standalone import standalone_context
from repro.sim import Environment


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def gpu(env):
    return GPUDevice(env, uuid="GPU-x", node_name="n0")


@pytest.fixture
def api(env, gpu):
    return standalone_context(env, [gpu]).cuda()


class TestContexts:
    def test_create_on_visible_device(self, api, gpu):
        ctx = api.cu_ctx_create()
        assert ctx.device is gpu
        assert len(api.contexts) == 1

    def test_no_visible_devices_raises(self, env, gpu):
        cctx = standalone_context(env, [gpu], env_vars={"NVIDIA_VISIBLE_DEVICES": "none"})
        with pytest.raises(CudaError, match="no CUDA-capable device"):
            cctx.cuda().cu_ctx_create()

    def test_bad_ordinal_raises(self, api):
        with pytest.raises(CudaError, match="ordinal"):
            api.cu_ctx_create(device_index=5)

    def test_destroy_frees_memory_and_session(self, api, gpu):
        ctx = api.cu_ctx_create()
        api.cu_mem_alloc(ctx, 1024)
        api.cu_ctx_destroy(ctx)
        assert gpu.memory_used == 0
        assert gpu.sessions == []
        assert api.contexts == []

    def test_double_destroy_raises(self, api):
        ctx = api.cu_ctx_create()
        api.cu_ctx_destroy(ctx)
        with pytest.raises(CudaError):
            api.cu_ctx_destroy(ctx)

    def test_calls_on_destroyed_context_raise(self, api):
        ctx = api.cu_ctx_create()
        api.cu_ctx_destroy(ctx)
        with pytest.raises(CudaError):
            api.cu_mem_alloc(ctx, 1)


class TestMemory:
    def test_alloc_tracks_on_device(self, api, gpu):
        ctx = api.cu_ctx_create()
        ptr = api.cu_mem_alloc(ctx, 2048)
        assert ptr.nbytes == 2048
        assert gpu.memory_used == 2048

    def test_array_create_same_ledger(self, api, gpu):
        ctx = api.cu_ctx_create()
        api.cu_array_create(ctx, 512)
        assert gpu.memory_used == 512

    def test_free_returns_memory(self, api, gpu):
        ctx = api.cu_ctx_create()
        ptr = api.cu_mem_alloc(ctx, 2048)
        api.cu_mem_free(ctx, ptr)
        assert gpu.memory_used == 0

    def test_double_free_raises(self, api):
        ctx = api.cu_ctx_create()
        ptr = api.cu_mem_alloc(ctx, 64)
        api.cu_mem_free(ctx, ptr)
        with pytest.raises(CudaError):
            api.cu_mem_free(ctx, ptr)

    def test_zero_alloc_rejected(self, api):
        ctx = api.cu_ctx_create()
        with pytest.raises(CudaError):
            api.cu_mem_alloc(ctx, 0)

    def test_physical_oom_propagates(self, api, gpu):
        ctx = api.cu_ctx_create()
        with pytest.raises(GpuOutOfMemory):
            api.cu_mem_alloc(ctx, gpu.memory + 1)


class TestLaunch:
    def test_launch_executes_work(self, env, api):
        ctx = api.cu_ctx_create()

        def proc():
            yield from api.cu_launch_kernel(ctx, 2.5)
            return env.now

        p = env.process(proc())
        env.run()
        assert p.value == pytest.approx(2.5)

    def test_launch_grid_same_path(self, env, api):
        ctx = api.cu_ctx_create()

        def proc():
            yield from api.cu_launch_grid(ctx, 1.0)
            return env.now

        p = env.process(proc())
        env.run()
        assert p.value == pytest.approx(1.0)

    def test_negative_work_rejected(self, env, api):
        ctx = api.cu_ctx_create()

        def proc():
            yield from api.cu_launch_kernel(ctx, -1.0)

        env.process(proc())
        with pytest.raises(CudaError):
            env.run()

    @pytest.mark.parametrize("pace", [-1.0, float("nan"), float("inf")])
    def test_bad_pace_rejected(self, env, api, pace):
        ctx = api.cu_ctx_create()

        def proc():
            yield from api.cu_launch_kernel(ctx, 1.0, pace=pace)

        env.process(proc())
        with pytest.raises(CudaError):
            env.run()

    def test_memcpy_costs_transfer_time(self, env, api):
        ctx = api.cu_ctx_create()
        ptr = api.cu_mem_alloc(ctx, int(CudaAPI.HTOD_BANDWIDTH))

        def proc():
            yield from api.cu_memcpy_htod(ctx, ptr, int(CudaAPI.HTOD_BANDWIDTH))
            return env.now

        p = env.process(proc())
        env.run()
        assert p.value == pytest.approx(1.0)

    def test_memcpy_overflow_rejected(self, env, api):
        ctx = api.cu_ctx_create()
        ptr = api.cu_mem_alloc(ctx, 10)

        def proc():
            yield from api.cu_memcpy_htod(ctx, ptr, 20)

        env.process(proc())
        with pytest.raises(CudaError):
            env.run()


class TestHookRegistry:
    def test_uninstalled_symbol_calls_original(self):
        hooks = HookRegistry()
        assert hooks.call("sym", lambda x: x + 1, 41) == 42

    def test_wrapper_wraps_original(self):
        hooks = HookRegistry()
        hooks.install("sym", lambda next_fn, x: next_fn(x) * 10)
        assert hooks.call("sym", lambda x: x + 1, 1) == 20

    def test_wrappers_compose_lifo(self):
        hooks = HookRegistry()
        hooks.install("sym", lambda next_fn, x: next_fn(x) + "a")
        hooks.install("sym", lambda next_fn, x: next_fn(x) + "b")
        # last installed runs outermost
        assert hooks.call("sym", lambda x: x, "") == "ab"

    def test_uninstall(self):
        hooks = HookRegistry()
        wrapper = lambda next_fn, x: -next_fn(x)  # noqa: E731
        hooks.install("sym", wrapper)
        hooks.uninstall("sym", wrapper)
        assert not hooks.installed("sym")
        assert hooks.call("sym", lambda x: x, 5) == 5

    def test_observers_notified(self):
        hooks = HookRegistry()
        seen = []
        hooks.observe("free", lambda *a: seen.append(a))
        hooks.notify("free", 1, 2)
        assert seen == [(1, 2)]

    def test_wrapper_can_block_call(self):
        hooks = HookRegistry()

        def deny(next_fn, x):
            raise PermissionError("quota")

        hooks.install("sym", deny)
        with pytest.raises(PermissionError):
            hooks.call("sym", lambda x: x, 1)
