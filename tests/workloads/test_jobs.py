"""Unit tests for the deep-learning job models (Table 3)."""

import pytest

from repro.gpu.device import GPUDevice, V100_MEMORY
from repro.gpu.standalone import standalone_context
from repro.sim import Environment
from repro.workloads.jobs import InferenceJob, JobStats, TrainingJob


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def gpu(env):
    return GPUDevice(env, uuid="GPU-w", node_name="n0")


def run_workload(env, gpu, workload, ctx=None):
    ctx = ctx or standalone_context(env, [gpu])
    proc = env.process(workload(ctx))
    env.run(until=proc)
    return proc.value


class TestTrainingJob:
    def test_total_work(self):
        job = TrainingJob("t", steps=100, step_work=0.05)
        assert job.total_work == pytest.approx(5.0)

    def test_runs_to_completion_at_full_rate(self, env, gpu):
        job = TrainingJob("t", steps=40, step_work=0.05)
        stats = run_workload(env, gpu, job.workload())
        assert stats.steps_done == 40
        assert stats.finished_at == pytest.approx(2.0)
        assert not stats.failed

    def test_progress_checkpoints(self, env, gpu):
        job = TrainingJob("t", steps=200, step_work=0.01, checkpoint_every=50)
        stats = run_workload(env, gpu, job.workload())
        assert len(stats.progress) == 4
        times = [t for t, _ in stats.progress]
        assert times == sorted(times)

    def test_memory_allocated_and_released(self, env, gpu):
        job = TrainingJob("t", steps=10, step_work=0.01, model_memory=2**30)
        run_workload(env, gpu, job.workload())
        assert gpu.memory_used == 0  # ctx destroyed in finally

    def test_failure_recorded_in_stats(self, env, gpu):
        job = TrainingJob("t", steps=10, model_memory=2 * V100_MEMORY)
        stats = JobStats("t")
        wl = job.workload(stats)
        ctx = standalone_context(env, [gpu])
        env.process(wl(ctx))
        with pytest.raises(Exception):
            env.run()
        assert stats.failed
        assert "GpuOutOfMemory" in stats.failure

    def test_stats_attached_to_factory(self):
        wl = TrainingJob("t").workload()
        assert isinstance(wl.stats, JobStats)


class TestInferenceJob:
    def test_demand_formula(self):
        job = InferenceJob("i", request_rate=20.0, request_work=0.015)
        assert job.demand == pytest.approx(0.30)

    def test_demand_capped_at_one(self):
        job = InferenceJob("i", request_rate=100.0, request_work=0.05)
        assert job.demand == 1.0

    def test_from_demand_roundtrip(self):
        job = InferenceJob.from_demand("i", demand=0.3, duration=60.0)
        assert job.demand == pytest.approx(0.3)
        assert job.requests / job.request_rate == pytest.approx(60.0, rel=0.01)

    def test_from_demand_validation(self):
        with pytest.raises(ValueError):
            InferenceJob.from_demand("i", demand=0.0)

    def test_alone_duration_matches_request_pacing(self, env, gpu):
        job = InferenceJob.from_demand("i", demand=0.4, duration=30.0)
        stats = run_workload(env, gpu, job.workload())
        assert stats.duration == pytest.approx(30.0, rel=0.02)

    def test_average_usage_equals_demand(self, env, gpu):
        job = InferenceJob.from_demand("i", demand=0.25, duration=40.0)
        stats = run_workload(env, gpu, job.workload())
        usage = gpu.busy_time() / stats.duration
        assert usage == pytest.approx(0.25, abs=0.02)

    def test_throttled_job_takes_longer_but_finishes(self, env, gpu):
        from repro.gpu.backend import TokenBackend
        from repro.gpu.standalone import kubeshare_env_vars

        job = InferenceJob.from_demand("i", demand=0.8, duration=10.0)
        ctx = standalone_context(
            env,
            [gpu],
            env_vars=kubeshare_env_vars(0.2, 0.4, 1.0, "fluid"),
            backend=TokenBackend(env, handoff_overhead=0.0),
        )
        proc = env.process(job.workload()(ctx))
        env.run(until=proc)
        # 8.0 of work squeezed to a 0.4 limit ⇒ ≈20 s instead of 10 s
        assert env.now == pytest.approx(20.0, rel=0.05)

    @pytest.mark.parametrize("isolation", [None, "fluid"])
    def test_backlogged_server_catches_up(self, env, gpu, isolation):
        """After a contention phase ends, a backlogged server bursts above
        its nominal demand instead of idling (arrival-paced model). Under
        fluid isolation the engine serves the stream as a paced session."""
        from repro.gpu.backend import TokenBackend
        from repro.gpu.standalone import kubeshare_env_vars

        job = InferenceJob.from_demand("i", demand=0.5, duration=20.0)
        squeezer_done = {}

        def squeezer(ctx):
            api = ctx.cuda()
            cu = api.cu_ctx_create()
            yield from api.cu_launch_kernel(cu, 8.0)  # hog until t≈?
            api.cu_ctx_destroy(cu)
            squeezer_done["t"] = ctx.env.now

        ctx1 = standalone_context(env, [gpu])
        if isolation is None:
            ctx2 = standalone_context(env, [gpu])
        else:
            ctx2 = standalone_context(
                env,
                [gpu],
                env_vars=kubeshare_env_vars(0.0, 1.0, 1.0, isolation),
                backend=TokenBackend(env),
            )
        env.process(squeezer(ctx1))
        p = env.process(job.workload()(ctx2))
        env.run(until=p)
        # fair sharing with the hog slows the server early on, but it must
        # still finish well before 2x its nominal duration
        assert env.now < 30.0


class TestPacedInferenceServer:
    """Under fluid isolation a server launches every request before its
    last batch as one paced launch; the batch loop serves the last batch."""

    DEMAND = 0.3
    LIMIT = 0.36

    def context(self, env, gpu, isolation="fluid"):
        from repro.gpu.backend import TokenBackend
        from repro.gpu.standalone import kubeshare_env_vars

        backend = TokenBackend(env)  # non-zero handoff overhead
        ctx = standalone_context(
            env,
            [gpu],
            env_vars=kubeshare_env_vars(self.DEMAND, self.LIMIT, 1.0, isolation),
            backend=backend,
        )
        return ctx, backend

    def test_lone_server_finishes_at_batch_loop_time(self, env, gpu):
        job = InferenceJob.from_demand("i", demand=self.DEMAND, duration=40.0, batch_requests=50)
        ctx, backend = self.context(env, gpu)
        stats = run_workload(env, gpu, job.workload(), ctx)
        n, batch, rate = job.requests, job.batch_requests, job.request_rate
        last = n % batch or batch
        work = job.request_work * (1.0 + backend.handoff_overhead / backend.quota)
        # The batch loop's lone finish: the last batch is due when its
        # first request arrives, and runs at the limit.
        assert stats.finished_at == pytest.approx((n - last) / rate + last * work / self.LIMIT, abs=1e-9)
        assert stats.steps_done == n
        assert stats.work_done == pytest.approx(job.total_work)

    def test_server_resumes_at_start_and_twice_more(self, env, gpu):
        from repro.sim import environment

        job = InferenceJob.from_demand("i", demand=self.DEMAND, duration=40.0, batch_requests=50)
        ctx, _ = self.context(env, gpu)
        proc = env.process(job.workload()(ctx))
        resumes = []

        class Recorder:
            def dispatch(self, event, callbacks):
                for callback in callbacks:
                    if getattr(callback, "__self__", None) is proc:
                        resumes.append(env.now)
                    callback(event)

        environment.set_profile_hook(Recorder())
        try:
            env.run(until=proc)
        finally:
            environment.set_profile_hook(None)
        # start, end of the paced body, end of the last batch (the batch
        # loop resumes about twice per batch: 32 times here)
        assert len(resumes) <= 3
        assert resumes[0] == 0.0 and resumes[-1] == env.now

    def test_token_server_launches_once_per_batch(self, env, gpu, monkeypatch):
        from repro.gpu.cuda import CudaAPI

        launches = []
        launch = CudaAPI.cu_launch_kernel

        def counting(api, cu, work, pace=0.0):
            launches.append(pace)
            return launch(api, cu, work, pace)

        monkeypatch.setattr(CudaAPI, "cu_launch_kernel", counting)
        job = InferenceJob.from_demand("i", demand=self.DEMAND, duration=4.0, batch_requests=10)
        ctx, _ = self.context(env, gpu, isolation="token")
        stats = run_workload(env, gpu, job.workload(), ctx)
        assert stats.steps_done == job.requests == 80
        assert launches == [0.0] * 8
