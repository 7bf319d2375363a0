"""Unit tests for the GPU device: memory ledger + fluid compute engine."""

import pytest

from repro.gpu.device import DeviceLostError, GPUDevice, GpuOutOfMemory, V100_MEMORY
from repro.sim import Environment


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def gpu(env):
    return GPUDevice(env, uuid="GPU-t", node_name="n0")


class TestMemoryLedger:
    def test_alloc_and_free(self, gpu):
        gpu.alloc_memory("c1", 4 * 2**30)
        assert gpu.memory_used == 4 * 2**30
        gpu.free_memory("c1", 4 * 2**30)
        assert gpu.memory_used == 0

    def test_oom_on_physical_exhaustion(self, gpu):
        gpu.alloc_memory("c1", V100_MEMORY)
        with pytest.raises(GpuOutOfMemory):
            gpu.alloc_memory("c2", 1)

    def test_free_all_for_owner(self, gpu):
        gpu.alloc_memory("c1", 100)
        gpu.alloc_memory("c1", 200)
        gpu.free_memory("c1")
        assert gpu.memory_of("c1") == 0

    def test_overfree_raises(self, gpu):
        gpu.alloc_memory("c1", 100)
        with pytest.raises(ValueError):
            gpu.free_memory("c1", 200)

    def test_negative_alloc_rejected(self, gpu):
        with pytest.raises(ValueError):
            gpu.alloc_memory("c1", -5)

    def test_per_owner_accounting(self, gpu):
        gpu.alloc_memory("a", 10)
        gpu.alloc_memory("b", 20)
        assert gpu.memory_of("a") == 10
        assert gpu.memory_of("b") == 20
        assert gpu.memory_free == gpu.memory - 30


class TestComputeEngine:
    def test_single_session_runs_at_full_rate(self, env, gpu):
        s = gpu.open_session("job")

        def proc():
            yield from s.run(5.0)
            return env.now

        p = env.process(proc())
        env.run()
        assert p.value == pytest.approx(5.0)

    def test_limit_caps_rate(self, env, gpu):
        s = gpu.open_session("job", limit=0.5)

        def proc():
            yield from s.run(5.0)
            return env.now

        p = env.process(proc())
        env.run()
        assert p.value == pytest.approx(10.0)

    def test_demand_caps_rate(self, env, gpu):
        s = gpu.open_session("job")

        def proc():
            yield from s.run(3.0, demand=0.3)
            return env.now

        p = env.process(proc())
        env.run()
        assert p.value == pytest.approx(10.0)

    def test_two_saturating_sessions_share_fairly(self, env, gpu):
        done = {}

        def proc(name):
            s = gpu.open_session(name)
            yield from s.run(5.0)
            done[name] = env.now
            s.close()

        env.process(proc("a"))
        env.process(proc("b"))
        env.run()
        # both at 0.5 until first completes; total work 10 => both ~10.0
        assert done["a"] == pytest.approx(10.0)
        assert done["b"] == pytest.approx(10.0)

    def test_departure_speeds_up_remaining(self, env, gpu):
        done = {}

        def proc(name, work):
            s = gpu.open_session(name)
            yield from s.run(work)
            done[name] = env.now
            s.close()

        env.process(proc("small", 1.0))
        env.process(proc("big", 5.0))
        env.run()
        # share 0.5 until small finishes at t=2, then big runs alone:
        # big did 1.0 by t=2, then 4.0 more at rate 1 => t=6.
        assert done["small"] == pytest.approx(2.0)
        assert done["big"] == pytest.approx(6.0)

    def test_request_guarantee_respected(self, env, gpu):
        done = {}

        def proc(name, request, limit, work):
            s = gpu.open_session(name, request=request, limit=limit)
            yield from s.run(work)
            done[name] = env.now
            s.close()

        # guaranteed 0.7 vs best-effort: guaranteed job gets its floor
        env.process(proc("vip", 0.7, 1.0, 7.0))
        env.process(proc("be", 0.0, 1.0, 10.0))
        env.run()
        assert done["vip"] == pytest.approx(10.0)

    def test_isolated_sessions_escape_contention(self, env):
        gpu = GPUDevice(env, "GPU-c", "n0", contention_per_peer=0.25)
        done = {}

        def proc(name, isolated):
            s = gpu.open_session(name, isolated=isolated)
            yield from s.run(2.0)
            done[name] = env.now
            s.close()

        env.process(proc("iso", True))
        env.process(proc("raw", False))
        env.run()
        # both get 0.5 shares but the unisolated one pays the 1.25 factor
        assert done["iso"] < done["raw"]

    def test_unisolated_overcommit_contention(self, env):
        gpu = GPUDevice(env, "GPU-c", "n0", contention_per_peer=0.2)
        done = {}

        def proc(name):
            s = gpu.open_session(name, isolated=False)
            yield from s.run(3.0)
            done[name] = env.now
            s.close()

        env.process(proc("a"))
        env.process(proc("b"))
        env.run()
        # fair share 0.5, contention eff = 1/1.2 => rate 0.4167 => ~7.2s+
        assert done["a"] > 6.0 + 1.0

    def test_closed_session_rejects_run(self, env, gpu):
        s = gpu.open_session("x")
        s.close()
        with pytest.raises(RuntimeError):
            next(iter(s.run(1.0)))

    def test_param_validation(self, env, gpu):
        with pytest.raises(ValueError):
            gpu.open_session("x", request=1.5)
        with pytest.raises(ValueError):
            gpu.open_session("x", limit=0.0)

    def test_set_params_rebalances(self, env, gpu):
        done = {}

        def throttled():
            s = gpu.open_session("t", limit=0.25)
            env.process(adjuster(s))
            yield from s.run(2.0)
            done["t"] = env.now

        def adjuster(s):
            yield env.timeout(4.0)  # 1.0 work done at rate 0.25
            s.set_params(limit=1.0)

        env.process(throttled())
        env.run()
        assert done["t"] == pytest.approx(5.0)


class TestCut:
    """``GPUDevice.cut``: a run ends at the next multiple of the grain of
    work from its start, or at once for a zero grain, re-timed in place."""

    def run_with_cut(self, work, at, grain, rate=1.0):
        """Run *work* on a fresh device and cut it at *at* (not at all
        for a None *grain*); returns (finish, work done, events)."""
        env = Environment()
        gpu = GPUDevice(env, uuid="GPU-c", node_name="n0")
        s = gpu.open_session("job", limit=rate)
        done = []

        def proc():
            yield from s.run(work)
            done.append(env.now)

        env.process(proc())
        if grain is not None:
            env.timeout(at).callbacks.append(lambda _e: gpu.cut(s, grain))
        else:
            env.timeout(at)
        env.run()
        return done[0], s.work, env.events_processed

    def test_run_ends_at_next_grain_boundary(self):
        # 0.25 of work done at t=0.5 (rate 0.5): the next boundary is 0.3
        end, work, events = self.run_with_cut(1.0, at=0.5, grain=0.1, rate=0.5)
        assert work == pytest.approx(0.3)
        assert end == pytest.approx(0.6)
        assert events == self.run_with_cut(1.0, at=0.5, grain=None)[2]

    def test_zero_grain_ends_run_at_once(self):
        assert self.run_with_cut(1.0, at=0.25, grain=0.0)[:2] == (0.25, 0.25)

    @pytest.mark.parametrize("at, grain", [(0.95, 0.5), (1.0, 0.1), (2.0, 0.1)])
    def test_no_op_when_the_run_ends_there_anyway(self, at, grain):
        """A boundary at or past the finish, a finish timer due now (the
        cut's timer is queued first), and no run in flight all leave the
        run and its events as they were."""
        uncut = self.run_with_cut(1.0, at, grain=None)
        assert uncut[:2] == (1.0, 1.0)
        assert self.run_with_cut(1.0, at, grain) == uncut


class TestUtilizationAccounting:
    def test_busy_time_integrates_rates(self, env, gpu):
        s = gpu.open_session("job", limit=0.5)

        def proc():
            yield from s.run(2.0)  # 4 seconds at 0.5

        env.process(proc())
        env.run()
        assert gpu.busy_time() == pytest.approx(2.0)
        assert env.now == pytest.approx(4.0)

    def test_granted_time_per_session(self, env, gpu):
        s1 = gpu.open_session("a")
        s2 = gpu.open_session("b")

        def proc(s, work):
            yield from s.run(work)

        env.process(proc(s1, 1.0))
        env.process(proc(s2, 1.0))
        env.run()
        assert s1.granted_time() == pytest.approx(1.0)
        assert s2.granted_time() == pytest.approx(1.0)

    def test_utilization_since(self, env, gpu):
        s = gpu.open_session("job")
        t0, b0 = env.now, gpu.busy_time()

        def proc():
            yield from s.run(3.0)
            yield env.timeout(3.0)  # idle second half

        env.process(proc())
        env.run()
        assert gpu.utilization_since(t0, b0) == pytest.approx(0.5)


class TestPacedSessions:
    """A paced run serves a request stream as it arrives: appetite *pace*
    while on schedule, the limit while behind, until it catches up."""

    def squeeze(self, env, gpu):
        """Paced P (work 4.0 at 0.5/s, limit 0.75) against S, whose 0.75
        request leaves P 0.25 until S's 1.5 of work ends at t=2. P then
        runs at its limit and has served all arrivals (2.0) at t=4."""
        p = gpu.open_session("p", limit=0.75)
        s = gpu.open_session("s", request=0.75)
        done = {}

        def paced():
            yield from p.run_paced(4.0, 0.5)
            done["p"] = env.now

        def saturating():
            yield from s.run(1.5)
            done["s"] = env.now

        proc = env.process(paced())
        env.process(saturating())
        return p, proc, done

    def test_lone_session_finishes_when_arrivals_end(self, env, gpu):
        s = gpu.open_session("job")

        def proc():
            yield from s.run_paced(3.0, 0.25)

        env.process(proc())
        env.run()
        assert env.now == 12.0
        assert gpu.busy_time() == 3.0

    @pytest.mark.parametrize("limit, pace", [(0.5, 0.75), (1.0, 1.5)])
    def test_pace_above_limit_runs_at_limit(self, env, gpu, limit, pace):
        s = gpu.open_session("job", limit=limit)

        def proc():
            yield from s.run_paced(3.0, pace)

        env.process(proc())
        env.run(until=1.0)
        assert s.rate == limit
        env.run()
        assert env.now == 3.0 / limit

    def test_squeezed_session_falls_behind_and_catches_up(self, env, gpu):
        p, _, done = self.squeeze(env, gpu)
        seen = {}

        def probe():
            for t in (1.0, 3.0, 4.0, 5.0):
                yield env.timeout(t - env.now)
                seen[t] = (p.rate, p._behind, p.granted_time())

        env.process(probe())
        env.run()
        assert done == {"s": 2.0, "p": 8.0}
        assert seen[1.0] == (0.25, True, 0.25)  # squeezed below its pace
        assert seen[3.0] == (0.75, True, 1.25)  # bursting at its limit
        assert seen[4.0][2] == 2.0  # served every arrival at t=4
        assert seen[5.0] == (0.5, False, 2.5)  # back on schedule
        assert gpu.busy_time() == 4.0 + 1.5
        assert gpu._paced == 0 and p.pace == 0.0

    def test_squeeze_of_no_duration_leaves_session_on_schedule(self, env, gpu):
        """P starts at t=1 just before S's finish timer, due at t=1,
        fires: for no time at all S leaves P below its pace. Behind
        follows the backlog, which is empty, so P is on schedule again
        once S leaves, rather than running ahead of its arrivals."""
        p = gpu.open_session("p")
        s = gpu.open_session("s", request=0.75)
        done = {}

        def paced():
            yield env.timeout(1.0)  # queued before S's finish timer
            yield from p.run_paced(2.0, 0.5)
            done["p"] = env.now

        def saturating():
            yield from s.run(1.0)

        env.process(paced())
        env.process(saturating())
        env.run()
        assert done == {"p": 5.0}

    def test_kill_mid_slice_leaves_no_live_timer(self, env, gpu):
        p, proc, done = self.squeeze(env, gpu)

        def killer():
            yield env.timeout(3.0)  # inside the catch-up slice
            proc.kill()

        env.process(killer())
        env.run()
        assert env.now == 3.0 and env.peek() == float("inf")
        assert done == {"s": 2.0}
        assert gpu._paced == 0 and p.rate == 0.0

    def test_device_failure_raises_into_paced_run(self, env, gpu):
        s = gpu.open_session("job")
        seen = []

        def proc():
            try:
                yield from s.run_paced(4.0, 0.5)
            except DeviceLostError:
                seen.append(env.now)

        def breaker():
            yield env.timeout(1.0)
            gpu.fail()

        env.process(proc())
        env.process(breaker())
        env.run()
        assert seen == [1.0]
        assert gpu._paced == 0 and s.pace == 0.0
