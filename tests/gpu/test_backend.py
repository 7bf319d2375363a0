"""Unit tests for the token backend daemon (§4.5 token scheduling)."""

from functools import partial

import pytest

from repro.gpu.backend import TokenBackend
from repro.sim import Environment, Process
from repro.sim.environment import set_profile_hook

DEV = "GPU-0"


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def backend(env):
    return TokenBackend(env, quota=0.1, window=1.0, handoff_overhead=0.0)


class TestValidation:
    def test_bad_quota(self, env):
        with pytest.raises(ValueError):
            TokenBackend(env, quota=0)

    def test_window_smaller_than_quota(self, env):
        with pytest.raises(ValueError):
            TokenBackend(env, quota=0.1, window=0.05)

    def test_register_validates_ranges(self, backend):
        with pytest.raises(ValueError):
            backend.register(DEV, "c", request=-0.1, limit=0.5)
        with pytest.raises(ValueError):
            backend.register(DEV, "c", request=0.1, limit=0.0)

    def test_acquire_requires_registration(self, env, backend):
        def proc():
            yield from backend.acquire(DEV, "ghost")

        env.process(proc())
        with pytest.raises(KeyError):
            env.run()


class TestTokenProtocol:
    def test_single_client_gets_token_immediately(self, env, backend):
        backend.register(DEV, "c1", 0.5, 1.0)

        def proc():
            token = yield from backend.acquire(DEV, "c1")
            return (env.now, token.quota)

        p = env.process(proc())
        env.run()
        grant_time, quota = p.value
        # handoff_overhead=0 still pays the minimal decision delay (quota/1000)
        assert grant_time == pytest.approx(0.0, abs=backend.quota * 1e-3 + 1e-9)
        assert quota == 0.1

    def test_token_expires_after_quota(self, env, backend):
        backend.register(DEV, "c1", 0.5, 1.0)
        tokens = {}

        def proc():
            token = yield from backend.acquire(DEV, "c1")
            tokens["t"] = token
            yield env.timeout(0.2)

        env.process(proc())
        env.run()
        assert not tokens["t"].valid

    def test_release_passes_token_to_waiter(self, env, backend):
        backend.register(DEV, "a", 0.5, 1.0)
        backend.register(DEV, "b", 0.5, 1.0)
        times = {}

        def holder():
            token = yield from backend.acquire(DEV, "a")
            yield env.timeout(0.03)
            backend.release(token)

        def waiter():
            yield env.timeout(0.01)
            yield from backend.acquire(DEV, "b")
            times["b"] = env.now

        env.process(holder())
        env.process(waiter())
        env.run()
        # two minimal decision delays: the holder's grant and the re-grant
        assert times["b"] == pytest.approx(0.03, abs=2 * backend.quota * 1e-3 + 1e-6)

    def test_handoff_overhead_delays_grant(self, env):
        backend = TokenBackend(env, quota=0.1, handoff_overhead=0.005)
        backend.register(DEV, "c1", 0.5, 1.0)

        def proc():
            yield from backend.acquire(DEV, "c1")
            return env.now

        p = env.process(proc())
        env.run()
        assert p.value == pytest.approx(0.005)

    def test_stats_count_grants(self, env, backend):
        backend.register(DEV, "c1", 0.5, 1.0)

        def proc():
            for _ in range(3):
                token = yield from backend.acquire(DEV, "c1")
                yield env.timeout(0.02)
                backend.release(token)

        env.process(proc())
        env.run()
        assert backend.stats(DEV)["grants"] == 3

    def test_unregister_removes_queued_requests(self, env, backend):
        backend.register(DEV, "a", 0.5, 1.0)
        backend.register(DEV, "b", 0.5, 1.0)

        def holder():
            yield from backend.acquire(DEV, "a")
            yield env.timeout(0.01)
            backend.unregister(DEV, "b")

        def doomed():
            yield from backend.acquire(DEV, "b")

        env.process(holder())
        env.process(doomed())
        env.run(until=1.0)
        assert backend.stats(DEV)["queued"] == 0


class TestSchedulingPolicy:
    def test_below_request_client_prioritized(self, env, backend):
        """Step 2: the client farthest below its gpu_request goes first."""
        backend.register(DEV, "low", request=0.8, limit=1.0)
        backend.register(DEV, "high", request=0.1, limit=1.0)
        order = []

        def holder():
            token = yield from backend.acquire(DEV, "high")
            yield env.timeout(0.05)
            # both queue now; on release, 'low' must win (0.8 - 0 > 0.1 - x)
            backend.release(token)

        def client(name, delay):
            yield env.timeout(delay)
            yield from backend.acquire(DEV, name)
            order.append(name)

        env.process(holder())
        env.process(client("high", 0.01))
        env.process(client("low", 0.02))
        env.run(until=0.5)
        assert order[0] == "low"

    def test_limit_filter_blocks_overuser(self, env):
        """Step 1: a client at its gpu_limit must wait for its usage to
        decay below the limit."""
        backend = TokenBackend(env, quota=0.1, window=0.5, handoff_overhead=0.0)
        backend.register(DEV, "capped", request=0.1, limit=0.3)
        grants = []

        def proc():
            for _ in range(4):
                token = yield from backend.acquire(DEV, "capped")
                grants.append(env.now)
                yield env.timeout(token.remaining(env.now))

        env.process(proc())
        env.run(until=3.0)
        # after the first two grants usage=0.2/0.5=0.4 > 0.3 ⇒ throttled;
        # further grants spread out instead of back-to-back.
        assert grants[1] - grants[0] == pytest.approx(0.1, abs=0.03)
        assert grants[2] - grants[1] > 0.15

    def test_usage_tracking_sliding_window(self, env, backend):
        backend.register(DEV, "c1", 0.5, 1.0)

        def proc():
            token = yield from backend.acquire(DEV, "c1")
            yield env.timeout(token.remaining(env.now))  # hold 0.1 of 1.0 win
            yield env.timeout(0.1)

        env.process(proc())
        env.run()
        usage = backend.usage(DEV, "c1")
        assert usage == pytest.approx(0.1, abs=0.02)

    def test_usage_decays_to_zero(self, env, backend):
        backend.register(DEV, "c1", 0.5, 1.0)

        def proc():
            token = yield from backend.acquire(DEV, "c1")
            yield env.timeout(0.05)
            backend.release(token)
            yield env.timeout(2.0)  # window is 1.0

        env.process(proc())
        env.run()
        assert backend.usage(DEV, "c1") == pytest.approx(0.0, abs=1e-9)

    def test_residual_shared_by_lowest_usage(self, env):
        """Step 3: everyone at their request ⇒ lowest usage wins; the
        long-run shares converge to the elastic allocation."""
        backend = TokenBackend(env, quota=0.05, window=1.0, handoff_overhead=0.0)
        backend.register(DEV, "a", request=0.2, limit=1.0)
        backend.register(DEV, "b", request=0.2, limit=1.0)
        held = {"a": 0.0, "b": 0.0}

        def hog(name):
            while True:
                token = yield from backend.acquire(DEV, name)
                hold = token.remaining(env.now)
                yield env.timeout(hold)
                held[name] += hold

        env.process(hog("a"))
        env.process(hog("b"))
        env.run(until=20.0)
        assert held["a"] == pytest.approx(held["b"], rel=0.05)
        assert held["a"] + held["b"] == pytest.approx(20.0, rel=0.02)


class TestFailureAndRestart:
    """Failure semantics: holder churn, dead devices, daemon restarts."""

    def test_unregister_mid_hold_invalidates_token(self, env, backend):
        """Regression: the holder unregistering mid-hold must invalidate
        its token immediately — otherwise the device stays dead until the
        quota expires and the expiry path touches a popped record."""
        backend.register(DEV, "c1", 0.5, 1.0)
        backend.register(DEV, "c2", 0.5, 1.0)
        grant_times = {}

        def holder():
            token = yield from backend.acquire(DEV, "c1")
            grant_times["c1"] = env.now
            yield env.timeout(0.05)  # quota is 0.1: mid-hold
            backend.unregister(DEV, "c1")
            assert not token.valid

        def waiter():
            yield from backend.acquire(DEV, "c2")
            grant_times["c2"] = env.now

        env.process(holder())
        env.process(waiter())
        env.run(until=1.0)
        # c2 got the token right after the unregister, not at quota expiry.
        assert grant_times["c2"] == pytest.approx(0.05, abs=0.01)

    def test_expiry_after_mid_hold_reregistration_keeps_record_clean(
        self, env, backend
    ):
        """Regression: unregister + re-register while the original grant's
        expiry timer is still pending must not credit the *fresh* record
        with the dead hold (the expiry path re-fetches the record)."""
        backend.register(DEV, "c1", 0.5, 1.0)

        def churn():
            yield from backend.acquire(DEV, "c1")
            yield env.timeout(0.05)
            backend.unregister(DEV, "c1")
            fresh = backend.register(DEV, "c1", 0.5, 1.0)
            yield env.timeout(0.5)  # well past the original expiry
            assert fresh.hold_start is None
            assert list(fresh.intervals) == []

        env.process(churn())
        env.run()
        assert backend.usage(DEV, "c1") == pytest.approx(0.0, abs=1e-9)

    def test_fail_device_fails_queued_grants(self, env, backend):
        from repro.gpu.device import DeviceLostError

        backend.register(DEV, "c1", 0.5, 1.0)
        backend.register(DEV, "c2", 0.5, 1.0)
        outcomes = {}

        def holder():
            yield from backend.acquire(DEV, "c1")
            yield env.timeout(10.0)

        def waiter():
            try:
                yield from backend.acquire(DEV, "c2")
                outcomes["c2"] = "granted"
            except DeviceLostError:
                outcomes["c2"] = "lost"

        env.process(holder())
        env.process(waiter())
        env.run(until=0.02)
        backend.fail_device(DEV, reason="XID 79")
        env.run(until=1.0)
        assert outcomes["c2"] == "lost"

    def test_acquire_on_dead_device_raises_until_revived(self, env, backend):
        from repro.gpu.device import DeviceLostError

        backend.register(DEV, "c1", 0.5, 1.0)
        backend.fail_device(DEV)

        def ask():
            yield from backend.acquire(DEV, "c1")

        with pytest.raises(DeviceLostError):
            env.process(ask()).env.run()

        backend.revive_device(DEV)
        backend.register(DEV, "c1", 0.5, 1.0)

        def ask_again():
            token = yield from backend.acquire(DEV, "c1")
            return token.valid

        p = env.process(ask_again())
        env.run(until=p)
        assert p.value is True

    def test_restart_drops_state_and_bumps_epoch(self, env, backend):
        from repro.gpu.backend import TokenBackendUnavailable

        backend.register(DEV, "c1", 0.5, 1.0)
        backend.register(DEV, "c2", 0.5, 1.0)
        outcomes = {}

        def holder():
            yield from backend.acquire(DEV, "c1")
            yield env.timeout(10.0)

        def waiter():
            try:
                yield from backend.acquire(DEV, "c2")
                outcomes["c2"] = "granted"
            except TokenBackendUnavailable:
                outcomes["c2"] = "dropped"

        env.process(holder())
        env.process(waiter())
        env.run(until=0.02)
        assert backend.restarts_total == 0
        backend.restart()
        env.run(until=0.5)
        assert outcomes["c2"] == "dropped"
        assert backend.restarts_total == 1

        # Registrations were lost: acquiring without re-registering fails.
        def stale():
            yield from backend.acquire(DEV, "c1")

        env.process(stale())
        with pytest.raises(KeyError):
            env.run()

    def test_restart_mid_handoff_is_harmless(self, env):
        """A grant decision in flight across restart() must not blow up on
        the cleared device table."""
        backend = TokenBackend(env, quota=0.1, window=1.0, handoff_overhead=0.01)
        backend.register(DEV, "c1", 0.5, 1.0)
        from repro.gpu.backend import TokenBackendUnavailable

        def ask():
            try:
                yield from backend.acquire(DEV, "c1")
            except TokenBackendUnavailable:
                pass

        env.process(ask())
        env.run(until=0.005)  # inside the 10 ms handoff window
        backend.restart()
        env.run(until=1.0)  # the in-flight handoff fires and finds no state


class TestTimerDriven:
    """The daemon runs no process: handoff, grant and quota expiry are
    timer callbacks, and the expiry timer lives exactly as long as the
    token."""

    @pytest.fixture
    def expiries(self, backend, monkeypatch):
        """Times at which an expiry callback actually ran."""
        fired = []
        expire = backend._expire

        def spy(state, token, event):
            fired.append(backend.env.now)
            expire(state, token, event)

        monkeypatch.setattr(backend, "_expire", spy)
        return fired

    def test_grant_spawns_no_process(self, env, backend):
        class Recorder:
            def __init__(self):
                self.receivers = []

            def dispatch(self, event, callbacks):
                for callback in callbacks:
                    func = callback
                    while isinstance(func, partial):
                        func = func.func
                    self.receivers.append(getattr(func, "__self__", None))
                    callback(event)

        backend.register(DEV, "c1", 0.5, 1.0)
        backend.register(DEV, "c2", 0.5, 1.0)

        def client(name, hold):
            for _ in range(3):
                token = yield from backend.acquire(DEV, name)
                yield env.timeout(hold)
                backend.release(token)

        env.process(client("c1", 0.03), name="client:c1")
        env.process(client("c2", 0.2), name="client:c2")  # outlives its quota
        recorder = Recorder()
        set_profile_hook(recorder)
        try:
            env.run()
        finally:
            set_profile_hook(None)
        processes = {r.name for r in recorder.receivers if isinstance(r, Process)}
        assert processes == {"client:c1", "client:c2"}
        assert backend in recorder.receivers
        assert backend.stats(DEV)["grants"] == 6

    def test_release_tombstones_the_expiry(self, env, backend, expiries):
        backend.register(DEV, "c1", 0.5, 1.0)
        seen = {}

        def holder():
            token = yield from backend.acquire(DEV, "c1")
            seen["expiry"] = backend._devices[DEV].expiry
            yield env.timeout(0.03)
            backend.release(token)

        env.process(holder())
        env.run(until=1.0)
        assert seen["expiry"].cancelled
        assert backend._devices[DEV].expiry is None
        assert expiries == []

    def test_full_quota_hold_expires_and_grants_the_next_waiter(
        self, env, backend, expiries
    ):
        backend.register(DEV, "a", 0.5, 1.0)
        backend.register(DEV, "b", 0.5, 1.0)
        got = {}

        def hog():
            got["a"] = yield from backend.acquire(DEV, "a")
            yield env.timeout(1.0)  # never releases

        def waiter():
            yield env.timeout(0.01)
            got["b"] = yield from backend.acquire(DEV, "b")
            got["b_at"] = env.now

        env.process(hog())
        env.process(waiter())
        env.run(until=2.0)
        first = got["a"]
        assert expiries[0] == first.expires_at()
        assert not first.valid
        assert got["b"].client_id == "b"
        # the next grant pays one decision delay after the expiry
        assert got["b_at"] == pytest.approx(
            first.expires_at() + backend.quota * 1e-3, abs=1e-12
        )

    @pytest.mark.parametrize("end", ["unregister", "restart", "fail_device"])
    def test_ending_the_token_early_cancels_the_expiry(
        self, env, backend, expiries, end
    ):
        backend.register(DEV, "c1", 0.5, 1.0)
        seen = {}

        def holder():
            token = yield from backend.acquire(DEV, "c1")
            seen["token"] = token
            seen["expiry"] = backend._devices[DEV].expiry
            yield env.timeout(0.05)  # mid-hold: the quota is 0.1
            if end == "unregister":
                backend.unregister(DEV, "c1")
            elif end == "restart":
                backend.restart()
            else:
                backend.fail_device(DEV)

        env.process(holder())
        env.run(until=1.0)
        assert not seen["token"].valid
        assert seen["expiry"].cancelled
        assert expiries == []
