"""Wall-clock profiler: dispatch semantics preserved, attribution named,
folded output well-formed, hook installed/removed cleanly."""

from functools import partial

import pytest

from repro.obs.artifact import export_all
from repro.obs.profile import WallProfiler
from repro.obs.runtime import ObsHub, disable, enable
from repro.sim import Environment, environment as env_mod


@pytest.fixture(autouse=True)
def _clean_hook():
    yield
    env_mod.set_profile_hook(None)


def _busy_env():
    env = Environment()

    def worker(n):
        for _ in range(n):
            sum(range(500))
            yield env.timeout(1.0)

    env.process(worker(5), name="kubeshare-sched:worker0")
    env.process(worker(3), name="kubelet:node00")
    return env


class TestDispatch:
    def test_schedule_identical_with_and_without_profiler(self):
        def trace(profiled):
            env = Environment()
            log = []

            def worker(name, delay):
                for i in range(4):
                    log.append((round(env.now, 6), name, i))
                    yield env.timeout(delay)

            env.process(worker("a", 1.0), name="a")
            env.process(worker("b", 1.5), name="b")
            prof = WallProfiler(env).install() if profiled else None
            env.run(until=10.0)
            if prof is not None:
                prof.uninstall()
            return log, env.events_processed

        plain = trace(profiled=False)
        profiled = trace(profiled=True)
        assert plain == profiled

    def test_exceptions_propagate_and_are_still_sampled(self):
        env = Environment()

        def boom():
            yield env.timeout(1.0)
            raise RuntimeError("kaboom")

        env.process(boom(), name="faulty:proc")
        prof = WallProfiler(env).install()
        with pytest.raises(RuntimeError, match="kaboom"):
            env.run(until=5.0)
        assert any(frames[0] == "faulty" for frames in prof.samples)

    def test_uninstall_restores_plain_dispatch(self):
        env = _busy_env()
        prof = WallProfiler(env).install()
        env.run(until=2.0)
        seen = prof.dispatches
        assert seen > 0
        prof.uninstall()
        env.run(until=10.0)
        assert prof.dispatches == seen  # no samples after uninstall
        assert env_mod._PROFILE is None


class TestAttribution:
    def test_subsystem_is_first_name_segment(self):
        env = _busy_env()
        prof = WallProfiler(env).install()
        env.run(until=10.0)
        prof.uninstall()
        subsystems = {name for name, _ in prof.by_subsystem()}
        assert "kubeshare-sched" in subsystems
        assert "kubelet" in subsystems
        assert prof.attributed_fraction() >= 0.9
        assert prof.total_seconds > 0

    def test_component_timer_callbacks_charge_the_component(self):
        """A timer callback bound to a component, directly or through
        functools.partial (the token backend's handoff and expiry, the
        device library's idle revoke), is charged to the component; only
        the kernel's own callbacks stay in ``kernel``."""

        class Daemon:
            def fire(self, _event):
                sum(range(500))

            def fire_for(self, device, _event):
                sum(range(500))

        env = Environment()
        daemon = Daemon()
        env.timeout(1.0).callbacks.append(daemon.fire)
        env.timeout(2.0).callbacks.append(partial(daemon.fire_for, "GPU-0"))
        done = env.all_of([env.timeout(3.0)])
        prof = WallProfiler(env).install()
        env.run(until=done)
        prof.uninstall()
        assert set(prof.samples) == {
            ("Daemon", "fire"),
            ("Daemon", "fire_for"),
            ("kernel", "AllOf"),
            ("kernel", "_StopSimulation"),
        }
        assert {name for name, _ in prof.by_subsystem()} == {"Daemon", "kernel"}

    def test_span_stack_extends_frames(self):
        env = Environment()
        hub = enable(ObsHub(env, label="prof"))
        try:
            def worker():
                with hub.tracer.span("reconcile", "kubeshare-sched"):
                    yield env.timeout(1.0)
                    with hub.tracer.span("bind", "kubeshare-sched"):
                        yield env.timeout(1.0)

            env.process(worker(), name="kubeshare-sched:worker")
            hub.start_profiler()
            env.run(until=5.0)
            stacks = set(hub.profiler.samples)
        finally:
            disable()
        assert any("reconcile" in frames for frames in stacks)
        assert any(
            frames[-2:] == ("reconcile", "bind") for frames in stacks
        ), stacks

    def test_folded_lines_are_speedscope_parsable(self, tmp_path):
        env = _busy_env()
        prof = WallProfiler(env).install()
        env.run(until=10.0)
        prof.uninstall()
        art = ObsHub(env, label="smoke").snapshot()
        art["profile"] = prof.to_dict()
        paths = export_all(art, str(tmp_path), "smoke")
        assert paths[-1].rsplit("/", 1)[-1] == "smoke.folded"
        with open(paths[-1]) as fh:
            for line in fh.read().strip().splitlines():
                stack, _, count = line.rpartition(" ")
                assert stack, line
                assert int(count) > 0  # integer counts, no floats
                assert " " not in stack  # frames must not contain spaces


class TestHubLifecycle:
    def test_disable_uninstalls_profiler(self):
        env = Environment()
        hub = enable(ObsHub(env, label="prof").start_profiler())
        assert env_mod._PROFILE is hub.profiler
        disable()
        assert env_mod._PROFILE is None
