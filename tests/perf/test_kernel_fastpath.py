"""Unit tests for the sim-kernel fast paths: tombstones, the shared stop
sentinel, and condition detach."""

import pytest

from repro.sim import Environment
from repro.sim.environment import _STOP, EmptySchedule


def test_cancelled_timer_is_skipped_without_dispatch(env):
    fired = []
    stale = env.timeout(5.0, value="stale")
    live = env.timeout(10.0, value="live")
    stale.callbacks.append(lambda ev: fired.append(ev.value))
    live.callbacks.append(lambda ev: fired.append(ev.value))

    stale.cancel()
    assert stale.cancelled
    env.run()

    assert fired == ["live"]
    assert env.now == 10.0
    # The tombstone was discarded, never dispatched: its callbacks were
    # dropped and it did not count as a processed event.
    assert stale.callbacks is None
    assert env.events_processed == 1


def test_peek_and_step_agree_on_tombstones(env):
    a = env.timeout(1.0)
    b = env.timeout(2.0)
    c = env.timeout(3.0)
    a.cancel()
    b.cancel()

    # peek() must look through tombstoned heads to the first live event...
    assert env.peek() == 3.0
    # ...and step() must then dispatch exactly that event at that time.
    env.step()
    assert env.now == 3.0
    assert c.callbacks is None
    with pytest.raises(EmptySchedule):
        env.step()


def test_cancelling_a_processed_event_is_a_noop(env):
    t = env.timeout(1.0, value=42)
    env.run()
    assert t.callbacks is None
    t.cancel()
    assert not t.cancelled
    assert t.value == 42


def test_run_until_float_pushes_the_shared_sentinel(env):
    seen = []

    def probe():
        yield env.timeout(1.0)
        seen.extend(entry[3] for entry in env._queue)

    env.process(probe())
    env.run(until=5.0)
    assert env.now == 5.0
    # run(until=<float>) reuses the module-level singleton instead of
    # allocating a fresh stop event per call.
    assert any(entry is _STOP for entry in seen)


def test_stop_sentinel_is_safe_to_share_across_environments():
    e1, e2 = Environment(), Environment()
    e1.run(until=3.0)
    e2.run(until=4.0)
    e1.run(until=6.0)  # reused in the same environment too
    assert (e1.now, e2.now) == (6.0, 4.0)


def test_anyof_detaches_from_unfired_subevents_on_fast_path():
    env = Environment()
    late_timer = env.timeout(100.0)
    cond = env.any_of([env.timeout(1.0), late_timer])
    env.run(until=2.0)
    assert cond.callbacks is None  # condition fired and was processed
    # _check is unsubscribed from the still-pending timer so the dead
    # condition is not pinned until t=100.
    assert cond._check not in late_timer.callbacks
    env.run()
    assert env.now == 100.0


def test_allof_detach_does_not_lose_failures():
    """Detaching must not defuse anything: an AllOf still fails fast."""
    env = Environment()
    late = env.timeout(50.0)
    failing = env.event()
    cond = env.all_of([failing, late])
    caught = []

    def waiter():
        try:
            yield cond
        except RuntimeError as exc:
            caught.append(str(exc))

    env.process(waiter())
    failing.fail(RuntimeError("boom"))
    env.run(until=1.0)
    assert caught == ["boom"]
    assert cond._check not in late.callbacks
