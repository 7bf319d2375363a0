"""The benchmark's seam into the kernel's event queue.

``bench/trace.py`` counts ``sim.queue_pushes`` by replacing
``repro.sim.calqueue.CalendarQueue.push`` (looked up in the class's own
``vars``) with a counting wrapper for the length of a traced run. This
test wraps it the same way, so a change that routes pushes around that
method fails here instead of silently reading 0 in the benchmark.
"""

import functools

from repro.sim import Environment
from repro.sim.calqueue import CalendarQueue


def test_wrapped_push_counts_every_scheduled_event():
    original = vars(CalendarQueue)["push"]
    pushed = []

    @functools.wraps(original)
    def counted(queue, entry):
        pushed.append(entry)
        return original(queue, entry)

    setattr(CalendarQueue, "push", counted)
    try:
        env = Environment()

        def proc():
            yield env.timeout(1.0)
            env.timeout(5.0).cancel()
            yield env.all_of([env.timeout(2.0), env.timeout(3.0)])

        env.process(proc())
        env.run(until=10.0)
    finally:
        setattr(CalendarQueue, "push", original)

    assert vars(CalendarQueue)["push"] is original
    assert len(env._queue) == 0
    # Every entry went through the wrapper: each dispatched event (the
    # stop marker included) and the one tombstone the run discarded. The
    # process's exit, which nothing waits for, is no entry.
    assert len(pushed) == env.events_processed + 1 == 7
    assert len({entry[2] for entry in pushed}) == len(pushed)
