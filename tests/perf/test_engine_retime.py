"""In-place re-timing of compute sessions against the wake-everyone loop.

When an allocation changes, :meth:`GPUDevice._retime` bills each running
session's slice and moves its resume onto a new finish timer, instead of
waking every running session so that each does it itself. The oracle is
that old loop, kept here: a shared change event that every running
:class:`ComputeSession` subscribes to alongside its finish timer.

Hypothesis draws whole single-device schedules up front — sessions with
requests, limits, demand caps and (un)isolation, launches whose dyadic
work sizes and gaps make finishes land exactly on other sessions' starts,
``set_params`` mid-run, a process kill, and a device failure and
recovery — and plays each one on both engines. Completion times and
outcomes, every session's ``granted_time`` and the device's
``busy_time`` must be equal exactly. Sessions that complete at the same
instant may do so in another order, so completions are compared as a
multiset: order only across instants. Skipping the sessions whose own
rate did not change, or waking a session once per same-instant pass,
fails the comparison; the due-now rule, which only keeps a due session
on its own timer within the instant, has its own test below.

Launches may be *paced* request streams, with paces below and above the
session's limit. The oracle applies the pacing rule naively: at every
allocation change it wakes, bills, and ends its next slice at the
earlier of its finish and its catch-up, where its backlog empties; at
the catch-up it flips back on schedule and recomputes. Flipping to
behind, and back at a pass that finds the backlog empty, is part of the
allocation arithmetic both engines share, so the oracle keeps its slice
in flight where ``_recompute`` reads it.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu.device import ComputeSession, DeviceLostError, GPUDevice
from repro.sim import Environment


class OracleSession(ComputeSession):
    def run(self, work, demand=None):
        """The wake-everyone loop: race the finish timer against the
        device's shared change event, and re-slice on every change.
        ``run_paced`` (inherited) sets the pace and delegates here."""
        if self.closed:
            raise RuntimeError(f"session {self.name} is closed")
        env = self.device.env
        remaining = float(work)
        self.demand = 1.0 if demand is None else float(demand)
        self.device._armed[self] = None  # lets _recompute reach _retime
        self.device._recompute()
        try:
            while remaining > 1e-12:
                if self.device.failed:
                    raise DeviceLostError(f"GPU {self.device.uuid} lost")
                rate = self.rate
                # What the shared _recompute reads to find a caught-up
                # session: the slice in flight.
                self._remaining, self._started = remaining, env.now
                if rate <= 1e-12:
                    self._slice_rate = 0.0
                    yield self.device.change
                    continue
                self._slice_rate = rate
                started = env.now
                delay = remaining / rate
                catch_up = False
                if self._behind and rate > self.pace:
                    backlog = remaining - self.pace * (self._pace_end - started)
                    if backlog > 1e-12 and backlog / (rate - self.pace) < delay:
                        delay = backlog / (rate - self.pace)
                        catch_up = True
                finish = env.timeout(delay)
                change = self.device.change
                resume = env.active_process._resume
                change.callbacks.append(resume)
                try:
                    yield finish
                finally:
                    if change.callbacks is not None and resume in change.callbacks:
                        change.callbacks.remove(resume)
                remaining -= (env.now - started) * rate
                if finish.callbacks is not None:
                    finish.cancel()
                elif catch_up and remaining > 1e-12:
                    self._remaining, self._started = remaining, env.now
                    self._on_schedule()
                    self.device._recompute()
        finally:
            self.device._armed.pop(self, None)
            self.demand = 0.0
            self.device._recompute()


class OracleDevice(GPUDevice):
    """The same allocation arithmetic; a change fires the shared event."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.change = self.env.event()

    def open_session(self, name, request=0.0, limit=1.0, isolated=True):
        session = OracleSession(self, name, request=request, limit=limit, isolated=isolated)
        self._sessions.append(session)
        self._recompute()
        return session

    def _retime(self, now):
        old = self.change
        if old.callbacks:  # only when a running session subscribed
            self.change = self.env.event()
            old.succeed()


# Dyadic sizes and rates keep the arithmetic exact, so finishes tie with
# other sessions' starts and with each other; a third session brings
# non-dyadic shares and float residue.
WORKS = (0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0)
GAPS = (0.0, 0.0, 0.25, 0.5, 1.0, 2.0)
DEMANDS = (None, 1.0, 0.75, 0.5, 0.25)
# Paces below, at and above the LIMITS, and above the device.
PACES = (0.125, 0.25, 0.375, 0.5, 0.75, 1.5)
REQUESTS = (0.0, 0.0, 0.125, 0.25)
LIMITS = (0.25, 0.5, 0.75, 1.0)
TIMES = tuple(0.25 * i for i in range(1, 33))
# A kill, failure or recovery at the very instant another process wakes
# races it, and which goes first decides an outcome. The engines may
# order the two differently: a re-timed finish timer is pushed when the
# allocation changes, where the old loop pushed it when the change event
# was dispatched. Those actions land between grid points; set_params,
# whose order within an instant changes nothing, stays on them.
OFF_GRID = 0.1

launch = st.one_of(
    st.tuples(
        st.sampled_from(GAPS), st.sampled_from(WORKS), st.sampled_from(DEMANDS), st.just(0.0)
    ),
    st.tuples(st.sampled_from(GAPS), st.sampled_from(WORKS), st.just(None), st.sampled_from(PACES)),
)
session = st.tuples(
    st.sampled_from(REQUESTS),
    st.sampled_from(LIMITS),
    st.booleans(),
    st.lists(launch, min_size=1, max_size=4),
)


@st.composite
def schedules(draw):
    sessions = draw(st.lists(session, min_size=2, max_size=7))
    n = len(sessions)
    actions = draw(
        st.lists(
            st.tuples(
                st.sampled_from(TIMES),
                st.integers(0, n - 1),
                st.sampled_from(REQUESTS),
                st.sampled_from(LIMITS),
            ).map(lambda a: (a[0], "params", a[1], a[2], a[3])),
            max_size=3,
        )
    )
    if draw(st.booleans()):
        at = draw(st.sampled_from(TIMES)) + OFF_GRID
        actions.append((at, "kill", draw(st.integers(0, n - 1))))
    if draw(st.booleans()):
        at = draw(st.sampled_from(TIMES)) + OFF_GRID
        actions.append((at, "fail"))
        actions.append((at + draw(st.sampled_from((0.0, 0.25, 1.0))), "recover"))
    return sessions, sorted(actions, key=lambda a: a[0])


def play(schedule, device_cls):
    """Run *schedule* on a fresh device; returns what the engines must
    agree on."""
    specs, actions = schedule
    env = Environment()
    gpu = device_cls(env, "GPU-p", "n0")
    sessions = [
        gpu.open_session(f"s{i}", request=request, limit=limit, isolated=isolated)
        for i, (request, limit, isolated, _) in enumerate(specs)
    ]
    completions = []

    def app(i, launches):
        for gap, work, demand, pace in launches:
            if gap:
                yield env.timeout(gap)
            try:
                if pace:
                    yield from sessions[i].run_paced(work, pace)
                else:
                    yield from sessions[i].run(work, demand)
                completions.append((env.now, i, "ok"))
            except DeviceLostError:
                completions.append((env.now, i, "lost"))

    apps = [env.process(app(i, spec[3]), name=f"app:s{i}") for i, spec in enumerate(specs)]

    def actor():
        for at, kind, *args in actions:
            if at > env.now:
                yield env.timeout(at - env.now)
            if kind == "params":
                i, request, limit = args
                sessions[i].set_params(request=min(request, limit), limit=limit)
            elif kind == "kill":
                apps[args[0]].kill()
            elif kind == "fail":
                gpu.fail()
            else:
                gpu.recover()

    env.process(actor(), name="actions")
    env.run()
    return {
        "completions": sorted(completions),
        "granted": [s.granted_time() for s in sessions],
        "busy": gpu.busy_time(),
        "events": env.events_processed,
    }


@settings(max_examples=300, deadline=None)
@given(schedules())
def test_retime_matches_wake_everyone_loop(schedule):
    got = play(schedule, GPUDevice)
    want = play(schedule, OracleDevice)
    assert got["completions"] == want["completions"]
    assert got["granted"] == want["granted"]
    assert got["busy"] == want["busy"]
    # Re-timing never costs an event the wake-everyone loop did not.
    assert got["events"] <= want["events"]


def test_due_session_completes_on_its_own_timer():
    """Due-now rule: when another session starts first at the instant a
    session's finish timer is due, the due session still completes on that
    timer — before a process queued after the timer wakes — as it did
    under the wake-everyone loop, not later on a wake of its own."""

    def observe(device_cls):
        env = Environment()
        gpu = device_cls(env, "GPU-p", "n0")
        a, b = gpu.open_session("a"), gpu.open_session("b")
        seen = []

        def starter():
            yield env.timeout(1.0)  # queued before a's finish timer
            yield from b.run(1.0)

        def runner():
            yield from a.run(1.0)  # due at 1.0
            seen.append(("a", env.now))

        def observer():
            yield env.timeout(1.0)  # queued after a's finish timer
            seen.append(("observer", env.now))

        for proc in (starter, runner, observer):
            env.process(proc())
        env.run()
        return seen

    assert observe(GPUDevice) == observe(OracleDevice) == [("a", 1.0), ("observer", 1.0)]
