"""Regression: ClientRecord.usage occupancy math is unchanged by pruning.

``usage`` maintains a running sum of interval durations and prunes
expired intervals once per clock advance. It must agree with a
brute-force evaluation over the *unpruned* interval list at every probe
point.
"""

import pytest

from repro.gpu.backend import ClientRecord

WINDOW = 10.0

INTERVALS = [
    (0.0, 1.0),
    (2.0, 3.5),
    (5.0, 5.25),
    (8.0, 9.0),
    (12.0, 13.0),
    (13.0, 14.5),  # back-to-back with the previous interval
]

#: Monotonically advancing probe clocks. ``fast`` jumps: it probes
#: straddled windows, fully expired prefixes, and repeated reads at the
#: same `now` (usage prunes only once per advance). ``step`` advances in
#: 0.25 s steps, so intervals expire one at a time.
PROBES = {
    "fast": (1.0, 3.0, 3.0, 4.0, 6.0, 9.5, 13.0, 14.5, 20.0, 23.9, 40.0),
    "step": tuple(0.25 * i for i in range(161)),
}


def brute_force(intervals, hold_start, now, window):
    horizon = now - window
    held = sum(
        min(end, now) - max(start, horizon)
        for start, end in intervals
        if end > horizon
    )
    if hold_start is not None:
        held += now - max(hold_start, horizon)
    return min(1.0, held / window)


def _push_elapsed(rec, pushed, now):
    """Push the intervals that have closed by *now* (like the backend:
    an interval is recorded only once the hold ends)."""
    for start, end in INTERVALS:
        if end <= now and (start, end) not in pushed:
            rec.push_interval(start, end)
            pushed.append((start, end))


@pytest.mark.parametrize("clock", sorted(PROBES))
def test_usage_matches_brute_force_at_every_probe(clock):
    rec = ClientRecord("c0", request=0.3, limit=0.6)
    pushed = []
    for now in PROBES[clock]:
        _push_elapsed(rec, pushed, now)
        expected = brute_force(pushed, None, now, WINDOW)
        assert rec.usage(now, WINDOW) == pytest.approx(expected, abs=1e-12)


def test_usage_with_open_hold_matches_brute_force():
    rec = ClientRecord("c0", request=0.3, limit=0.6)
    for interval in INTERVALS:
        rec.push_interval(*interval)
    rec.hold_start = 15.0  # token currently held
    for now in (15.0, 16.0, 24.0, 30.0):
        expected = brute_force(INTERVALS, 15.0, now, WINDOW)
        assert rec.usage(now, WINDOW) == pytest.approx(expected, abs=1e-12)


def test_fast_path_actually_prunes_expired_intervals():
    rec = ClientRecord("c0", request=0.3, limit=0.6)
    for interval in INTERVALS:
        rec.push_interval(*interval)
    rec.usage(40.0, WINDOW)  # horizon=30: every closed interval expired
    assert not rec.intervals
    assert rec._dur_sum == 0.0  # no float residue left behind
    # And an empty record still reads 0.
    assert rec.usage(41.0, WINDOW) == 0.0


def test_zero_window_is_zero_in_both_modes():
    """A zero window reads 0 with and without recorded intervals."""
    rec = ClientRecord("c0", request=0.3, limit=0.6)
    assert rec.usage(20.0, 0.0) == 0.0
    for interval in INTERVALS:
        rec.push_interval(*interval)
    assert rec.usage(20.0, 0.0) == 0.0
