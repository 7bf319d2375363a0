"""Tests for the vectorized arrival-flow samplers and
:class:`~repro.workloads.flows.FlowScheduler`.

The samplers batch-generate whole arrival processes with a seeded numpy
Generator; the scheduler then drives them through the kernel as
pre-scheduled bare timeouts. The load-bearing property is the last test
class: the callbacks fire at exactly the given virtual times, ties in
index order.
"""

import numpy as np
import pytest

from repro.sim import Environment
from repro.workloads.flows import (
    FlowScheduler,
    diurnal_times,
    poisson_times,
)


class TestPoissonTimes:
    def test_n_mode_count_and_monotonicity(self):
        times = poisson_times(2.0, np.random.default_rng(1), n=500)
        assert len(times) == 500
        assert (np.diff(times) >= 0).all()

    def test_horizon_mode_bounded(self):
        times = poisson_times(5.0, np.random.default_rng(2), horizon=100.0)
        assert (times < 100.0).all()
        # rate 5/s over 100s: the count concentrates near 500.
        assert 350 < len(times) < 650

    def test_mean_interarrival(self):
        times = poisson_times(4.0, np.random.default_rng(3), n=20_000)
        gaps = np.diff(np.concatenate([[0.0], times]))
        assert gaps.mean() == pytest.approx(0.25, rel=0.05)

    def test_start_offset(self):
        times = poisson_times(1.0, np.random.default_rng(4), n=10, start=50.0)
        assert (times >= 50.0).all()

    def test_seeded_determinism(self):
        a = poisson_times(3.0, np.random.default_rng(7), horizon=40.0)
        b = poisson_times(3.0, np.random.default_rng(7), horizon=40.0)
        assert (a == b).all()

    def test_exactly_one_mode_required(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            poisson_times(1.0, rng)
        with pytest.raises(ValueError):
            poisson_times(1.0, rng, n=10, horizon=10.0)


class TestDiurnalTimes:
    def test_bounded_and_sorted(self):
        times = diurnal_times(1.0, 500.0, np.random.default_rng(8), period=100.0)
        assert (np.diff(times) >= 0).all()
        assert (times < 500.0).all()

    def test_peak_concentration(self):
        # With phase 0 the rate peaks in the first half of each period;
        # at amplitude 0.95 about 80% of arrivals land there.
        times = diurnal_times(
            2.0, 10_000.0, np.random.default_rng(9), amplitude=0.95, period=100.0
        )
        phase = times % 100.0
        assert (phase < 50.0).mean() > 0.72

    def test_amplitude_validation(self):
        with pytest.raises(ValueError):
            diurnal_times(1.0, 10.0, np.random.default_rng(0), amplitude=1.0)


class TestFlowScheduler:
    def test_fire_times_and_order(self):
        fired = []
        env = Environment()
        times = [0.0, 0.5, 0.5, 2.25, 7.0]  # includes a same-tick tie
        done = FlowScheduler(env).schedule(
            times, lambda i: fired.append((env.now, i))
        )
        env.run(until=done)
        assert env.now == 7.0
        assert fired == [(0.0, 0), (0.5, 1), (0.5, 2), (2.25, 3), (7.0, 4)]

    def test_empty_flow_completes_immediately(self):
        env = Environment()
        done = FlowScheduler(env).schedule([], lambda i: None)
        env.run(until=done)
        assert env.now == 0.0

    def test_rejects_unsorted_times(self):
        env = Environment()
        with pytest.raises(ValueError):
            FlowScheduler(env).schedule([1.0, 0.5], lambda i: None)

    def test_rejects_past_times(self):
        env = Environment()
        env.run(until=env.timeout(10.0))
        with pytest.raises(ValueError):
            FlowScheduler(env).schedule([5.0], lambda i: None)
