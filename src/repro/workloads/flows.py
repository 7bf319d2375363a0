"""Vectorized aggregate arrival flows.

Arrival processes used to cost one live Timeout-yielding process step per
request: the driver slept until each arrival, woke, submitted, and went
back to sleep. For a whole flow that is pure kernel traffic — the arrival
*times* are data, known the moment the flow's parameters are fixed. This
module batch-generates them with numpy (one vectorized draw per flow, not
one RNG call per request) and feeds them to the kernel through
:class:`FlowScheduler`, which pre-schedules every arrival up front as a
bare Timeout with a direct callback. No process, no generator resume per
arrival; each arrival is one entry in the kernel's event heap.

The samplers draw from a caller-supplied seeded generator, so identical
seeds produce byte-identical run summaries.

Three samplers cover the trace shapes the experiments replay:

* :func:`poisson_times` — homogeneous Poisson (Figure 8's arrivals);
* :func:`mmpp_times` — Markov-modulated Poisson (bursty inference
  traffic: the flow alternates between rate regimes);
* :func:`diurnal_times` — nonhomogeneous Poisson with a sinusoidal
  day/night rate profile (the Borg/Alibaba-shaped traces in
  :mod:`repro.workloads.trace`), generated by thinning.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Optional, Sequence

import numpy as np

from ..sim import Environment
from ..sim.events import Event

__all__ = [
    "poisson_times",
    "mmpp_times",
    "diurnal_times",
    "FlowScheduler",
]


def poisson_times(
    rate: float,
    rng: np.random.Generator,
    n: Optional[int] = None,
    horizon: Optional[float] = None,
    start: float = 0.0,
) -> np.ndarray:
    """Arrival times of a homogeneous Poisson process.

    Exactly one of *n* (arrival count) or *horizon* (cut-off time after
    *start*) must be given. One vectorized exponential draw replaces the
    per-arrival ``rng.exponential`` loop.
    """
    if rate <= 0:
        raise ValueError("rate must be > 0")
    if (n is None) == (horizon is None):
        raise ValueError("give exactly one of n or horizon")
    if n is not None:
        if n <= 0:
            raise ValueError("n must be > 0")
        return start + np.cumsum(rng.exponential(1.0 / rate, size=n))
    if horizon <= 0:
        raise ValueError("horizon must be > 0")
    # Draw in doubling batches until the cumulative sum crosses the
    # horizon; same seed -> same sequence (batch sizes are derived from
    # the draws themselves, deterministically).
    batch = max(16, int(rate * horizon * 1.2) + 1)
    times = np.cumsum(rng.exponential(1.0 / rate, size=batch))
    while times[-1] < horizon:
        more = rng.exponential(1.0 / rate, size=batch)
        times = np.concatenate([times, times[-1] + np.cumsum(more)])
    return start + times[times < horizon]


def mmpp_times(
    rates: Sequence[float],
    dwell_means: Sequence[float],
    horizon: float,
    rng: np.random.Generator,
    start: float = 0.0,
) -> np.ndarray:
    """Arrival times of a Markov-modulated Poisson process.

    The flow cycles through ``len(rates)`` states; state *i* lasts an
    exponential dwell with mean ``dwell_means[i]`` and emits arrivals at
    ``rates[i]``. Within each dwell segment the arrivals are generated as
    order statistics (a Poisson count of uniform points), which is the
    conditional law of a Poisson process — one vectorized draw per
    segment instead of one per arrival. A two-state (ON/OFF or
    high/low) cycle is the classic bursty-traffic model.
    """
    if len(rates) != len(dwell_means) or not rates:
        raise ValueError("rates and dwell_means must be equal-length, non-empty")
    if any(r < 0 for r in rates):
        raise ValueError("rates must be >= 0")
    if any(d <= 0 for d in dwell_means):
        raise ValueError("dwell_means must be > 0")
    if horizon <= 0:
        raise ValueError("horizon must be > 0")
    out = []
    t = 0.0
    state = 0
    n_states = len(rates)
    while t < horizon:
        dwell = rng.exponential(dwell_means[state])
        seg_end = min(t + dwell, horizon)
        lam = rates[state]
        if lam > 0 and seg_end > t:
            count = rng.poisson(lam * (seg_end - t))
            if count:
                pts = rng.uniform(t, seg_end, size=count)
                pts.sort()
                out.append(pts)
        t += dwell
        state = (state + 1) % n_states
    if not out:
        return np.empty(0)
    return start + np.concatenate(out)


def diurnal_times(
    mean_rate: float,
    horizon: float,
    rng: np.random.Generator,
    amplitude: float = 0.5,
    period: float = 86400.0,
    phase: float = 0.0,
    start: float = 0.0,
) -> np.ndarray:
    """Arrival times of a nonhomogeneous Poisson process with rate
    ``mean_rate * (1 + amplitude * sin(2*pi*(t + phase)/period))``.

    Generated by thinning: candidates at the peak rate, each kept with
    probability ``rate(t)/peak`` — the standard exact algorithm, fully
    vectorized over the candidate vector.
    """
    if not 0.0 <= amplitude < 1.0:
        raise ValueError("amplitude must be in [0, 1)")
    if mean_rate <= 0 or horizon <= 0 or period <= 0:
        raise ValueError("mean_rate, horizon and period must be > 0")
    peak = mean_rate * (1.0 + amplitude)
    cand = poisson_times(peak, rng, horizon=horizon)
    if cand.size == 0:
        return cand
    lam = mean_rate * (1.0 + amplitude * np.sin(2.0 * np.pi * (cand + phase) / period))
    keep = rng.uniform(size=cand.size) * peak < lam
    return start + cand[keep]


class FlowScheduler:
    """Fire per-arrival callbacks at a pre-generated vector of times.

    ``schedule(times, fire)`` arranges ``fire(i)`` at ``times[i]`` for
    every *i* and returns an event that succeeds once the last arrival
    has fired. *times* must be non-decreasing and not in the past.

    Every arrival becomes a bare Timeout with a direct callback — no
    process and no generator resume per arrival. Arrivals that share a
    time fire in index order (the queue breaks ties by insertion).
    """

    def __init__(self, env: Environment) -> None:
        self.env = env

    def schedule(
        self, times: Sequence[float], fire: Callable[[int], None]
    ) -> Event:
        env = self.env
        done = env.event()
        seq = [float(t) for t in times]
        now = env.now
        last = now
        for t in seq:
            if t < last:
                raise ValueError("times must be non-decreasing and >= env.now")
            last = t
        if not seq:
            done.succeed()
            return done
        for i, t in enumerate(seq[:-1]):
            env.timeout(t - now).callbacks.append(partial(self._fire, fire, i))
        env.timeout(seq[-1] - now).callbacks.append(
            partial(self._fire_last, fire, len(seq) - 1, done)
        )
        return done

    @staticmethod
    def _fire(fire, i, _event) -> None:
        fire(i)

    @staticmethod
    def _fire_last(fire, i, done, _event) -> None:
        fire(i)
        done.succeed()
