"""Shared backoff policies: one implementation, every retry loop.

Before this module the codebase had grown separate retry-delay
computations: the controller framework's per-key decorrelated jitter
(:class:`~repro.cluster.controller.Controller`) and the revocation
layer's deliberately jitter-free exponential requeue
(:func:`repro.policy.revocation.requeue_backoff`). They now both
delegate here, as do the leader elector's error ticks and the
federation tier's inter-cluster retries (:mod:`repro.federation.rpc`).

Two policies, because the call sites have two different needs:

* :class:`DecorrelatedJitter` — bounded decorrelated jitter for retry
  loops where many actors might fail at once (controller requeues,
  elector re-acquire attempts during an apiserver outage, federation
  RPC retries). The delay is drawn from ``[expo, prev * 3]`` where
  ``expo`` is the plain exponential schedule — never faster than
  exponential (retry storms still decay) but spread out, so a mass
  failure doesn't re-hit the apiserver in lockstep. Seeded from a
  stable string (``random.Random(f"backoff:{name}")``), so identical
  seeds replay identical delays.
* :func:`expo_backoff` — deterministic, jitter-free exponential for
  paths whose replay must be byte-identical without any RNG stream at
  all (eviction requeue times are compared across runs in tests).
"""

from __future__ import annotations

import random
from typing import Dict, Optional

__all__ = ["DecorrelatedJitter", "expo_backoff"]


def _capped_expo(base: float, cap: float, n: int) -> float:
    """``min(cap, base * 2 ** (n - 1))`` for any failure count *n*.

    The exponent is clamped first: ``2.0 ** 1024`` raises
    ``OverflowError``, and at 1023 doublings the schedule is long past
    any cap.
    """
    return min(cap, base * 2.0 ** min(n - 1, 1023))


def expo_backoff(count: int, base: float = 0.5, cap: float = 8.0) -> float:
    """Deterministic exponential backoff for the *count*-th failure.

    Deliberately jitter-free: callers that need byte-identical replays of
    requeue times (the eviction state machine) use this; callers that
    need decorrelation use :class:`DecorrelatedJitter`.
    """
    if count < 1:
        return base
    return _capped_expo(base, cap, count)


class DecorrelatedJitter:
    """Per-key bounded decorrelated jitter with a seeded RNG stream.

    ``name`` seeds the stream (string seeding is stable across processes,
    keeping simulations reproducible); ``base`` is the first-failure
    delay and ``cap`` the upper bound. Keys let one instance track many
    independent retry series (one per work-queue key, per member
    cluster, ...); :meth:`reset` forgets a key once its operation
    succeeds.
    """

    def __init__(
        self,
        name: str,
        base: float,
        cap: float,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.base = base
        self.cap = cap
        self._rng = rng if rng is not None else random.Random(f"backoff:{name}")
        #: last delay handed out per key (the "decorrelation" state).
        self._prev: Dict[str, float] = {}
        #: consecutive-failure count per key (used when ``n`` is omitted).
        self._counts: Dict[str, int] = {}

    def next(self, key: str = "", n: Optional[int] = None) -> float:
        """The delay before the *n*-th consecutive retry of *key*.

        With ``n=None`` the instance counts failures itself; pass ``n``
        explicitly when the caller already tracks the failure count (the
        controller framework does, in ``_failures``).
        """
        if n is None:
            n = self._counts.get(key, 0) + 1
            self._counts[key] = n
        # An expo past the cap draws from [expo, ...] only to be cut to
        # the cap below, so capping it first changes no delay and keeps
        # one RNG draw per call.
        expo = _capped_expo(self.base, self.cap, n)
        prev = self._prev.get(key, self.base)
        delay = min(self.cap, self._rng.uniform(expo, max(expo, prev * 3.0)))
        self._prev[key] = delay
        return delay

    def reset(self, key: str = "") -> None:
        """Forget *key*'s retry series (call on success)."""
        self._prev.pop(key, None)
        self._counts.pop(key, None)

    def streak(self, key: str = "") -> int:
        """Consecutive failures recorded for *key* (self-counted mode)."""
        return self._counts.get(key, 0)

    def pending(self) -> list:
        """Keys with live retry state, sorted (for deterministic tests)."""
        return sorted(set(self._prev) | set(self._counts))

    def __contains__(self, key: str) -> bool:
        return key in self._prev or key in self._counts
