"""The shared retry-delay vocabulary (:mod:`repro.core.backoff`).

Every retry loop in the simulator — controller requeue, revocation
requeue, elector error ticks, inter-cluster RPC —
delegates here, so these properties underwrite all of them: determinism
(same name ⇒ same delay stream, across processes), exponential floors,
hard caps, and per-key state that resets cleanly.
"""

import pytest

from repro.core.backoff import DecorrelatedJitter, expo_backoff


class TestExpoBackoff:
    def test_doubles_from_base(self):
        assert expo_backoff(1, base=0.5, cap=8.0) == 0.5
        assert expo_backoff(2, base=0.5, cap=8.0) == 1.0
        assert expo_backoff(3, base=0.5, cap=8.0) == 2.0

    def test_capped(self):
        assert expo_backoff(50, base=0.5, cap=8.0) == 8.0

    def test_count_below_one_is_base(self):
        assert expo_backoff(0, base=0.5, cap=8.0) == 0.5
        assert expo_backoff(-3, base=0.5, cap=8.0) == 0.5

    def test_long_failure_streak_stays_at_cap(self):
        # 2.0 ** 1024 overflows a float.
        assert expo_backoff(1025, base=0.5, cap=8.0) == 8.0
        assert expo_backoff(10_000, base=0.5, cap=8.0) == 8.0


class TestDecorrelatedJitter:
    def test_stream_is_deterministic_per_name(self):
        a = [DecorrelatedJitter("x", 0.1, 2.0).next("k", n) for n in range(1, 8)]
        b = [DecorrelatedJitter("x", 0.1, 2.0).next("k", n) for n in range(1, 8)]
        assert a == b

    def test_different_names_decorrelate(self):
        a = [DecorrelatedJitter("x", 0.1, 2.0).next("k", n) for n in range(1, 8)]
        b = [DecorrelatedJitter("y", 0.1, 2.0).next("k", n) for n in range(1, 8)]
        assert a != b

    def test_never_undercuts_exponential_floor(self):
        policy = DecorrelatedJitter("floor", 0.1, 2.0)
        for n in range(1, 12):
            delay = policy.next("k", n)
            assert delay >= min(0.1 * 2 ** (n - 1), 2.0) - 1e-12
            assert delay <= 2.0 + 1e-12

    def test_streak_counts_and_resets(self):
        policy = DecorrelatedJitter("s", 0.1, 2.0)
        policy.next("k")
        policy.next("k")
        assert policy.streak("k") == 2
        policy.reset("k")
        assert policy.streak("k") == 0
        assert "k" not in policy

    def test_pending_lists_keys_sorted(self):
        policy = DecorrelatedJitter("p", 0.1, 2.0)
        policy.next("b")
        policy.next("a")
        assert policy.pending() == ["a", "b"]
        policy.reset("a")
        policy.reset("b")
        assert policy.pending() == []

    def test_keys_are_independent(self):
        policy = DecorrelatedJitter("i", 0.1, 2.0)
        for _ in range(6):
            policy.next("hot")
        first_cold = policy.next("cold")
        # A fresh key starts from the base schedule, not the hot key's.
        assert first_cold <= 3 * 0.1 + 1e-12

    def test_long_failure_streak_stays_at_cap(self):
        policy = DecorrelatedJitter("long", 0.005, 2.0)
        assert policy.next("k", 1025) == 2.0
        assert policy.next("k", 10_000) == 2.0

    def test_delays_and_draws_match_the_unclamped_schedule(self):
        import random

        # The schedule before the exponent was clamped, valid for n <= 1024.
        ref = random.Random(7)
        prev = 0.005
        expected = []
        for n in range(1, 1025):
            expo = 0.005 * (2.0 ** (n - 1))
            prev = min(2.0, ref.uniform(expo, max(expo, prev * 3.0)))
            expected.append(prev)
        rng = random.Random(7)
        policy = DecorrelatedJitter("ref", 0.005, 2.0, rng=rng)
        assert [policy.next("k", n) for n in range(1, 1025)] == expected
        assert rng.getstate() == ref.getstate()

    def test_explicit_rng_overrides_seed(self):
        import random

        a = DecorrelatedJitter("x", 0.1, 2.0, rng=random.Random(7)).next("k")
        b = DecorrelatedJitter("y", 0.1, 2.0, rng=random.Random(7)).next("k")
        assert a == pytest.approx(b)
