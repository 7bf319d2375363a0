"""SLO engine: burn-rate math, the multi-window state machine, and the
Events it emits — all in virtual time on a bare hub."""

import pytest

from repro.obs.runtime import ObsHub, disable
from repro.obs.slo import SLO, BurnRatePolicy, SLOEvaluator, default_slos
from repro.sim import Environment


FAST_PAGE = BurnRatePolicy("page", factor=10.0, long_window=10.0, short_window=3.0)

LATENCY_SLO = SLO(
    name="latency",
    objective=0.99,
    kind="latency",
    family="repro_sharepod_schedule_seconds",
    threshold=10.0,
    windows=(FAST_PAGE,),
)


@pytest.fixture
def hub():
    h = ObsHub(Environment(), label="slo-test")
    yield h
    disable()


def _evaluator(hub, slo=LATENCY_SLO, **kw):
    ev = SLOEvaluator(hub, slos=[slo], **kw)
    ev.start()
    return ev


class TestDefaults:
    def test_default_slos_cover_the_three_stories(self):
        names = {s.name for s in default_slos()}
        assert names == {
            "sharepod-schedule-latency",
            "sharepod-journey-latency",
            "token-grant-success",
        }

    def test_objective_validated(self):
        with pytest.raises(ValueError):
            SLO(name="bad", objective=1.5)
        with pytest.raises(ValueError):
            SLO(name="bad", objective=0.9, kind="weird")


class TestBurnRate:
    def test_no_traffic_means_zero_burn(self, hub):
        ev = _evaluator(hub)
        hub.env.run(until=5.0)
        assert ev.alerts == []
        series = hub.metrics.series
        burn = series['repro_slo_burn_rate{slo="latency",severity="page"}']
        assert set(burn.values) == {0.0}

    def test_good_traffic_within_budget(self, hub):
        ev = _evaluator(hub)

        def feed():
            for i in range(20):
                hub.hist.schedule_latency(hub.env.now, 0.5)  # < 10s threshold
                yield hub.env.timeout(0.5)

        hub.env.process(feed())
        hub.env.run(until=12.0)
        assert ev.alerts == []
        assert ev.attainment(LATENCY_SLO) == 1.0


class TestStateMachine:
    def test_fires_resolves_and_emits_events(self, hub):
        ev = _evaluator(hub, resolve_after=3)

        def feed():
            # Healthy baseline...
            for _ in range(10):
                hub.hist.schedule_latency(hub.env.now, 0.5)
                yield hub.env.timeout(0.3)
            # ...then a burst of budget-burning slow observations.
            for _ in range(4):
                hub.hist.schedule_latency(hub.env.now, 50.0)
                yield hub.env.timeout(0.3)

        hub.env.process(feed())
        hub.env.run(until=30.0)

        assert len(ev.alerts) == 1
        alert = ev.alerts[0]
        assert alert.severity == "page"
        assert alert.state == "resolved"
        assert alert.fired_at >= 3.0
        # Resolution needs the short window to drain plus the quiet ticks.
        assert alert.resolved_at > alert.fired_at + 3.0
        reasons = [e.reason for e in hub.events.ledger]
        assert reasons.count("SLOBurnRate") == 1
        assert reasons.count("SLOResolved") == 1

    def test_alert_dedup_while_firing(self, hub):
        ev = _evaluator(hub, resolve_after=1000)  # never resolves

        def feed():
            while True:
                hub.hist.schedule_latency(hub.env.now, 50.0)
                yield hub.env.timeout(0.5)

        hub.env.process(feed())
        hub.env.run(until=25.0)
        # Burning the whole time, but one alert record and one Event.
        assert len(ev.alerts) == 1
        assert ev.alerts[0].state == "firing"
        assert [e.reason for e in hub.events.ledger].count("SLOBurnRate") == 1

    def test_pending_hold_filters_blips(self, hub):
        ev = _evaluator(hub, pending_for=5.0)

        def feed():
            hub.hist.schedule_latency(hub.env.now, 0.1)
            yield hub.env.timeout(1.0)
            # One bad observation: enters pending, but the short window
            # drains before the 5s hold elapses -> back to inactive.
            hub.hist.schedule_latency(hub.env.now, 50.0)

        hub.env.process(feed())
        hub.env.run(until=20.0)
        assert ev.alerts == []

    def test_ratio_slo_over_counter_families(self, hub):
        slo = SLO(
            name="grants",
            objective=0.90,
            kind="ratio",
            good_family="repro_token_grants_total",
            total_families=("repro_token_grants_total", "repro_token_denies_total"),
            windows=(
                BurnRatePolicy("page", factor=5.0, long_window=10.0, short_window=3.0),
            ),
        )
        ev = _evaluator(hub, slo=slo)

        def feed():
            for _ in range(5):
                hub.metrics.incr('repro_token_grants_total{device="g0"}')
                yield hub.env.timeout(0.5)
            for _ in range(10):
                hub.metrics.incr('repro_token_denies_total{device="g0"}')
                yield hub.env.timeout(0.5)

        hub.env.process(feed())
        hub.env.run(until=12.0)
        assert len(ev.alerts) == 1
        assert ev.alerts[0].slo == "grants"
        assert ev.attainment(slo) == pytest.approx(5 / 15)


class TestDeterminism:
    def test_identical_feeds_identical_alert_log(self):
        def run():
            hub = ObsHub(Environment(), label="det")
            ev = _evaluator(hub)

            def feed():
                for i in range(30):
                    lat = 50.0 if 10 <= i < 14 else 0.5
                    hub.hist.schedule_latency(hub.env.now, lat)
                    yield hub.env.timeout(0.7)

            hub.env.process(feed())
            hub.env.run(until=40.0)
            return ev.to_dict()

        assert run() == run()
