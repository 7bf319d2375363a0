"""Declarative SLOs evaluated in virtual time with multi-window,
multi-burn-rate alerting.

An :class:`SLO` is an objective (e.g. "99% of SharePods schedule within
10 s") over one of two indicator shapes:

* ``latency`` — a histogram family from :mod:`repro.obs.hist`; "good" is
  the cumulative bucket count at the threshold boundary (which therefore
  must be one of the family's bucket boundaries — exact, no
  interpolation);
* ``ratio``   — two counter families; "good"/"total" are the sums over
  every labeled counter whose family matches (e.g. token grants vs.
  grants + denies).

The :class:`SLOEvaluator` is a simulated process: every
:data:`~repro.obs.runtime.INTERVAL` virtual seconds it snapshots each indicator's cumulative (good, total),
computes the **burn rate** — windowed error rate divided by the error
budget ``1 - objective`` — over a long and a short window per severity
(the Google SRE workbook's multi-window multi-burn-rate recipe, windows
scaled down to simulation timescales; see EXPERIMENTS.md), and drives a
per-(SLO, severity) state machine::

    inactive -> pending -> firing -> resolved

An alert fires only when *both* windows exceed the severity's factor
(the short window gates on "still burning now", so a fired alert
resolves promptly after recovery); it resolves after
``resolve_after`` consecutive quiet evaluations (hysteresis). Alerts are
deduplicated per (SLO, severity): re-entering the burn condition while
an alert is firing never creates a second record — the kevents recorder
additionally dedups the emitted Events on stable messages.

Everything here runs in virtual time off deterministic inputs, so the
alert log is part of the reproducible artifact: identical seeds fire
identical alerts at identical virtual timestamps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .promfmt import _family, metric
from .runtime import INTERVAL

__all__ = [
    "SLO",
    "BurnRatePolicy",
    "Alert",
    "SLOEvaluator",
    "DEFAULT_WINDOWS",
    "default_slos",
]


@dataclass(frozen=True)
class BurnRatePolicy:
    """One severity tier: fire when the burn rate exceeds ``factor`` over
    both the long and the short window."""

    severity: str
    factor: float
    long_window: float
    short_window: float


#: Sim-scaled multi-window pairs: the classic 1h/5m page and 6h/30m
#: ticket tiers compressed to seconds (see EXPERIMENTS.md §burn-rate).
DEFAULT_WINDOWS: Tuple[BurnRatePolicy, ...] = (
    BurnRatePolicy("page", factor=14.4, long_window=20.0, short_window=5.0),
    BurnRatePolicy("ticket", factor=6.0, long_window=60.0, short_window=15.0),
)


@dataclass(frozen=True)
class SLO:
    """A service-level objective over a histogram or a counter ratio."""

    name: str
    objective: float  # e.g. 0.99
    kind: str = "latency"  # "latency" | "ratio"
    #: latency kind: histogram family + threshold (must be a bucket boundary).
    family: str = ""
    threshold: float = 0.0
    #: ratio kind: counter families (label sets are summed per family).
    good_family: str = ""
    total_families: Tuple[str, ...] = ()
    description: str = ""
    windows: Tuple[BurnRatePolicy, ...] = DEFAULT_WINDOWS

    def __post_init__(self) -> None:
        if not 0.0 < self.objective < 1.0:
            raise ValueError(f"objective must be in (0, 1): {self.objective}")
        if self.kind not in ("latency", "ratio"):
            raise ValueError(f"unknown SLO kind {self.kind!r}")

    @property
    def budget(self) -> float:
        return 1.0 - self.objective

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "objective": self.objective,
            "kind": self.kind,
            "family": self.family,
            "threshold": self.threshold,
            "good_family": self.good_family,
            "total_families": list(self.total_families),
            "description": self.description,
            "windows": [
                {
                    "severity": w.severity,
                    "factor": w.factor,
                    "long_window": w.long_window,
                    "short_window": w.short_window,
                }
                for w in self.windows
            ],
        }


def default_slos() -> List[SLO]:
    """The stock SLOs every armed run evaluates."""
    return [
        SLO(
            name="sharepod-schedule-latency",
            objective=0.99,
            kind="latency",
            family="repro_sharepod_schedule_seconds",
            threshold=10.0,
            description="99% of SharePods are Scheduled within 10s of creation",
        ),
        SLO(
            name="sharepod-journey-latency",
            objective=0.99,
            kind="latency",
            family="repro_sharepod_journey_seconds",
            threshold=30.0,
            description="99% of SharePods are Running within 30s of creation",
        ),
        SLO(
            name="token-grant-success",
            objective=0.95,
            kind="ratio",
            good_family="repro_token_grants_total",
            total_families=("repro_token_grants_total", "repro_token_denies_total"),
            description="95% of token requests are granted without throttling",
        ),
    ]


@dataclass
class Alert:
    """One fired burn-rate alert (deduplicated per SLO x severity)."""

    slo: str
    severity: str
    factor: float
    long_window: float
    short_window: float
    pending_at: float
    fired_at: float
    burn_rate: float
    state: str = "firing"  # firing | resolved
    resolved_at: Optional[float] = None
    refires: int = 0

    def to_dict(self) -> Dict[str, object]:
        return {
            "slo": self.slo,
            "severity": self.severity,
            "factor": self.factor,
            "long_window": self.long_window,
            "short_window": self.short_window,
            "pending_at": self.pending_at,
            "fired_at": self.fired_at,
            "burn_rate": self.burn_rate,
            "state": self.state,
            "resolved_at": self.resolved_at,
            "refires": self.refires,
        }


class _TierState:
    """State machine for one (SLO, severity) pair."""

    __slots__ = ("state", "pending_at", "quiet_ticks", "alert")

    def __init__(self) -> None:
        self.state = "inactive"  # inactive | pending | firing
        self.pending_at = 0.0
        self.quiet_ticks = 0
        self.alert: Optional[Alert] = None


class SLOEvaluator:
    """Evaluates SLO burn rates on a virtual-time cadence.

    Pure bookkeeping between timeouts: reads cumulative histogram/counter
    state, appends to its own snapshot deques, records burn-rate gauge
    series, and emits Events through the hub's recorder. Consumes no
    randomness and never touches the wall clock.
    """

    def __init__(
        self,
        hub,
        slos: Optional[List[SLO]] = None,
        pending_for: float = 0.0,
        resolve_after: int = 3,
    ) -> None:
        self.hub = hub
        self.slos = list(slos) if slos is not None else default_slos()
        self.pending_for = pending_for
        self.resolve_after = max(1, int(resolve_after))
        self.alerts: List[Alert] = []
        self._snaps: Dict[str, List[Tuple[float, float, float]]] = {
            slo.name: [] for slo in self.slos
        }
        self._tiers: Dict[Tuple[str, str], _TierState] = {}
        self._proc = None

    # -- process -----------------------------------------------------------
    def start(self) -> "SLOEvaluator":
        if self._proc is None:
            self._proc = self.hub.env.process(self._run(), name="slo-evaluator")
        return self

    def _run(self):
        while True:
            yield self.hub.env.timeout(INTERVAL)
            self.evaluate()

    # -- indicators --------------------------------------------------------
    def _totals(self, slo: SLO) -> Tuple[float, float]:
        """Cumulative (good, total) for one SLO's indicator."""
        m = self.hub.metrics
        if slo.kind == "latency":
            hist = m.histograms.get(slo.family)
            if hist is None:
                return 0.0, 0.0
            return float(hist.cumulative_le(slo.threshold)), float(hist.count)
        good = total = 0.0
        for name, value in m.counters.items():
            fam = _family(name)
            if fam == slo.good_family:
                good += value
            if fam in slo.total_families:
                total += value
        return good, total

    def _burn(self, slo: SLO, now: float, window: float) -> float:
        """Windowed error rate / error budget; 0.0 with no traffic."""
        snaps = self._snaps[slo.name]
        if not snaps:
            return 0.0
        cutoff = now - window
        # Latest snapshot at or before the window start; the series starts
        # mid-run, so fall back to the oldest (rate over available range).
        base = snaps[0]
        for snap in snaps:
            if snap[0] <= cutoff:
                base = snap
            else:
                break
        head = snaps[-1]
        d_total = head[2] - base[2]
        if d_total <= 0:
            return 0.0
        d_bad = (head[2] - head[1]) - (base[2] - base[1])
        return (d_bad / d_total) / slo.budget

    # -- evaluation --------------------------------------------------------
    def evaluate(self) -> None:
        now = self.hub.env.now
        m = self.hub.metrics
        for slo in self.slos:
            good, total = self._totals(slo)
            snaps = self._snaps[slo.name]
            snaps.append((now, good, total))
            # Snapshots older than the widest window can never be a base.
            horizon = now - max(w.long_window for w in slo.windows) - INTERVAL
            while len(snaps) > 2 and snaps[1][0] <= horizon:
                snaps.pop(0)
            for policy in slo.windows:
                burn_long = self._burn(slo, now, policy.long_window)
                burn_short = self._burn(slo, now, policy.short_window)
                m.record(
                    metric(
                        "repro_slo_burn_rate", slo=slo.name, severity=policy.severity
                    ),
                    now,
                    burn_long,
                )
                self._step_tier(
                    slo,
                    policy,
                    now,
                    active=(burn_long >= policy.factor and burn_short >= policy.factor),
                    burn=max(burn_long, burn_short),
                )

    def _step_tier(
        self, slo: SLO, policy: BurnRatePolicy, now: float, active: bool, burn: float
    ) -> None:
        tier = self._tiers.setdefault((slo.name, policy.severity), _TierState())
        if active:
            if tier.state == "inactive":
                tier.state = "pending"
                tier.pending_at = now
            if tier.state == "pending" and now - tier.pending_at >= self.pending_for:
                self._fire(slo, policy, tier, now, burn)
            tier.quiet_ticks = 0
        else:
            if tier.state == "pending":
                tier.state = "inactive"
            elif tier.state == "firing":
                tier.quiet_ticks += 1
                if tier.quiet_ticks >= self.resolve_after:
                    self._resolve(slo, policy, tier, now)

    def _fire(
        self, slo: SLO, policy: BurnRatePolicy, tier: _TierState, now: float, burn: float
    ) -> None:
        tier.state = "firing"
        prior = tier.alert
        if prior is not None and prior.state == "resolved":
            prior.refires += 1
        alert = Alert(
            slo=slo.name,
            severity=policy.severity,
            factor=policy.factor,
            long_window=policy.long_window,
            short_window=policy.short_window,
            pending_at=tier.pending_at,
            fired_at=now,
            burn_rate=burn,
        )
        tier.alert = alert
        self.alerts.append(alert)
        self.hub.metrics.incr(
            metric("repro_slo_alerts_total", slo=slo.name, severity=policy.severity)
        )
        self.hub.events.emit(
            "SLOBurnRate",
            f"{slo.name}: {policy.severity} burn-rate alert "
            f"(>{policy.factor}x budget over {policy.long_window:g}s/"
            f"{policy.short_window:g}s windows)",
            involved_kind="SLO",
            involved_name=slo.name,
            type="Warning",
            source="slo-evaluator",
        )

    def _resolve(
        self, slo: SLO, policy: BurnRatePolicy, tier: _TierState, now: float
    ) -> None:
        tier.state = "inactive"
        tier.quiet_ticks = 0
        alert = tier.alert
        if alert is not None and alert.state == "firing":
            alert.state = "resolved"
            alert.resolved_at = now
        self.hub.events.emit(
            "SLOResolved",
            f"{slo.name}: {policy.severity} burn-rate alert resolved",
            involved_kind="SLO",
            involved_name=slo.name,
            type="Normal",
            source="slo-evaluator",
        )

    # -- artifact ----------------------------------------------------------
    def attainment(self, slo: SLO) -> Optional[float]:
        good, total = self._totals(slo)
        if total <= 0:
            return None
        return good / total

    def to_dict(self) -> Dict[str, object]:
        return {
            "interval": INTERVAL,
            "resolve_after": self.resolve_after,
            "slos": [
                dict(slo.to_dict(), attainment=self.attainment(slo))
                for slo in self.slos
            ],
            "alerts": [a.to_dict() for a in self.alerts],
        }
