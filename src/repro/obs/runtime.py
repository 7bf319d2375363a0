"""The observability hub and its zero-cost-when-disabled hook surface.

Instrumented modules never talk to the tracer / event recorder / decision
log directly: they call the module-level helpers below (``span``,
``event``, ``token_grant``, ``reconcile_ctx``, …), each of which returns
immediately when no hub is enabled. That keeps the disabled cost of every
hook to one global read and one ``is None`` test, and keeps the
instrumentation free of import cycles — this module imports only the
standard library at import time; the hub's parts are imported lazily at
construction.

Determinism contract: every helper is pure bookkeeping in virtual time.
No helper sleeps, yields, reads the wall clock, consumes randomness, or
draws from the shared ObjectMeta uid counter, so an identical-seed run
replays byte-identically with the hub enabled or disabled (the
acceptance check of the observability PR). Event write-through does
advance etcd's revision counter, but nothing decision-relevant depends
on absolute revisions — only on CAS equality, which is unaffected.

Enable::

    hub = ObsHub(cluster.env).attach_cluster(cluster)
    enable(hub)
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

__all__ = [
    "ObsHub",
    "current",
    "enabled",
    "enable",
    "disable",
]

#: virtual seconds between metric samples, and between SLO evaluations.
INTERVAL = 1.0

_hub: Optional["ObsHub"] = None


class _NullCtx:
    """Reusable no-op context manager for disabled span helpers."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


_NULL = _NullCtx()


class ObsHub:
    """One run's worth of spans, events, decisions, and metric families."""

    def __init__(self, env, label: str = "run") -> None:
        from ..metrics.collector import MetricsRegistry
        from .decisions import DecisionLog
        from .hist import HistogramInstruments
        from .kevents import EventRecorder
        from .tracing import Tracer

        self.env = env
        self.label = label
        self.tracer = Tracer(env)
        self.events = EventRecorder(env)
        self.decisions = DecisionLog()
        self.metrics = MetricsRegistry()
        #: latency histograms fed by span closures + direct seams.
        self.hist = HistogramInstruments(self.metrics)
        self.tracer.on_end = self.hist.on_span_end
        #: armed on demand via start_slo() / start_profiler().
        self.slo = None
        self.profiler = None
        #: SharePod key -> root journey span.
        self.roots: Dict[str, Any] = {}
        #: leadership group name -> open reign span.
        self._reigns: Dict[str, Any] = {}
        self._clusters: List[Any] = []
        self._kubeshares: List[Any] = []
        self._sampler_proc = None
        #: per-cluster last-seen etcd revision (keyed by attach order —
        #: a single scalar would corrupt the rate series the moment a
        #: second cluster is attached, e.g. under federation).
        self._last_revision: Dict[int, int] = {}

    # -- wiring ------------------------------------------------------------
    def attach_cluster(self, cluster) -> "ObsHub":
        """Bind the event write-through and sampler to a cluster."""
        cluster.api.register_crd("Event")
        if self.events.api is None:
            self.events.api = cluster.api
        self._clusters.append(cluster)
        return self

    def attach_federation(self, fed) -> "ObsHub":
        """Bind every member cluster plus the federation's own apiserver."""
        fed.api.register_crd("Event")
        if self.events.api is None:
            self.events.api = fed.api
        for name in sorted(fed.members):
            member = fed.members[name]
            self.attach_cluster(member.cluster)
            self.attach_kubeshare(member.kubeshare)
        return self

    def attach_kubeshare(self, ks) -> "ObsHub":
        """Register a KubeShare's controllers for work-queue sampling:
        each sample reads its running instances, so an elected one's
        follow a failover."""
        self._kubeshares.append(ks)
        return self

    def start_sampler(self) -> "ObsHub":
        """Start the periodic read-only metric sampler process."""
        if self._sampler_proc is None:
            self._sampler_proc = self.env.process(self._sample(), name="obs-sampler")
        return self

    def start_slo(self) -> "ObsHub":
        """Start the virtual-time SLO evaluator over the default SLO set."""
        from .slo import SLOEvaluator

        if self.slo is None:
            self.slo = SLOEvaluator(self).start()
        return self

    def start_profiler(self) -> "ObsHub":
        """Install the wall-clock profiler around the kernel's dispatch.

        Host-time data stays out of :meth:`snapshot`; see
        :mod:`repro.obs.profile`.
        """
        from .profile import WallProfiler

        if self.profiler is None:
            self.profiler = WallProfiler(self.env, tracer=self.tracer).install()
        return self

    def _live_controllers(self) -> List[Any]:
        # A KubeShare's running controllers; an elected one's are None
        # mid-failover.
        return [
            ctl
            for ks in self._kubeshares
            for ctl in (ks.sched, ks.devmgr)
            if ctl is not None
        ]

    def _sample(self):
        from .promfmt import metric

        while True:
            yield self.env.timeout(INTERVAL)
            now = self.env.now
            m = self.metrics
            multi = len(self._clusters) > 1
            # Kernel-wide, not per-cluster: recording this inside the loop
            # below used to stack one duplicate same-timestamp sample per
            # attached cluster in federation runs.
            m.record("repro_sim_events_total", now, self.env.events_processed)
            for i, cluster in enumerate(self._clusters):
                # Single-cluster series keep their historical names; with
                # several clusters attached each gets its own label.
                tag = {}
                if multi:
                    prefix = getattr(cluster.config, "node_prefix", "")
                    tag = {"cluster": prefix.rstrip("-") or str(i)}
                rev = cluster.etcd.revision
                m.record(metric("repro_etcd_revision", **tag), now, rev)
                last = self._last_revision.get(i)
                if last is not None:
                    m.record(
                        metric("repro_etcd_revision_rate", **tag),
                        now,
                        (rev - last) / INTERVAL,
                    )
                self._last_revision[i] = rev
                m.record(
                    metric("repro_workqueue_depth", queue="kube-scheduler", **tag),
                    now,
                    len(cluster.scheduler.queue),
                )
                for node in cluster.nodes:
                    backend = node.backend
                    for uuid in backend.device_uuids():
                        m.record(
                            metric("repro_gpu_quota_occupancy", device=uuid),
                            now,
                            backend.window_occupancy(uuid),
                        )
            for ctl in self._live_controllers():
                m.record(
                    metric("repro_workqueue_depth", controller=ctl.name),
                    now,
                    len(ctl.queue),
                )

    # -- artifact ----------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Freeze the run into a JSON-serializable artifact dict.

        Intended for end-of-run export: still-open spans are closed with
        status ``open`` at the current virtual time.
        """
        self.events.flush()
        self.tracer.close_open()
        return {
            "label": self.label,
            "now": self.env.now,
            "spans": self.tracer.to_dicts(),
            "dropped_spans": self.tracer.dropped,
            "events": self.events.to_dicts(),
            "decisions": self.decisions.to_dicts(),
            "counters": dict(self.metrics.counters),
            "series": {
                name: {"times": list(ts.times), "values": list(ts.values)}
                for name, ts in sorted(self.metrics.series.items())
            },
            "histograms": self.hist.to_dicts(),
            # Everything above is virtual-time deterministic — the
            # profiler's host timings never enter the snapshot, so
            # identical-seed snapshots stay byte-identical.
            "slo": self.slo.to_dict() if self.slo is not None else None,
        }

    def save(self, path: str) -> str:
        with open(path, "w") as fh:
            json.dump(self.snapshot(), fh)
        return path


# -- global hub ------------------------------------------------------------
def current() -> Optional[ObsHub]:
    return _hub


def enabled() -> bool:
    return _hub is not None


def enable(hub: ObsHub) -> ObsHub:
    global _hub
    _hub = hub
    return hub


def disable() -> None:
    global _hub
    if _hub is not None and _hub.profiler is not None:
        # Leave no dangling kernel hook behind — a profiler must never
        # outlive its hub (tests reset via this path too).
        _hub.profiler.uninstall()
    _hub = None


# -- generic hooks ---------------------------------------------------------
def span(name: str, track: str, trace_id: Optional[str] = None, **attrs):
    hub = _hub
    if hub is None:
        return _NULL
    return hub.tracer.span(name, track, trace_id=trace_id, **attrs)


def instant(name: str, track: str, trace_id: Optional[str] = None, **attrs) -> None:
    hub = _hub
    if hub is not None:
        hub.tracer.instant(name, track, trace_id=trace_id, **attrs)


def event(
    reason: str,
    message: str,
    involved_kind: str = "",
    involved_name: str = "",
    involved_namespace: str = "default",
    type: str = "Normal",
    source: str = "",
) -> None:
    hub = _hub
    if hub is not None:
        hub.events.emit(
            reason,
            message,
            involved_kind=involved_kind,
            involved_name=involved_name,
            involved_namespace=involved_namespace,
            type=type,
            source=source,
        )


def incr(name: str, amount: float = 1.0) -> None:
    hub = _hub
    if hub is not None:
        hub.metrics.incr(name, amount)


# -- apiserver -------------------------------------------------------------
def api_write(verb: str, kind: str, namespace: str, name: str) -> None:
    """Instant marker for a successful apiserver write (Event writes are
    skipped — the recorder's own traffic would only be noise)."""
    hub = _hub
    if hub is None or kind == "Event":
        return
    hub.metrics.incr(f'repro_api_writes_total{{verb="{verb}"}}')
    trace_id = f"{namespace}/{name}" if kind == "SharePod" else None
    hub.tracer.instant(
        f"{verb} {kind}", "apiserver", trace_id=trace_id, object=f"{namespace}/{name}"
    )


def sharepod_created(obj) -> None:
    """Open the SharePod's journey root span (apiserver create)."""
    hub = _hub
    if hub is None:
        return
    key = obj.metadata.key
    if key not in hub.roots:
        hub.roots[key] = hub.tracer.start(
            f"sharepod {key}",
            track=f"sharepod:{obj.metadata.name}",
            trace_id=key,
            detached=True,
        )


def sharepod_running(key: str) -> None:
    hub = _hub
    if hub is None:
        return
    root = hub.roots.get(key)
    if root is not None:
        hub.tracer.end(root, status="ok")


def sharepod_failed(key: str, message: str = "") -> None:
    hub = _hub
    if hub is None:
        return
    root = hub.roots.get(key)
    if root is not None:
        if message:
            root.attrs["message"] = message
        hub.tracer.end(root, status="error")


# -- controllers -----------------------------------------------------------
def reconcile_ctx(controller, key: str):
    """Span around one reconcile pass; parents into the SharePod journey
    when the controller reconciles SharePods."""
    hub = _hub
    if hub is None:
        return _NULL
    parent = hub.roots.get(key) if getattr(controller, "kind", None) == "SharePod" else None
    trace_id = key if parent is not None else None
    return hub.tracer.span(
        "reconcile", controller.name, parent=parent, trace_id=trace_id, key=key
    )


def decision_audit():
    """A fresh Algorithm 1 audit, or ``None`` when disabled."""
    hub = _hub
    if hub is None:
        return None
    return hub.decisions.new_audit()


def commit_decision(
    audit,
    sharepod_key: str,
    decision,
    outcome: Optional[str] = None,
    started_at: Optional[float] = None,
) -> None:
    hub = _hub
    if hub is None or audit is None:
        return
    now = hub.env.now
    hub.decisions.commit(audit, sharepod_key, now)
    if outcome is None:
        outcome = "rejected" if decision.rejected else "scheduled"
    hub.metrics.incr(f'repro_sched_decisions_total{{outcome="{outcome}"}}')
    if started_at is not None:
        # One Algorithm 1 pass in virtual time: reconcile entry -> commit
        # (modeled op latency + apiserver gating; the host-time cost of
        # the pass is Fig 11's algo_wall_times, not this histogram).
        hub.hist.algo1_pass(now, now - started_at)
    if outcome == "scheduled":
        root = hub.roots.get(sharepod_key)
        if root is not None:
            hub.hist.schedule_latency(now, now - root.start)


def policy_decision(
    action: str, subject: str, reason: str, details: Optional[Dict[str, Any]] = None
) -> None:
    """Record a multi-tenant policy decision (admission, preemption,
    eviction, reaping) in the decision log, alongside Algorithm 1's
    placement records, so ``explain <sharepod>`` shows the full story."""
    hub = _hub
    if hub is None:
        return
    from .decisions import DecisionRecord

    hub.decisions.records.append(
        DecisionRecord(
            t=hub.env.now,
            sharepod=subject,
            request=dict(details or {}),
            placement="policy",
            reason=reason,
            rule=f"policy:{action}",
        )
    )
    hub.metrics.incr(f'repro_policy_decisions_total{{action="{action}"}}')


# -- leader election -------------------------------------------------------
def leader_changed(group_name: str, identity: str, epoch: int) -> None:
    hub = _hub
    if hub is None:
        return
    prev = hub._reigns.get(group_name)
    if prev is not None and prev.end is None:
        hub.tracer.end(prev, status="ok")
    hub._reigns[group_name] = hub.tracer.start(
        f"reign {identity}",
        track=f"leader:{group_name}",
        detached=True,
        attrs={"identity": identity, "epoch": epoch},
    )
    hub.metrics.incr(f'repro_leader_changes_total{{group="{group_name}"}}')
    hub.events.emit(
        "LeaderChanged",
        f"{identity} acquired leadership (epoch {epoch})",
        involved_kind="Lease",
        involved_name=group_name,
        source="leader-elector",
    )


def leader_lost(group_name: str, identity: str, reason: str) -> None:
    hub = _hub
    if hub is None:
        return
    reign = hub._reigns.get(group_name)
    if reign is not None and reign.end is None and reign.attrs.get("identity") == identity:
        reign.attrs["lost"] = reason
        hub.tracer.end(reign, status="error")
    hub.events.emit(
        "LeaderLost",
        f"{identity} lost leadership: {reason}",
        involved_kind="Lease",
        involved_name=group_name,
        type="Warning",
        source="leader-elector",
    )


# -- token backend ---------------------------------------------------------
def token_grant(device_uuid: str, client_id: str, quota: float) -> None:
    hub = _hub
    if hub is None:
        return
    hub.metrics.incr(f'repro_token_grants_total{{device="{device_uuid}"}}')
    hub.tracer.instant(
        "token.grant", "token-backend", device=device_uuid, client=client_id, quota=quota
    )


def token_deny(device_uuid: str, queued: int) -> None:
    hub = _hub
    if hub is None:
        return
    hub.metrics.incr(f'repro_token_denies_total{{device="{device_uuid}"}}')
    hub.events.emit(
        "TokenThrottled",
        "every queued client is at its gpu_limit; waiting for the usage window to slide",
        involved_kind="GPU",
        involved_name=device_uuid,
        type="Warning",
        source="token-backend",
    )


# -- device library (frontend) --------------------------------------------
def token_wait_ctx(pod_name: str, device_uuid: str):
    hub = _hub
    if hub is None:
        return _NULL
    return hub.tracer.span(
        "token.wait", f"app:{pod_name}", trace_id=f"default/{pod_name}", device=device_uuid
    )


def launch_ctx(pod_name: str, device_uuid: str, work: float):
    hub = _hub
    if hub is None:
        return _NULL
    return hub.tracer.span(
        "cuLaunchKernel",
        f"app:{pod_name}",
        trace_id=f"default/{pod_name}",
        device=device_uuid,
        work=round(work, 6),
    )


# -- federation ------------------------------------------------------------
def cluster_health(name: str, old: str, new: str) -> None:
    """Record a member-cluster health transition (prober state machine)."""
    hub = _hub
    if hub is None:
        return
    hub.metrics.incr(f'repro_cluster_health_transitions_total{{to="{new}"}}')
    hub.tracer.instant(
        f"health {old}->{new}", "federation", cluster=name
    )
    hub.events.emit(
        "ClusterHealthChanged",
        f"member {name}: {old} -> {new}",
        involved_kind="Cluster",
        involved_name=name,
        type="Warning" if new != "Healthy" else "Normal",
        source="cluster-health-prober",
    )


def federation_decision(
    action: str, subject: str, reason: str, details: Optional[Dict[str, Any]] = None
) -> None:
    """Record a global-placer decision (place, defer, reschedule, fence,
    complete) in the decision log, alongside Algorithm 1's placement
    records, so the full cross-cluster story of a record is explainable."""
    hub = _hub
    if hub is None:
        return
    from .decisions import DecisionRecord

    hub.decisions.records.append(
        DecisionRecord(
            t=hub.env.now,
            sharepod=subject,
            request=dict(details or {}),
            placement="federation",
            reason=reason,
            rule=f"federation:{action}",
        )
    )
    hub.metrics.incr(f'repro_federation_decisions_total{{action="{action}"}}')
    if action == "place" and details and "latency" in details:
        hub.hist.federation_place(hub.env.now, float(details["latency"]))


# -- chaos -----------------------------------------------------------------
def fault_injected(kind: str, target: str, outcome: str = "") -> None:
    hub = _hub
    if hub is None:
        return
    hub.metrics.incr(f'repro_chaos_faults_total{{kind="{kind}"}}')
    hub.tracer.instant("fault", "chaos", kind=kind, target=target)
    hub.events.emit(
        "ChaosFaultInjected",
        f"{kind} -> {target}" + (f" ({outcome})" if outcome else ""),
        involved_kind="Fault",
        involved_name=kind,
        type="Warning",
        source="chaos-engine",
    )


# The global hub is module state; tests reset it like every other global.
from ..analysis.resets import register_reset  # noqa: E402

register_reset("repro.obs.hub", disable)
