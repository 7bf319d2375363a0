"""KubeShare-Sched: locality & resource aware scheduling (paper §4.3).

The heart of this module is :func:`schedule_request` — a faithful
implementation of the paper's Algorithm 1 as a pure function over
immutable device views, so it can be unit-tested, property-tested and
micro-benchmarked (Figure 11) in isolation. :class:`KubeShareSched` wraps
it in a controller that watches pending SharePods, derives the device
views from the vGPUs KubeShare-DevMgr holds (its placeholder pods, read
through the apiserver) plus the current SharePod population, and writes
the chosen GPUID back into the SharePodSpec for KubeShare-DevMgr to act
on.

Interpretation notes (documented deviations from the pseudo-code):

* Algorithm 1 line 17 reads ``if d.idle == false then next`` which, taken
  literally, would exempt *busy* devices from filtering and filter idle
  ones. An idle vGPU has no attached containers — no labels to conflict
  with and full residual capacity — so the evident intent is that idle
  devices pass the filter unconditionally and busy devices are checked.
  We implement that intent.
* ``new_dev()`` (lines 10/24) hands out a fresh hashed GPUID. Creating a
  vGPU ultimately requires a free physical GPU; when the cluster has none,
  the controller defers the sharePod and retries once capacity frees,
  rather than queueing an unbounded number of placeholder pods (this keeps
  later arrivals packable onto existing vGPUs — see DESIGN.md).
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Dict, Generator, Iterable, List, Optional, Set, Tuple

from ..cluster.apiserver import APIServer, NotFound
from ..cluster.controller import Controller
from ..cluster.etcd import WatchEventType
from ..cluster.objects import PodPhase
from ..obs import runtime as obs
from ..policy.objects import ANN_QUEUED, ANN_REQUEUE_AFTER
from ..sim import Environment
from .sharepod import SharePod
from .vgpu import new_gpuid

__all__ = [
    "DeviceView",
    "RequestView",
    "Decision",
    "schedule_request",
    "device_view",
    "build_device_views",
    "KubeShareSched",
]

_TERMINAL = (PodPhase.SUCCEEDED, PodPhase.FAILED)


@dataclass
class DeviceView:
    """Algorithm 1's view of one vGPU (Table 2's ``d``)."""

    gpuid: str
    util: float = 1.0  # residual computing capacity
    mem: float = 1.0  # residual memory space (fraction)
    aff: Set[str] = field(default_factory=set)
    anti_aff: Set[str] = field(default_factory=set)
    excl: Optional[str] = None
    idle: bool = True


@dataclass
class RequestView:
    """Algorithm 1's view of one container request (Table 2's ``r``)."""

    util: float = 0.0  # gpu_request
    mem: float = 0.0  # gpu_mem
    aff: Optional[str] = None
    anti_aff: Optional[str] = None
    excl: Optional[str] = None

    @classmethod
    def from_sharepod(cls, sp: SharePod) -> "RequestView":
        return cls(
            util=sp.spec.gpu_request,
            mem=sp.spec.gpu_mem,
            aff=sp.spec.sched_affinity,
            anti_aff=sp.spec.sched_anti_affinity,
            excl=sp.spec.sched_exclusion,
        )


@dataclass
class Decision:
    """Scheduling outcome."""

    gpuid: Optional[str]
    is_new: bool = False
    rejected: bool = False
    reason: str = ""

    @classmethod
    def reject(cls, reason: str) -> "Decision":
        return cls(gpuid=None, rejected=True, reason=reason)


def _fits(r: RequestView, d: DeviceView) -> bool:
    return r.mem <= d.mem + 1e-9 and r.util <= d.util + 1e-9


def _leftover(r: RequestView, d: DeviceView) -> float:
    """Residual capacity after a hypothetical placement (fit metric)."""
    return (d.util - r.util) + (d.mem - r.mem)


def schedule_request(
    r: RequestView,
    devices: List[DeviceView],
    placement: str = "paper",
    audit=None,
) -> Decision:
    """Algorithm 1: choose a vGPU (GPUID) for request *r*.

    *devices* is mutated the way the pseudo-code mutates ``d`` (label
    accretion on the chosen device) so that consecutive calls within one
    scheduling pass see each other's effects; callers that need a pristine
    view pass fresh copies.

    *placement* selects the step-3 heuristic (for the ablation bench):
    ``"paper"`` — best fit on label-free devices, worst fit on labelled
    ones (Algorithm 1's split); ``"best_fit"`` / ``"worst_fit"`` /
    ``"first_fit"`` — the same heuristic over all candidates.

    *audit* is an optional decision-log sink (duck-typed, see
    :class:`repro.obs.decisions.DecisionAudit`): every candidate
    considered is reported with its verdict, rejection reason, and fit
    score. ``None`` (the default) costs nothing; auditing never alters
    the decision.
    """
    if placement not in ("paper", "best_fit", "worst_fit", "first_fit"):
        raise ValueError(f"unknown placement policy {placement!r}")
    if audit is not None:
        audit.begin(r, devices, placement)
    # -- Step 1: assign by affinity label (lines 1-14) ---------------------
    if r.aff is not None:
        target = next((d for d in devices if r.aff in d.aff), None)
        if target is not None:
            reason = None
            if r.excl != target.excl:
                reason = (
                    f"affinity device {target.gpuid} has exclusion label "
                    f"{target.excl!r}, request has {r.excl!r}"
                )
            elif r.anti_aff is not None and r.anti_aff in target.anti_aff:
                reason = (
                    f"affinity device {target.gpuid} already hosts "
                    f"anti-affinity label {r.anti_aff!r}"
                )
            elif not _fits(r, target):
                reason = (
                    f"affinity device {target.gpuid} lacks capacity "
                    f"(util {target.util:.2f}/{r.util:.2f}, "
                    f"mem {target.mem:.2f}/{r.mem:.2f})"
                )
            if reason is not None:
                if audit is not None:
                    audit.consider(target.gpuid, "affinity", False, reason=reason)
                    audit.reject(reason)
                return Decision.reject(reason)
            if audit is not None:
                audit.consider(
                    target.gpuid,
                    "affinity",
                    True,
                    reason=f"carries affinity label {r.aff!r}",
                    score=_leftover(r, target),
                )
                audit.choose(target.gpuid, False, "affinity")
            if r.anti_aff is not None:
                target.anti_aff.add(r.anti_aff)
            target.aff.add(r.aff)
            target.idle = False
            target.util -= r.util
            target.mem -= r.mem
            return Decision(gpuid=target.gpuid)
        # No device carries the label yet: prefer an idle or new device so
        # future same-affinity containers have room (lines 9-14).
        target = next((d for d in devices if d.idle), None)
        is_new = False
        if target is None:
            target = DeviceView(gpuid=new_gpuid())
            devices.append(target)
            is_new = True
        if audit is not None:
            audit.consider(
                target.gpuid,
                "affinity",
                True,
                reason=(
                    "new vGPU seeded for unseen affinity label"
                    if is_new
                    else "idle device seeded for unseen affinity label"
                ),
                score=_leftover(r, target),
            )
            audit.choose(target.gpuid, is_new, "affinity-new")
        target.aff.add(r.aff)
        if r.anti_aff is not None:
            target.anti_aff.add(r.anti_aff)
        target.excl = r.excl
        target.idle = False
        target.util -= r.util
        target.mem -= r.mem
        return Decision(gpuid=target.gpuid, is_new=is_new)

    # -- Step 2: filter by exclusion / anti-affinity / resources (15-20) ----
    candidates: List[DeviceView] = []
    for d in devices:
        if d.idle:
            candidates.append(d)  # idle devices pass unconditionally
            if audit is not None:
                audit.consider(d.gpuid, "filter", True, reason="idle")
            continue
        if (r.excl is not None or d.excl is not None) and r.excl != d.excl:
            if audit is not None:
                audit.consider(
                    d.gpuid,
                    "filter",
                    False,
                    reason=f"exclusion mismatch ({d.excl!r} vs {r.excl!r})",
                )
            continue
        if r.anti_aff is not None and r.anti_aff in d.anti_aff:
            if audit is not None:
                audit.consider(
                    d.gpuid,
                    "filter",
                    False,
                    reason=f"hosts anti-affinity label {r.anti_aff!r}",
                )
            continue
        if not _fits(r, d):
            if audit is not None:
                audit.consider(
                    d.gpuid,
                    "filter",
                    False,
                    reason=(
                        f"insufficient capacity (util {d.util:.2f}/{r.util:.2f}, "
                        f"mem {d.mem:.2f}/{r.mem:.2f})"
                    ),
                )
            continue
        candidates.append(d)
        if audit is not None:
            audit.consider(d.gpuid, "filter", True)

    # -- Step 3: placement (lines 21-26) --------------------------------------
    target = None
    rule = ""
    if placement == "paper":
        no_aff = [d for d in candidates if not d.aff]
        if audit is not None:
            for d in candidates:
                audit.consider(
                    d.gpuid,
                    "placement",
                    True,
                    score=_leftover(r, d),
                    pool="label-free" if not d.aff else "labelled",
                )
        if no_aff:  # best fit among label-free devices
            target = min(no_aff, key=lambda d: (_leftover(r, d), d.gpuid))
            rule = "best-fit(label-free)"
        else:
            with_aff = [d for d in candidates if d.aff]
            if with_aff:  # worst fit among labelled devices
                target = max(with_aff, key=lambda d: (_leftover(r, d), d.gpuid))
                rule = "worst-fit(labelled)"
    elif candidates:
        if audit is not None:
            for d in candidates:
                audit.consider(d.gpuid, "placement", True, score=_leftover(r, d))
        if placement == "best_fit":
            target = min(candidates, key=lambda d: (_leftover(r, d), d.gpuid))
        elif placement == "worst_fit":
            target = max(candidates, key=lambda d: (_leftover(r, d), d.gpuid))
        else:  # first_fit: stable order of appearance
            target = candidates[0]
        rule = placement
    is_new = False
    if target is None:
        target = DeviceView(gpuid=new_gpuid())
        devices.append(target)
        is_new = True
        rule = "new-device"
    if audit is not None:
        audit.choose(target.gpuid, is_new, rule)
    target.excl = r.excl
    if r.anti_aff is not None:
        target.anti_aff.add(r.anti_aff)
    target.idle = False
    target.util -= r.util
    target.mem -= r.mem
    return Decision(gpuid=target.gpuid, is_new=is_new)


def device_view(gpuid: str, sharepods: Iterable[SharePod]) -> DeviceView:
    """One vGPU's view: *sharepods*, the live SharePods assigned to
    *gpuid*, subtracted in the order given (SharePod-key order keeps the
    floats equal to a relist's)."""
    view = DeviceView(gpuid=gpuid)
    for sp in sharepods:
        view.idle = False
        view.util -= sp.spec.gpu_request
        view.mem -= sp.spec.gpu_mem
        if sp.spec.sched_affinity is not None:
            view.aff.add(sp.spec.sched_affinity)
        if sp.spec.sched_anti_affinity is not None:
            view.anti_aff.add(sp.spec.sched_anti_affinity)
        if sp.spec.sched_exclusion is not None:
            view.excl = sp.spec.sched_exclusion
    return view


def build_device_views(
    gpuids: Iterable[str], sharepods: List[SharePod]
) -> List[DeviceView]:
    """Derive Algorithm 1's device list from the pool's GPUIDs plus the
    live SharePod population (requests, memory, locality labels): one
    view per GPUID in the pool or held by a live SharePod."""
    members: Dict[str, List[SharePod]] = {g: [] for g in gpuids}
    for sp in sharepods:
        gpuid = sp.spec.gpu_id
        if gpuid is not None and sp.status.phase not in _TERMINAL:
            # A GPUID not in the pool is assigned but not yet materialized.
            members.setdefault(gpuid, []).append(sp)
    return [device_view(g, members[g]) for g in sorted(members)]


class KubeShareSched(Controller):
    """The scheduling controller: pending SharePods → GPUID assignments.

    It shares no state with KubeShare-DevMgr but the apiserver, in the
    single-instance and the HA wiring alike: the vGPUs it may place on
    are the placeholder pods DevMgr created, kept by its
    :class:`~repro.core.viewindex.DeviceViewIndex`. A promoted HA
    scheduler therefore needs no state handoff.
    """

    kind = "SharePod"
    #: reconciles run concurrently, as goroutines would in the Go
    #: implementation — op latency must not serialize across sharePods
    #: (Figure 10: KubeShare's overhead stays constant with concurrency).
    workers = 16

    def __init__(
        self,
        env: Environment,
        api: APIServer,
        defer_delay: float = 0.25,
        op_latency: float = 0.08,
    ) -> None:
        super().__init__(env, api, name="kubeshare-sched")
        self.defer_delay = defer_delay
        #: API-roundtrip cost of one scheduling pass (list SharePods +
        #: query vGPU info + patch), calibrated — see EXPERIMENTS.md.
        self.op_latency = op_latency
        #: wall-clock seconds spent in schedule_request, for Figure 11.
        self.algo_wall_times: List[Tuple[int, float]] = []
        self.scheduled_total = 0
        self.rejected_total = 0
        #: multi-tenant preemption planner (a
        #: :class:`repro.policy.layer.PolicyEngine`), or ``None`` — the
        #: default, costing one attribute test in the defer branch.
        self.contention = None
        #: lazily built cached device-view index.
        self._index = None
        #: informer-cache insertion rank of every cached sharePod key (the
        #: handler sees each cache insert and pop), and the cached keys
        #: still waiting for a GPUID: what a capacity-freed wake requeues.
        self._rank: Dict[str, int] = {}
        self._ranks = itertools.count()
        self._waiting: Set[str] = set()

    # -- lifecycle -----------------------------------------------------------
    def _get_index(self):
        """The cached device-view index (created on the first pass)."""
        if self._index is None:
            from .viewindex import DeviceViewIndex  # deferred: import cycle

            self._index = DeviceViewIndex(self.api)
        return self._index

    def stop(self) -> None:
        # Close the index's etcd watches: a deposed HA leader must not
        # keep invalidation hooks registered on the shared store.
        if self._index is not None:
            self._index.close()
            self._index = None
        super().stop()

    # -- event routing -------------------------------------------------------
    def filter(self, etype: WatchEventType, obj: SharePod) -> bool:
        key = obj.metadata.key
        self._waiting.discard(key)
        if etype is WatchEventType.DELETE:
            self._rank.pop(key, None)
        else:
            self._rank.setdefault(key, next(self._ranks))
            if obj.status.phase not in _TERMINAL:
                if obj.spec.gpu_id is not None:
                    return False
                self._waiting.add(key)
                return True
        # Capacity freed: wake every still-unscheduled sharePod, in the
        # informer cache's order.
        for waiting in sorted(self._waiting, key=self._rank.__getitem__):
            self.queue.add(waiting)
        return False

    def would_act(self, key: str) -> bool:
        """A pass acts only on a cached sharePod still waiting for a
        GPUID: for any other key it returns at its first check."""
        return key in self._waiting

    # -- reconcile --------------------------------------------------------------
    def reconcile(self, key: str) -> Generator:  # hot-path
        pass_start = self.env.now  # virtual pass latency (repro_algo1_pass_seconds)
        namespace, name = key.split("/", 1)
        sp = self.api.get("SharePod", name, namespace)
        if sp is None or sp.spec.gpu_id is not None or sp.status.phase in _TERMINAL:
            return
        ann = sp.metadata.annotations
        if ann:  # policy gates; empty-dict check keeps the no-policy cost flat
            if ANN_QUEUED in ann:
                return  # quota-parked; the unqueue PUT re-triggers us
            resume = ann.get(ANN_REQUEUE_AFTER)
            if resume is not None and float(resume) > self.env.now:
                # post-eviction backoff: come back exactly when it expires
                self.env.process(
                    self._requeue_later(key, float(resume) - self.env.now)
                )
                return
        if self.op_latency > 0:
            yield self.env.timeout(self.op_latency)
            sp = self.api.get("SharePod", name, namespace)
            if sp is None or sp.spec.gpu_id is not None or sp.status.phase in _TERMINAL:
                return
        # hot-path: Algorithm 1's inputs come from the commit-invalidated
        # DeviceViewIndex, not a relist. The sharePod being scheduled
        # needs no exclusion from the cached population: its gpu_id is
        # None (checked above), so it contributes nothing to the views
        # either way. The index reads etcd past the apiserver's outage
        # gate; no sim time has passed since the gated get above, so one
        # gate call here keeps the pass gated exactly like a relist.
        self.api._gate()
        index = self._get_index()
        devices = index.device_views()
        # One view per vGPU in the pool or held by a live sharePod (not
        # yet materialized), counted before Algorithm 1 appends a new one.
        vgpus = len(devices)
        population = index.sharepod_count()

        audit = obs.decision_audit()
        t0 = time.perf_counter()  # noqa: RPR001 - Fig 11 measures host wall time of Algorithm 1 itself
        decision = schedule_request(RequestView.from_sharepod(sp), devices, audit=audit)
        self.algo_wall_times.append((population, time.perf_counter() - t0))  # noqa: RPR001 - Fig 11 host timing

        if decision.rejected:
            self.rejected_total += 1
            obs.commit_decision(audit, key, decision, started_at=pass_start)
            obs.event(
                "FailedScheduling",
                f"unschedulable: {decision.reason}",
                involved_kind="SharePod",
                involved_name=name,
                involved_namespace=namespace,
                type="Warning",
                source=self.name,
            )
            self._fail(namespace, name, decision.reason)
            return

        if decision.is_new:
            if sp.spec.best_effort:
                # Harvesting mode: spare capacity on existing vGPUs only —
                # a best-effort SharePod never acquires a physical GPU.
                obs.commit_decision(
                    audit, key, decision, outcome="deferred", started_at=pass_start
                )
                self.env.process(self._requeue_later(key, self.defer_delay))
                return
            # A new vGPU needs a free physical GPU; if the cluster is fully
            # acquired, defer and retry when something frees up.
            if vgpus >= max(index.gpu_capacity(), 1):
                # Defer without blocking the worker; capacity-free events
                # also requeue us (see filter()).
                if self.contention is not None:
                    # Multi-tenant mode: try to plan a preemption so this
                    # (possibly high-priority) SharePod eventually places.
                    self.contention.try_preempt(self.api, sp, key, self.env.now)
                obs.commit_decision(
                    audit, key, decision, outcome="deferred", started_at=pass_start
                )
                obs.event(
                    "SchedulingDeferred",
                    "new vGPU needed but cluster GPU capacity is exhausted; "
                    "will retry when capacity frees",
                    involved_kind="SharePod",
                    involved_name=name,
                    involved_namespace=namespace,
                    source=self.name,
                )
                self.env.process(self._requeue_later(key, self.defer_delay))
                return

        def assign(obj: SharePod) -> None:
            if obj.spec.gpu_id is None:
                obj.spec.gpu_id = decision.gpuid
                obj.status.scheduled_time = self.env.now

        try:
            self.api.patch("SharePod", name, assign, namespace)
        except NotFound:
            return
        self.scheduled_total += 1
        obs.commit_decision(audit, key, decision, started_at=pass_start)
        obs.event(
            "Scheduled",
            f"assigned vGPU {decision.gpuid}"
            + (" (new vGPU)" if decision.is_new else ""),
            involved_kind="SharePod",
            involved_name=name,
            involved_namespace=namespace,
            source=self.name,
        )
        return
        yield  # pragma: no cover - generator by contract

    def _fail(self, namespace: str, name: str, reason: str) -> None:
        def mutate(obj: SharePod) -> None:
            obj.status.phase = PodPhase.FAILED
            obj.status.message = f"unschedulable: {reason}"
            obj.status.finish_time = self.env.now

        try:
            self.api.patch("SharePod", name, mutate, namespace)
        except NotFound:
            pass
