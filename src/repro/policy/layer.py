"""The policy layer: one-call wiring of quotas, priorities, and reaping.

:class:`PolicyLayer` installs the multi-tenant machinery onto a cluster
that already runs KubeShare:

* registers the ``Namespace`` and ``PriorityClass`` CRDs;
* hooks :class:`~repro.policy.admission.QuotaAdmission` into the
  apiserver's admission chain;
* starts the :class:`~repro.policy.quota.QuotaController` (FIFO unqueue +
  GPU-time ledger) and, when configured, the
  :class:`~repro.policy.reaper.LifetimeReaper`, each as an
  :class:`~repro.cluster.leaderelection.HAControllerGroup` with
  KubeShare's ``replicas`` (one unelected instance, or N elected);
* exposes :class:`PolicyEngine`, the stateless preemption planner the
  scheduler consults from its defer branch.

Zero-cost contract: a cluster that never creates a Namespace or
PriorityClass object pays one ``is None`` test in the scheduler's defer
branch and nothing anywhere else — the admission plugin returns on the
first missing-Namespace lookup, and no controller process runs unless
the layer is installed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from ..cluster.apiserver import ServiceUnavailable, UnknownKind
from ..cluster.leaderelection import HAControllerGroup
from ..cluster.objects import PodPhase
from ..obs import runtime as obs
from .admission import QuotaAdmission
from .objects import (
    ANN_EVICT,
    ANN_EVICTED_BY,
    ANN_QUEUED,
    Namespace,
    PriorityClass,
)
from .preemption import Victim, resolve_priority, select_victims
from .quota import QuotaController
from .reaper import LifetimeReaper, ReaperConfig
from .revocation import mark_eviction

__all__ = ["PolicyConfig", "PolicyEngine", "PolicyLayer"]

_TERMINAL = (PodPhase.SUCCEEDED, PodPhase.FAILED)


@dataclass
class PolicyConfig:
    """Knobs of the multi-tenant policy layer (see EXPERIMENTS.md)."""

    #: grace period between eviction mark and forced teardown, seconds.
    drain_window: float = 2.0
    #: evicted-SharePod requeue backoff: base and cap, seconds.
    requeue_base: float = 0.5
    requeue_cap: float = 8.0
    #: master switch for priority preemption (quotas work without it).
    preemption: bool = True
    #: install the lifetime reaper with this config (``None`` = no reaper).
    reaper: Optional[ReaperConfig] = None


class PolicyEngine:
    """Stateless preemption planner consulted by the scheduler.

    All decision state lives in SharePod annotations, so a scheduler
    failover mid-preemption loses nothing: marked victims keep draining
    under DevMgr, and the promoted leader's next defer pass sees the
    in-flight plan through :data:`~repro.policy.objects.ANN_EVICTED_BY`.
    """

    def __init__(self, config: Optional[PolicyConfig] = None) -> None:
        self.config = config or PolicyConfig()
        self.preemptions_total = 0
        self.victims_total = 0

    # -- snapshot helpers --------------------------------------------------
    @staticmethod
    def priority_classes(api: Any) -> Dict[str, int]:
        try:
            return {pc.name: pc.spec.value for pc in api.list("PriorityClass")}
        except UnknownKind:
            return {}

    @staticmethod
    def _preempting(sp: Any, api: Any) -> bool:
        name = getattr(sp.spec, "priority_class", None)
        if not name:
            return True  # classless pods may still revoke best-effort capacity
        try:
            pc = api.get("PriorityClass", name)
        except UnknownKind:
            return True
        return pc is None or pc.spec.preempting

    # -- the hook ----------------------------------------------------------
    def try_preempt(self, api: Any, sp: Any, key: str, now: float) -> bool:
        """Plan and mark an eviction set so *sp* can place; True if a plan
        is in flight (newly marked here or marked by an earlier pass)."""
        cfg = self.config
        if not cfg.preemption:
            return False
        if getattr(sp.spec, "best_effort", False):
            return False  # best-effort never preempts, it only harvests
        if ANN_QUEUED in sp.metadata.annotations:
            return False  # quota-parked; the quota controller owns it
        if not self._preempting(sp, api):
            return False
        try:
            sharepods = api.list("SharePod")
        except ServiceUnavailable:
            return False
        classes = self.priority_classes(api)
        req_priority = resolve_priority(sp, classes)
        occupants: Dict[str, List[Victim]] = {}
        for other in sharepods:
            okey = other.metadata.key
            if okey == key:
                continue
            if ANN_EVICTED_BY in other.metadata.annotations:
                if other.metadata.annotations[ANN_EVICTED_BY] == key:
                    return True  # our plan is already draining
                continue  # claimed by another preemptor; not double-counted
            if other.spec.gpu_id is None or other.status.phase in _TERMINAL:
                continue
            if ANN_EVICT in other.metadata.annotations:
                continue
            occupants.setdefault(other.spec.gpu_id, []).append(
                Victim(
                    key=okey,
                    gpuid=other.spec.gpu_id,
                    priority=resolve_priority(other, classes),
                    gpu_request=float(other.spec.gpu_request),
                    gpu_mem=float(other.spec.gpu_mem),
                    creation_time=other.metadata.creation_time or 0.0,
                    aff=other.spec.sched_affinity,
                    anti_aff=other.spec.sched_anti_affinity,
                    excl=other.spec.sched_exclusion,
                )
            )
        if not occupants:
            return False
        # Prefer sharing an existing vGPU (fractional) over idling a whole
        # device; on equal victim counts the lower-priority set wins.
        frac = select_victims(sp, req_priority, occupants, needs_new_device=False)
        whole = select_victims(sp, req_priority, occupants, needs_new_device=True)
        plan = None
        for cand in (frac, whole):
            if cand is None:
                continue
            if plan is None:
                plan = cand
                continue
            a = (len(cand.victims), sum(v.priority for v in cand.victims))
            b = (len(plan.victims), sum(v.priority for v in plan.victims))
            if a < b:
                plan = cand
        if plan is None:
            return False
        deadline = now + cfg.drain_window
        marked = []
        for victim in plan.victims:
            if mark_eviction(
                api, victim.key, f"preempted by {key}", deadline, evicted_by=key
            ):
                marked.append(victim.key)
        if not marked:
            return False
        self.preemptions_total += 1
        self.victims_total += len(marked)
        namespace, name = key.split("/", 1)
        detail = (
            f"priority {req_priority} preempts {len(marked)} lower-priority "
            f"SharePod(s): {', '.join(sorted(marked))} ({plan.reason}; "
            f"drain until t={deadline:g})"
        )
        obs.event(
            "Preempting",
            detail,
            involved_kind="SharePod",
            involved_name=name,
            involved_namespace=namespace,
            type="Warning",
            source="policy/preemption",
        )
        obs.policy_decision(
            "preempt",
            key,
            detail,
            details={"victims": sorted(marked), "plan": plan.reason},
        )
        return True


class PolicyLayer:
    """Installs and runs the policy controllers on one cluster.

    *replicas* and the election timings are KubeShare's: ``None`` runs
    each controller as one unelected instance, N as N leader-elected
    replicas.
    """

    def __init__(
        self,
        cluster: Any,
        config: Optional[PolicyConfig] = None,
        replicas: Optional[int] = None,
        lease_duration: float = 3.0,
        renew_interval: float = 0.5,
        retry_interval: float = 0.5,
    ) -> None:
        self.cluster = cluster
        self.env = cluster.env
        self.api = cluster.api
        self.config = config or PolicyConfig()
        self.engine = PolicyEngine(self.config)
        self.api.register_crd("Namespace")
        self.api.register_crd("PriorityClass")
        self.api.register_admission(QuotaAdmission(self.api))
        env, api, reaper_cfg = self.env, self.api, self.config.reaper
        election = dict(
            replicas=replicas,
            lease_duration=lease_duration,
            renew_interval=renew_interval,
            retry_interval=retry_interval,
        )
        self.quota_group = HAControllerGroup(
            env,
            api,
            "quota-controller",
            lambda client: QuotaController(env, client),
            **election,
        )
        self.reaper_group: Optional[HAControllerGroup] = None
        if reaper_cfg is not None:
            self.reaper_group = HAControllerGroup(
                env,
                api,
                "reaper",
                lambda client: LifetimeReaper(env, client, reaper_cfg),
                **election,
            )

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> "PolicyLayer":
        self.quota_group.start()
        if self.reaper_group is not None:
            self.reaper_group.start()
        return self

    def stop(self) -> None:
        self.quota_group.stop()
        if self.reaper_group is not None:
            self.reaper_group.stop()

    # -- views -------------------------------------------------------------
    @property
    def quota(self) -> Optional[QuotaController]:
        """The running quota controller (None mid-failover)."""
        return self.quota_group.active_controller

    @property
    def reaper(self) -> Optional[LifetimeReaper]:
        """The running reaper (None when none is configured, or
        mid-failover)."""
        group = self.reaper_group
        return group.active_controller if group is not None else None

    # -- operator-facing helpers -------------------------------------------
    def create_namespace(
        self,
        name: str,
        gpu_quota: Optional[float] = None,
        on_exceeded: str = "queue",
        sharepod_ttl: Optional[float] = None,
    ) -> Namespace:
        return self.api.create(
            Namespace.make(
                name,
                gpu_quota=gpu_quota,
                on_exceeded=on_exceeded,
                sharepod_ttl=sharepod_ttl,
            )
        )

    def create_priority_class(
        self, name: str, value: int, preempting: bool = True
    ) -> PriorityClass:
        return self.api.create(PriorityClass.make(name, value, preempting=preempting))

    @property
    def accountant(self):
        """The live quota ledger (follows the HA leader when replicated)."""
        ctrl = self.quota
        return ctrl.accountant if ctrl is not None else None
