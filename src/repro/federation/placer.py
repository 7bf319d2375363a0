"""The global placer: routes FederationRecords onto member clusters.

Placement is two-tier by contract. The placer scores *clusters* — each
member summarized into one Algorithm 1 device view
(:meth:`~repro.federation.summary.ClusterSummary.to_device_view`) and run
through the paper's own :func:`~repro.core.scheduler.schedule_request`
best-fit rule — and submits an unassigned SharePod copy to the winner.
The member's leader-elected KubeShare-Sched then picks the vGPU. The
federation never writes a ``gpu_id``; it never reaches around a member's
scheduler.

Failure handling:

* ``on_cluster_dead`` — evacuate: every live record placed on the dead
  cluster is re-placed exactly once, through the generation fence
  (:meth:`~repro.federation.rpc.FederationRPC.fenced_submit`). A
  concurrent actor (second Dead event, healed-partition reconciler)
  loses the CAS and drops its intent — no double-placement.
* ``on_cluster_recovered`` — reconcile: copies on the returning cluster
  whose generation annotation is stale are fenced off and deleted; local
  (non-federated) SharePods are untouched.
"""

from __future__ import annotations

from typing import Generator, Optional

from ..core.scheduler import RequestView, schedule_request
from ..obs import runtime as obs
from .health import ClusterHealth
from .link import ClusterUnreachable
from .records import ANN_GENERATION, ANN_RECORD, FederationRecord, StaleGeneration
from .summary import summarize

__all__ = ["GlobalPlacer"]


class GlobalPlacer:
    """One control loop placing federation records across member clusters."""

    def __init__(self, federation, defer_delay: float = 0.5) -> None:
        from ..cluster.controller import WorkQueue  # deferred: import cycle

        self.fed = federation
        self.env = federation.env
        self.registry = federation.registry
        self.rpc = federation.rpc
        #: requeue delay when no healthy cluster currently fits.
        self.defer_delay = defer_delay
        self.queue = WorkQueue(self.env)
        self.placed_total = 0
        self.deferred_total = 0
        self.rescheduled_total = 0
        self.revoked_stale_total = 0
        self.fence_rejections_total = 0
        self._procs: list = []

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> "GlobalPlacer":
        if not self._procs:
            self._procs.append(
                self.env.process(self._run(), name="global-placer")
            )
        return self

    def stop(self) -> None:
        for proc in self._procs:
            if proc.is_alive:
                proc.kill()
        self._procs = []

    # -- worker ------------------------------------------------------------
    def _run(self) -> Generator:
        while True:
            # Waiting inside `with` withdraws the get when stop() kills
            # this worker, as Controller._worker does.
            with self.queue.get() as request:
                key = yield request
            self.queue.checkout(key)
            try:
                yield from self._place(key)
            except Exception as err:  # noqa: BLE001 - placer must survive member churn
                obs.federation_decision(
                    "error", key, f"placement error: {err!r}"
                )
                self._requeue_later(key, self.defer_delay)
            finally:
                self.queue.done(key)

    def _requeue_later(self, key: str, delay: float) -> None:
        def waker() -> Generator:
            yield self.env.timeout(delay)
            self.queue.add(key)

        self.env.process(waker(), name=f"placer-requeue:{key}")

    # -- placement ---------------------------------------------------------
    def _place(self, name: str) -> Generator:
        record = self.registry.get(name)
        if record is None or record.status.phase in self.registry.TERMINAL:
            return
        if record.spec.cluster is not None:
            state = self.fed.prober.state.get(record.spec.cluster)
            if state is not ClusterHealth.DEAD:
                return  # already placed; evacuation handles dead owners
        target = yield from self._choose_cluster(record)
        if target is None:
            self.deferred_total += 1
            obs.federation_decision(
                "defer",
                record.metadata.key,
                "no healthy cluster fits; will retry",
            )
            self._requeue_later(name, self.defer_delay)
            return
        try:
            yield from self.rpc.fenced_submit(
                self.fed.members[target],
                record,
                lambda generation: self._build_copy(target, record, generation),
            )
        except StaleGeneration:
            self.fence_rejections_total += 1
            return
        except ClusterUnreachable:
            self._requeue_later(name, self.defer_delay)
            return
        self.placed_total += 1
        obs.federation_decision(
            "place",
            record.metadata.key,
            f"best-fit placed on {target}",
            {
                "cluster": target,
                "generation": record.spec.generation + 1,
                # created -> placed, virtual seconds (drives the
                # repro_federation_place_seconds histogram).
                "latency": round(
                    self.env.now - (record.metadata.creation_time or 0.0), 9
                ),
            },
        )

    def _choose_cluster(
        self, record: FederationRecord, exclude: Optional[str] = None
    ) -> Generator:
        """Score healthy members with Algorithm 1 over summarized views."""
        views = []
        for name in self.fed.prober.healthy_members():
            if name == exclude:
                continue
            member = self.fed.members[name]
            try:
                summary = yield from self.rpc.call(
                    member.link,
                    summarize,
                    name,
                    member.api,
                    self.env.now,
                    key=f"summary:{name}",
                    retries=2,
                )
            except ClusterUnreachable:
                continue
            views.append(summary.to_device_view())
        if not views:
            return None
        template = record.spec.template
        request = RequestView(
            util=template.get("gpu_request", 0.0),
            mem=template.get("gpu_mem", 0.0),
        )
        decision = schedule_request(request, views, placement="best_fit")
        if decision.is_new or decision.gpuid is None:
            # Algorithm 1 wanted a fresh device — at this tier that means
            # "no existing cluster has capacity", i.e. defer.
            return None
        return decision.gpuid

    def _build_copy(
        self, cluster: str, record: FederationRecord, generation: int
    ):
        """Materialize one member-side SharePod from the record template.

        The copy name embeds the generation, so fenced-off stale copies
        and their replacements never collide, and every copy is traceable
        to the exact fence that authorized it.
        """
        template = dict(record.spec.template)
        factory = template.pop("workload_factory", None)
        if factory is not None:
            template["workload"] = factory()
        member = self.fed.members[cluster]
        return member.kubeshare.make_sharepod(
            f"{record.name}-g{generation}",
            namespace=record.metadata.namespace,
            **template,
        )

    # -- whole-cluster failure handling ------------------------------------
    def on_cluster_dead(self, name: str) -> None:
        self.env.process(self._evacuate(name), name=f"evacuate:{name}")

    def _evacuate(self, name: str) -> Generator:
        """Re-place every live record owned by the dead cluster, once."""
        for record in self.registry.assigned_to(name):
            if self.fed.prober.state.get(name) is not ClusterHealth.DEAD:
                # The cluster came back mid-evacuation (a partition, not an
                # outage): stop — its remaining workloads were never in
                # danger (static stability), and the recovery reconciler
                # cleans up anything already fenced off.
                return
            target = yield from self._choose_cluster(record, exclude=name)
            if target is None:
                # No capacity right now: requeue through the normal path,
                # which re-checks the fence when capacity frees.
                self.queue.add(record.name)
                continue
            try:
                yield from self.rpc.fenced_submit(
                    self.fed.members[target],
                    record,
                    lambda generation, _t=target, _r=record: self._build_copy(
                        _t, _r, generation
                    ),
                )
            except StaleGeneration:
                # Another actor moved the record first — exactly-once holds.
                self.fence_rejections_total += 1
                continue
            except ClusterUnreachable:
                self.queue.add(record.name)
                continue
            self.rescheduled_total += 1
            obs.federation_decision(
                "reschedule",
                record.metadata.key,
                f"evacuated from dead cluster {name} to {target}",
                {"from": name, "to": target},
            )

    def on_cluster_recovered(self, name: str) -> None:
        self.env.process(
            self._reconcile_recovered(name), name=f"fed-reconcile:{name}"
        )

    def _reconcile_recovered(self, name: str) -> Generator:
        """Fence off stale copies on a cluster returning from Dead.

        Any federated copy whose generation annotation no longer matches
        its record was superseded while the cluster was unreachable; it is
        deleted (the member's DevMgr tears down its vGPU attachment).
        Local SharePods — no record annotation — are never touched.
        """
        member = self.fed.members[name]
        try:
            sharepods = yield from self.rpc.call(
                member.link, member.kubeshare.list, key=f"list:{name}"
            )
        except ClusterUnreachable:
            return  # gone again; the prober will rediscover it
        for sp in sorted(sharepods, key=lambda s: s.metadata.key):
            record_name = sp.metadata.annotations.get(ANN_RECORD)
            if record_name is None:
                continue
            generation = int(sp.metadata.annotations.get(ANN_GENERATION, "0"))
            record = self.registry.get(record_name, sp.metadata.namespace)
            stale = (
                record is None
                or record.spec.generation != generation
                or record.spec.cluster != name
            )
            if not stale:
                continue
            try:
                yield from self.rpc.call(
                    member.link,
                    member.kubeshare.delete,
                    sp.metadata.name,
                    sp.metadata.namespace,
                    key=f"revoke:{name}",
                )
            except ClusterUnreachable:
                return
            self.revoked_stale_total += 1
            obs.federation_decision(
                "fence",
                f"{sp.metadata.key}",
                f"stale generation {generation} fenced off on {name}",
                {"record": record_name, "generation": generation},
            )
