"""Generation-fenced global records: the federation's source of truth.

Every federated SharePod is represented by one :class:`FederationRecord`
in the federation's *own* apiserver. The record carries two pieces of
fencing state:

* ``spec.cluster`` — which member currently owns the placement;
* ``spec.generation`` — bumped by *every* (re)placement, never reused.

A placement is only real if a member-cluster SharePod copy exists whose
``federation.kubeshare/generation`` annotation equals the record's current
generation. Rescheduling away from a Dead cluster therefore works like a
fencing token handoff: the placer CAS-advances the generation *first*
(:meth:`GlobalRegistry.advance` — optimistic concurrency on the record's
resourceVersion), then submits the new copy. A partition healing
mid-reschedule cannot double-place: the healed cluster's old copy carries
a stale generation, and the recovery reconciler deletes it on sight
(:meth:`repro.federation.placer.GlobalPlacer._reconcile_recovered`).

This module and :mod:`repro.federation.rpc` are the only sanctioned write
paths of the federation tier — lint rule RPR010 flags apiserver writes
anywhere else under ``repro.federation``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..cluster.apiserver import APIServer, Conflict, NotFound
from ..cluster.objects import ObjectMeta

__all__ = [
    "ANN_RECORD",
    "ANN_GENERATION",
    "StaleGeneration",
    "RecordSpec",
    "RecordStatus",
    "FederationRecord",
    "GlobalRegistry",
]

#: member-side SharePod annotation: name of the owning federation record.
ANN_RECORD = "federation.kubeshare/record"
#: member-side SharePod annotation: the record generation this copy carries.
ANN_GENERATION = "federation.kubeshare/generation"


class StaleGeneration(Exception):
    """A fenced federation write lost the generation race.

    Retrying cannot help — some other actor already advanced the record
    (a concurrent reschedule, or the record moved on while this side was
    partitioned). The caller must drop its intent.
    """


@dataclass
class RecordSpec:
    """Where a federated SharePod lives and how to rebuild it."""

    #: owning member cluster, or ``None`` before the first placement.
    cluster: Optional[str] = None
    #: fencing token: bumped by every placement, never reused.
    generation: int = 0
    #: ``make_sharepod`` kwargs to (re)build a copy on any member. A
    #: ``workload_factory`` entry is called per copy so rescheduled runs
    #: get a fresh workload instance.
    template: Dict[str, Any] = field(default_factory=dict)


@dataclass
class RecordStatus:
    phase: str = "Pending"  # Pending | Placed | Completed | Failed
    message: str = ""


@dataclass
class FederationRecord:
    """One federated SharePod, stored in the federation apiserver."""

    metadata: ObjectMeta
    spec: RecordSpec = field(default_factory=RecordSpec)
    status: RecordStatus = field(default_factory=RecordStatus)

    kind = "FederationRecord"

    @property
    def name(self) -> str:
        return self.metadata.name

    def clone(self) -> "FederationRecord":
        return FederationRecord(
            metadata=self.metadata.clone(),
            spec=RecordSpec(
                cluster=self.spec.cluster,
                generation=self.spec.generation,
                template=dict(self.spec.template),
            ),
            status=RecordStatus(
                phase=self.status.phase, message=self.status.message
            ),
        )


class GlobalRegistry:
    """CAS-fenced CRUD over :class:`FederationRecord` objects.

    All mutations go through the federation apiserver's optimistic
    concurrency, so two racing placers (or a placer racing a recovery
    reconciler) resolve deterministically — one CAS wins, the loser sees
    :class:`StaleGeneration`.
    """

    TERMINAL = ("Completed", "Failed")

    def __init__(self, api: APIServer) -> None:
        self.api = api
        api.register_crd("FederationRecord")

    # -- reads -------------------------------------------------------------
    def get(self, name: str, namespace: str = "default") -> Optional[FederationRecord]:
        return self.api.get("FederationRecord", name, namespace)

    def list(self) -> List[FederationRecord]:
        return self.api.list("FederationRecord")

    def assigned_to(self, cluster: str) -> List[FederationRecord]:
        """Live records currently placed on *cluster*, sorted by key."""
        return sorted(
            (
                r
                for r in self.list()
                if r.spec.cluster == cluster and r.status.phase not in self.TERMINAL
            ),
            key=lambda r: r.metadata.key,
        )

    # -- writes (the sanctioned path) --------------------------------------
    def create(
        self, name: str, template: Dict[str, Any], namespace: str = "default"
    ) -> FederationRecord:
        record = FederationRecord(
            metadata=ObjectMeta(name=name, namespace=namespace),
            spec=RecordSpec(cluster=None, generation=0, template=dict(template)),
        )
        return self.api.create(record)

    def advance(
        self,
        name: str,
        new_cluster: str,
        expect_generation: int,
        namespace: str = "default",
    ) -> FederationRecord:
        """CAS-bump the record's generation and move it to *new_cluster*.

        The generation fence: callers pass the generation they *observed*;
        if the record moved on meanwhile (a concurrent reschedule, a
        healed partition's reconciler) the CAS or the explicit check fails
        and :class:`StaleGeneration` is raised — the caller's placement
        intent is dead and must not be acted on.
        """
        record = self.get(name, namespace)
        if record is None:
            raise StaleGeneration(f"record {namespace}/{name} is gone")
        if record.spec.generation != expect_generation:
            raise StaleGeneration(
                f"record {namespace}/{name} is at generation "
                f"{record.spec.generation}, caller expected {expect_generation}"
            )
        if record.status.phase in self.TERMINAL:
            raise StaleGeneration(
                f"record {namespace}/{name} is terminal ({record.status.phase})"
            )
        record = record.clone()
        record.spec.generation += 1
        record.spec.cluster = new_cluster
        record.status.phase = "Placed"
        try:
            return self.api.update(record)
        except (Conflict, NotFound) as err:
            raise StaleGeneration(str(err)) from None

    def complete(
        self,
        name: str,
        generation: int,
        phase: str,
        message: str = "",
        namespace: str = "default",
    ) -> bool:
        """Mark the record terminal — only if *generation* is still current.

        A completion report from a stale copy (the fenced-off side of a
        healed partition) is ignored: its generation lost the race, so its
        outcome is not the record's outcome.
        """
        done = {"ok": False}

        def mutate(record: FederationRecord) -> None:
            if (
                record.spec.generation == generation
                and record.status.phase not in self.TERMINAL
            ):
                record.status.phase = phase
                record.status.message = message
                done["ok"] = True

        try:
            self.api.patch("FederationRecord", name, mutate, namespace)
        except NotFound:
            return False
        return done["ok"]
