"""The federation tier: N autonomous KubeShare clusters, one global placer.

A :class:`Federation` owns its *own* control plane — an
:class:`~repro.cluster.etcd.Etcd` + :class:`~repro.cluster.apiserver.APIServer`
pair holding :class:`~repro.federation.records.FederationRecord` objects
and member heartbeat leases — plus N :class:`MemberCluster` wrappers, each
a full :class:`~repro.cluster.cluster.Cluster` with its own apiserver,
etcd, and leader-elected control plane
(:class:`~repro.core.framework.KubeShare` with ``replicas=N``), all
sharing one simulation :class:`~repro.sim.Environment`.

Whole-cluster failure semantics (the chaos engine's new fault kinds):

* :meth:`MemberCluster.outage` (``CLUSTER_OUTAGE``) — the member's
  apiserver and every node go dark. Its SharePods die with the nodes; the
  prober declares it Dead and the placer evacuates.
* :meth:`MemberCluster.partition` (``FEDERATION_PARTITION``) — only the
  federation↔member *link* breaks. The member keeps scheduling and
  running its local SharePods (static stability); the federation sees
  Suspect, then Dead if the partition outlives ``dead_after``, and the
  generation fence guarantees a heal mid-reschedule cannot double-place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional, Tuple

from ..cluster.apiserver import APIServer, ServiceUnavailable
from ..cluster.cluster import Cluster, ClusterConfig
from ..cluster.etcd import Etcd
from ..cluster.objects import PodPhase
from ..core.framework import KubeShare
from ..obs import runtime as obs
from ..sim import Environment
from .health import ClusterHealthProber
from .link import ClusterLink
from .placer import GlobalPlacer
from .records import ANN_GENERATION, ANN_RECORD, GlobalRegistry
from .rpc import FederationRPC

__all__ = ["FederationConfig", "MemberCluster", "Federation"]

_TERMINAL = (PodPhase.SUCCEEDED, PodPhase.FAILED)


@dataclass
class FederationConfig:
    """Knobs for :class:`Federation` construction."""

    #: member cluster names, in placement tiebreak order.
    members: Tuple[str, ...] = ("alpha", "beta", "gamma")
    nodes_per_cluster: int = 2
    gpus_per_node: int = 2
    #: HA replicas per member control-plane controller.
    replicas: int = 2
    #: federation→member link latency, seconds.
    link_latency: float = 0.02
    #: health prober parameters (see ClusterHealthProber).
    probe_interval: float = 0.5
    probe_timeout: float = 0.25
    suspect_after: int = 2
    dead_after: float = 8.0
    #: placer requeue delay when no cluster fits.
    defer_delay: float = 0.5
    #: how often terminal member copies are folded back into records.
    sync_interval: float = 1.0
    #: extra ClusterConfig overrides applied to every member.
    cluster_overrides: Dict[str, Any] = field(default_factory=dict)


class MemberCluster:
    """One autonomous KubeShare cluster enrolled in a federation."""

    def __init__(
        self,
        env: Environment,
        name: str,
        config: FederationConfig,
    ) -> None:
        self.env = env
        self.name = name
        self.cluster = Cluster(
            env,
            ClusterConfig(
                nodes=config.nodes_per_cluster,
                gpus_per_node=config.gpus_per_node,
                node_prefix=f"{name}-",
                **config.cluster_overrides,
            ),
        )
        self.kubeshare = KubeShare(self.cluster, replicas=config.replicas)
        self.link = ClusterLink(env, name, latency=config.link_latency)
        self.outages_total = 0

    @property
    def api(self) -> APIServer:
        return self.cluster.api

    def start(self) -> "MemberCluster":
        self.cluster.start()
        self.kubeshare.start()
        return self

    # -- failure injection -------------------------------------------------
    def outage(self, duration: Optional[float] = None) -> None:
        """The whole cluster goes dark: apiserver down, every node crashed.

        With ``duration=None`` the outage is permanent (the DR capstone's
        "cluster killed mid-burst"); otherwise nodes power back on and the
        apiserver returns after *duration* seconds.
        """
        self.outages_total += 1
        span = math.inf if duration is None else duration
        self.api.set_outage(span)
        for node in self.cluster.nodes:
            node.crash()
        if duration is not None:
            self.env.process(
                self._recover_after(duration), name=f"cluster-recover:{self.name}"
            )

    def _recover_after(self, duration: float) -> Generator:
        yield self.env.timeout(duration)
        for node in self.cluster.nodes:
            self.env.process(
                node.restart(), name=f"cluster-restart:{self.name}/{node.name}"
            )

    def partition(self, duration: float) -> None:
        """Break only the federation↔member link (static stability case)."""
        self.link.partition(duration)


class Federation:
    """The global control tier over N member clusters."""

    def __init__(
        self,
        env: Optional[Environment] = None,
        config: Optional[FederationConfig] = None,
    ) -> None:
        self.env = env or Environment()
        self.config = config or FederationConfig()
        self.etcd = Etcd(self.env)
        self.api = APIServer(self.env, self.etcd)
        self.registry = GlobalRegistry(self.api)
        self.members: Dict[str, MemberCluster] = {
            name: MemberCluster(self.env, name, self.config)
            for name in self.config.members
        }
        self.rpc = FederationRPC(self.env, self.registry)
        self.prober = ClusterHealthProber(
            self,
            probe_interval=self.config.probe_interval,
            probe_timeout=self.config.probe_timeout,
            suspect_after=self.config.suspect_after,
            dead_after=self.config.dead_after,
        )
        self.placer = GlobalPlacer(self, defer_delay=self.config.defer_delay)
        self.prober.on_dead = self.placer.on_cluster_dead
        self.prober.on_recovered = self.placer.on_cluster_recovered
        self._started = False

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> "Federation":
        if not self._started:
            for name in sorted(self.members):
                self.members[name].start()
            self.prober.start()
            self.placer.start()
            self.env.process(self._sync_loop(), name="federation-sync")
            self._started = True
        return self

    # -- submission --------------------------------------------------------
    def submit(self, name: str, namespace: str = "default", **template: Any):
        """Register a federated SharePod and queue it for global placement.

        *template* is any set of ``make_sharepod`` kwargs (``gpu_request``,
        ``gpu_mem``, …); pass ``workload_factory`` (a zero-arg callable
        returning a workload) instead of ``workload`` so rescheduled
        copies each get a fresh instance.
        """
        record = self.registry.create(name, template, namespace)
        self.placer.queue.add(name)
        return record

    # -- record/status sync ------------------------------------------------
    def _sync_loop(self) -> Generator:
        """Fold terminal member copies back into their federation records.

        Reads go through the RPC layer (latency + partition behavior); a
        currently unreachable member is simply skipped — its copies are
        folded in after it heals, or its records evacuated if it dies.
        """
        from .link import ClusterUnreachable  # local: avoid shadowing

        while True:
            yield self.env.timeout(self.config.sync_interval)
            for name in sorted(self.members):
                member = self.members[name]
                try:
                    sharepods = yield from self.rpc.call(
                        member.link,
                        member.kubeshare.list,
                        key=f"sync:{name}",
                        retries=1,
                    )
                except ClusterUnreachable:
                    continue
                for sp in sorted(sharepods, key=lambda s: s.metadata.key):
                    record_name = sp.metadata.annotations.get(ANN_RECORD)
                    if record_name is None or sp.status.phase not in _TERMINAL:
                        continue
                    generation = int(
                        sp.metadata.annotations.get(ANN_GENERATION, "0")
                    )
                    phase = (
                        "Completed"
                        if sp.status.phase is PodPhase.SUCCEEDED
                        else "Failed"
                    )
                    if self.registry.complete(
                        record_name,
                        generation,
                        phase,
                        sp.status.message or "",
                        sp.metadata.namespace,
                    ):
                        obs.federation_decision(
                            "complete",
                            f"{sp.metadata.namespace}/{record_name}",
                            f"copy {sp.metadata.name} on {name} reached {phase}",
                        )

    # -- views -------------------------------------------------------------
    def live_copies(self) -> Dict[str, List[Tuple[str, str, int]]]:
        """record name → [(cluster, copy name, generation)] of live copies.

        Scans every *reachable* member apiserver directly; benchmark and
        test assertions use this to prove the no-double-placement
        invariant. Dark clusters are skipped (their copies died with their
        nodes).
        """
        out: Dict[str, List[Tuple[str, str, int]]] = {}
        for name in sorted(self.members):
            member = self.members[name]
            try:
                sharepods = member.api.list("SharePod")
            except ServiceUnavailable:
                continue
            for sp in sharepods:
                record_name = sp.metadata.annotations.get(ANN_RECORD)
                if record_name is None or sp.status.phase in _TERMINAL:
                    continue
                out.setdefault(record_name, []).append(
                    (
                        name,
                        sp.metadata.name,
                        int(sp.metadata.annotations.get(ANN_GENERATION, "0")),
                    )
                )
        return out

    def completed_records(self) -> List[str]:
        """Names of records that reached ``Completed``, sorted."""
        return sorted(
            r.metadata.name
            for r in self.registry.list()
            if r.status.phase == "Completed"
        )
