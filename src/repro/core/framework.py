"""One-call wiring of KubeShare onto a simulated cluster.

Installs the SharePod CRD and starts the two custom controllers
(KubeShare-Sched + KubeShare-DevMgr) against an existing
:class:`~repro.cluster.cluster.Cluster`, following the operator pattern —
nothing in the cluster's own control plane is modified (§4.6). The two
controllers share no state but the apiserver: DevMgr keeps its own vGPU
pool and records each vGPU as a placeholder pod, and the scheduler reads
the pool from those pods.

Each controller is an :class:`~repro.cluster.leaderelection.HAControllerGroup`
built from one factory. ``KubeShare(replicas=None)``, the default, runs
one unelected instance of each. ``KubeShare(replicas=N)`` runs N
leader-elected replicas of each, and the HA wiring adds:

* a failover hands over no in-process state. Each promoted DevMgr leader
  starts with an empty pool and rebuilds it from the deterministically
  named placeholder pods
  (:meth:`~repro.core.devmgr.KubeShareDevMgr.rebuild_state`), and a
  promoted scheduler's device-view index reads the same pods when it is
  built — etcd is the only state handoff between reigns, exactly as in
  production Kubernetes;
* every controller write goes through a
  :class:`~repro.cluster.leaderelection.FencedAPIServer`, so a deposed
  leader (GC pause, partition) cannot double-allocate a vGPU: its writes
  are rejected with lease-epoch ``Conflict`` before touching etcd.
"""

from __future__ import annotations

from typing import Callable, Dict, Generator, List, Optional, Sequence

from ..cluster.cluster import Cluster, wait_all_terminal, wait_for_phase
from ..cluster.leaderelection import HAControllerGroup
from ..cluster.objects import ContainerSpec, ObjectMeta, PodPhase, PodSpec
from .devmgr import KubeShareDevMgr
from .policies import PoolPolicy
from .scheduler import KubeShareSched
from .sharepod import SharePod, SharePodSpec
from .vgpu import VGPUPool

__all__ = ["KubeShare"]


class KubeShare:
    """The KubeShare framework extension, attached to a cluster.

    *replicas* picks how both controllers run (see the module docstring);
    *lease_duration*, *renew_interval* and *retry_interval* are the
    election timings of the N-replica wiring. *contention* installs the
    multi-tenant policy layer (quotas/priorities/reaper) when it is a
    :class:`repro.policy.layer.PolicyConfig` (or ``True`` for the
    defaults); its controllers run with the same *replicas* and election
    timings. ``None`` — the default — keeps the whole policy surface out
    of the hot paths.
    """

    def __init__(
        self,
        cluster: Cluster,
        isolation: str = "token",
        policy: Optional[PoolPolicy] = None,
        contention=None,
        replicas: Optional[int] = None,
        lease_duration: float = 3.0,
        renew_interval: float = 0.5,
        retry_interval: float = 0.5,
    ) -> None:
        self.cluster = cluster
        self.env = cluster.env
        self.api = cluster.api
        self.api.register_crd("SharePod")
        env = self.env

        election = dict(
            replicas=replicas,
            lease_duration=lease_duration,
            renew_interval=renew_interval,
            retry_interval=retry_interval,
        )
        self.policy_layer = None
        if contention is not None and contention is not False:
            from ..policy.layer import PolicyConfig, PolicyLayer  # lazy: optional

            config = contention if isinstance(contention, PolicyConfig) else None
            self.policy_layer = PolicyLayer(cluster, config, **election)
        policy_layer = self.policy_layer

        def sched_factory(api) -> KubeShareSched:
            sched = KubeShareSched(env, api)
            if policy_layer is not None:
                # The engine is stateless; every leader consults the same
                # planner through its own API handle.
                sched.contention = policy_layer.engine
            return sched

        def devmgr_factory(api) -> KubeShareDevMgr:
            # A private pool per instance; an elected one's rebuild_state()
            # fills it by relist.
            devmgr = KubeShareDevMgr(env, api, policy=policy, isolation=isolation)
            if policy_layer is not None:
                devmgr.requeue_base = policy_layer.config.requeue_base
                devmgr.requeue_cap = policy_layer.config.requeue_cap
            return devmgr

        self.sched_group = HAControllerGroup(
            env, self.api, "kubeshare-sched", sched_factory, **election
        )
        self.devmgr_group = HAControllerGroup(
            env, self.api, "kubeshare-devmgr", devmgr_factory, **election
        )

    def start(self) -> "KubeShare":
        """Start both controllers (the cluster must be started separately)."""
        self.sched_group.start()
        self.devmgr_group.start()
        if self.policy_layer is not None:
            self.policy_layer.start()
        return self

    def stop(self) -> None:
        self.sched_group.stop()
        self.devmgr_group.stop()
        if self.policy_layer is not None:
            self.policy_layer.stop()

    # -- views -------------------------------------------------------------
    @property
    def sched(self) -> Optional[KubeShareSched]:
        """The running scheduler instance (None mid-failover)."""
        return self.sched_group.active_controller

    @property
    def devmgr(self) -> Optional[KubeShareDevMgr]:
        """The running DevMgr instance (None mid-failover)."""
        return self.devmgr_group.active_controller

    @property
    def pool(self) -> Optional[VGPUPool]:
        """The running DevMgr's vGPU pool (None mid-failover)."""
        devmgr = self.devmgr
        return devmgr.pool if devmgr is not None else None

    # -- client-side SharePod helpers (what §4.1 calls the *Client*) ---------
    @staticmethod
    def make_sharepod(
        name: str,
        gpu_request: float,
        gpu_limit: float,
        gpu_mem: float,
        workload: Optional[Callable] = None,
        cpu: float = 1.0,
        gpu_id: Optional[str] = None,
        node_name: Optional[str] = None,
        affinity: Optional[str] = None,
        anti_affinity: Optional[str] = None,
        exclusion: Optional[str] = None,
        labels: Optional[Dict[str, str]] = None,
        namespace: str = "default",
        restart_policy: str = "never",
        priority_class: Optional[str] = None,
        best_effort: bool = False,
        annotations: Optional[Dict[str, str]] = None,
    ) -> SharePod:
        """Build a validated SharePod object (not yet submitted)."""
        spec = SharePodSpec(
            pod_spec=PodSpec(
                containers=[ContainerSpec(requests={"cpu": cpu})],
                workload=workload,
            ),
            gpu_request=gpu_request,
            gpu_limit=gpu_limit,
            gpu_mem=gpu_mem,
            gpu_id=gpu_id,
            node_name=node_name,
            sched_affinity=affinity,
            sched_anti_affinity=anti_affinity,
            sched_exclusion=exclusion,
            restart_policy=restart_policy,
            priority_class=priority_class,
            best_effort=best_effort,
        )
        spec.validate()
        return SharePod(
            metadata=ObjectMeta(
                name=name,
                namespace=namespace,
                labels=dict(labels or {}),
                annotations=dict(annotations or {}),
            ),
            spec=spec,
        )

    def submit(self, sharepod: SharePod) -> SharePod:
        """Create the sharePod through the kube-apiserver."""
        sharepod.spec.validate()
        return self.api.create(sharepod)

    def delete(self, name: str, namespace: str = "default") -> bool:
        return self.api.try_delete("SharePod", name, namespace)

    def get(self, name: str, namespace: str = "default") -> Optional[SharePod]:
        return self.api.get("SharePod", name, namespace)

    def list(self) -> List[SharePod]:
        return self.api.list("SharePod")

    # -- process helpers -------------------------------------------------------
    def wait_for_phase(
        self, name: str, phases: Sequence[PodPhase], namespace: str = "default"
    ) -> Generator:
        """:func:`~repro.cluster.cluster.wait_for_phase` for a SharePod."""
        return wait_for_phase(self.api, "SharePod", name, phases, namespace)

    def wait_all_terminal(
        self, names: Sequence[str], namespace: str = "default"
    ) -> Generator:
        """:func:`~repro.cluster.cluster.wait_all_terminal` for SharePods."""
        return wait_all_terminal(self.api, "SharePod", names, namespace)
