"""Leader-elected HA wiring of KubeShare onto a simulated cluster.

Runs N replicas each of KubeShare-Sched and KubeShare-DevMgr as
:class:`~repro.cluster.leaderelection.HAControllerGroup` members. Exactly
one replica per controller is active at a time; a standby is promoted
within the group's failover bound when the leader crashes or goes silent.

The controllers are the ones the single-instance
:class:`~repro.core.framework.KubeShare` runs, and they share state only
through the apiserver there too. What the HA wiring adds:

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

from typing import Optional

from ..cluster.cluster import Cluster
from ..cluster.leaderelection import FencedAPIServer, HAControllerGroup
from .devmgr import KubeShareDevMgr
from .framework import SharePodClient
from .policies import PoolPolicy
from .scheduler import KubeShareSched
from .vgpu import VGPUPool

__all__ = ["HAKubeShare"]


class HAKubeShare(SharePodClient):
    """KubeShare with a leader-elected, fenced, N-replica control plane."""

    def __init__(
        self,
        cluster: Cluster,
        replicas: int = 2,
        isolation: str = "token",
        policy: Optional[PoolPolicy] = None,
        lease_duration: float = 3.0,
        renew_interval: float = 0.5,
        retry_interval: float = 0.5,
        contention=None,
    ) -> None:
        self.cluster = cluster
        self.env = cluster.env
        self.api = cluster.api
        self.api.register_crd("SharePod")
        env = self.env

        #: multi-tenant policy layer; see :class:`repro.core.framework.KubeShare`.
        self.policy_layer = None
        contention_cfg = None
        if contention is not None and contention is not False:
            from ..policy.layer import PolicyConfig, PolicyLayer  # lazy: optional

            contention_cfg = (
                contention if isinstance(contention, PolicyConfig) else PolicyConfig()
            )
            self.policy_layer = PolicyLayer(cluster, contention_cfg)
        policy_layer = self.policy_layer

        def sched_factory(api: FencedAPIServer) -> KubeShareSched:
            sched = KubeShareSched(env, api)
            if policy_layer is not None:
                # The engine is stateless; every leader consults the same
                # planner through its own fenced API handle.
                sched.contention = policy_layer.engine
            return sched

        def devmgr_factory(api: FencedAPIServer) -> KubeShareDevMgr:
            # A private pool per reign; rebuild_state() fills it by relist.
            devmgr = KubeShareDevMgr(env, api, policy=policy, isolation=isolation)
            if contention_cfg is not None:
                devmgr.requeue_base = contention_cfg.requeue_base
                devmgr.requeue_cap = contention_cfg.requeue_cap
            return devmgr

        self.sched_group = HAControllerGroup(
            env,
            self.api,
            "kubeshare-sched",
            sched_factory,
            replicas=replicas,
            lease_duration=lease_duration,
            renew_interval=renew_interval,
            retry_interval=retry_interval,
        )
        self.devmgr_group = HAControllerGroup(
            env,
            self.api,
            "kubeshare-devmgr",
            devmgr_factory,
            replicas=replicas,
            lease_duration=lease_duration,
            renew_interval=renew_interval,
            retry_interval=retry_interval,
        )
        self._started = False

    def start(self) -> "HAKubeShare":
        """Start every replica (the cluster must be started separately)."""
        if not self._started:
            self.sched_group.start()
            self.devmgr_group.start()
            if self.policy_layer is not None:
                self.policy_layer.start()
            self._started = True
        return self

    def stop(self) -> None:
        self.sched_group.stop()
        self.devmgr_group.stop()
        if self.policy_layer is not None:
            self.policy_layer.stop()

    # -- views -------------------------------------------------------------
    @property
    def sched(self) -> Optional[KubeShareSched]:
        """The currently active scheduler instance (None mid-failover)."""
        return self.sched_group.active_controller

    @property
    def devmgr(self) -> Optional[KubeShareDevMgr]:
        """The currently active DevMgr instance (None mid-failover)."""
        return self.devmgr_group.active_controller

    @property
    def pool(self) -> Optional[VGPUPool]:
        """The active DevMgr leader's vGPU pool (None mid-failover)."""
        devmgr = self.devmgr
        return devmgr.pool if devmgr is not None else None
