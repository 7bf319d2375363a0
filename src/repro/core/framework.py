"""One-call wiring of KubeShare onto a simulated cluster.

Installs the SharePod CRD and starts the two custom controllers
(KubeShare-Sched + KubeShare-DevMgr) against an existing
:class:`~repro.cluster.cluster.Cluster`, following the operator pattern —
nothing in the cluster's own control plane is modified (§4.6). The two
controllers share no state but the apiserver: DevMgr keeps its own vGPU
pool and records each vGPU as a placeholder pod, and the scheduler reads
the pool from those pods. The leader-elected wiring
(:class:`repro.core.ha.HAKubeShare`) runs the same two controllers.
"""

from __future__ import annotations

from typing import Callable, Dict, Generator, List, Optional, Sequence

from ..cluster.cluster import Cluster, wait_all_terminal, wait_for_phase
from ..cluster.objects import ContainerSpec, ObjectMeta, PodPhase, PodSpec
from ..sim import Environment
from .devmgr import KubeShareDevMgr
from .policies import PoolPolicy
from .scheduler import KubeShareSched
from .sharepod import SharePod, SharePodSpec
from .vgpu import VGPUPool

__all__ = ["SharePodClient", "KubeShare"]


class SharePodClient:
    """Client-side SharePod helpers (what §4.1 calls the *Client*).

    Shared by the classic single-instance wiring (:class:`KubeShare`) and
    the leader-elected HA wiring (:class:`repro.core.ha.HAKubeShare`);
    subclasses provide ``env`` and ``api`` attributes.
    """

    env: Environment
    api: object

    def make_sharepod(
        self,
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
        self,
        name: str,
        phases: Sequence[PodPhase],
        namespace: str = "default",
        poll: float = 0.05,
    ) -> Generator:
        return wait_for_phase(self.api, "SharePod", name, phases, namespace, poll)

    def wait_all_terminal(
        self, names: Sequence[str], namespace: str = "default", poll: float = 0.25
    ) -> Generator:
        return wait_all_terminal(self.api, "SharePod", names, namespace, poll)


class KubeShare(SharePodClient):
    """The KubeShare framework extension, attached to a cluster."""

    def __init__(
        self,
        cluster: Cluster,
        isolation: str = "token",
        policy: Optional[PoolPolicy] = None,
        contention=None,
    ) -> None:
        self.cluster = cluster
        self.env = cluster.env
        self.api = cluster.api
        self.api.register_crd("SharePod")
        self.sched = KubeShareSched(self.env, self.api)
        self.devmgr = KubeShareDevMgr(
            self.env, self.api, policy=policy, isolation=isolation
        )
        #: multi-tenant policy layer (quotas/priorities/reaper), installed
        #: when *contention* is a :class:`repro.policy.layer.PolicyConfig`
        #: (or ``True`` for the defaults). ``None`` — the default — keeps
        #: the whole policy surface out of the hot paths.
        self.policy_layer = None
        if contention is not None and contention is not False:
            from ..policy.layer import PolicyConfig, PolicyLayer  # lazy: optional

            cfg = contention if isinstance(contention, PolicyConfig) else PolicyConfig()
            self.policy_layer = PolicyLayer(cluster, cfg)
            self.sched.contention = self.policy_layer.engine
            self.devmgr.requeue_base = cfg.requeue_base
            self.devmgr.requeue_cap = cfg.requeue_cap
        self._started = False

    @property
    def pool(self) -> VGPUPool:
        """KubeShare-DevMgr's vGPU pool."""
        return self.devmgr.pool

    def start(self) -> "KubeShare":
        """Start both controllers (the cluster must be started separately)."""
        if not self._started:
            self.sched.start()
            self.devmgr.start()
            if self.policy_layer is not None:
                self.policy_layer.start()
            self._started = True
        return self
