"""Cluster assembly: build a whole simulated Kubernetes cluster in one call.

Reproduces the paper's testbed shape by default: 8 nodes of the AWS
``p3.8xlarge`` flavour — 36 vCPU, 244 GB RAM, 4 Tesla V100 (16 GB) each —
for 32 GPUs total (§5.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional, Sequence

from ..gpu.backend import TokenBackend
from ..gpu.swap import SwapManager
from ..gpu.device import GPUDevice, V100_MEMORY
from ..sim import Environment
from .apiserver import APIServer, translate_event
from .deviceplugin import DeviceManager, NvidiaDevicePlugin, ScalingFactorGPUPlugin
from .etcd import Etcd, WatchEventType
from .kubelet import Kubelet
from .leaderelection import HAControllerGroup
from .nodelifecycle import NodeLifecycleController
from .objects import Pod, PodPhase
from .runtime import ContainerRuntime, RuntimeLatency
from .scheduler import KubeScheduler

__all__ = ["ClusterConfig", "WorkerNode", "Cluster", "wait_for", "wait_for_phase", "wait_all_terminal"]

_TERMINAL = (PodPhase.SUCCEEDED, PodPhase.FAILED)


def wait_for(
    api: APIServer,
    kind: str,
    names: Sequence[str],
    phases: Sequence[PodPhase],
    namespace: str = "default",
) -> Generator:
    """Process helper: wait until each named *kind* object is in one of
    *phases* or gone; returns ``{name: the object as it settled, or None}``.

    A name already settled (or absent) settles at once, read from etcd, and
    if every name does the helper returns without yielding. The rest settle
    inside the commit that puts them in a target phase or deletes them,
    heard by a watch that the helper closes on return; the waiter resumes
    in that instant. No read goes through the apiserver's outage gate, so
    an outage cannot fail a wait.
    """
    stored = {
        kv.value.metadata.name: kv.value
        for kv in api.etcd.snapshot(f"/registry/{kind}/{namespace}/")
    }
    settled: Dict[str, Any] = {}
    for name in names:
        obj = stored.get(name)
        if obj is None or obj.status.phase in phases:
            settled[name] = obj
    pending = set(names) - settled.keys()
    if not pending:
        return settled
    done = api.env.event()

    def settle(raw) -> None:
        etype, obj = translate_event(raw)
        name = obj.metadata.name
        if name not in pending:
            return
        if etype is WatchEventType.DELETE:
            settled[name] = None
        elif obj.status.phase in phases:
            settled[name] = obj
        else:
            return
        pending.discard(name)
        if not pending:
            done.succeed()

    watch = api.watch(kind, namespace, deliver=settle)
    try:
        yield done
    finally:
        watch.close()
    return settled


def wait_for_phase(
    api: APIServer,
    kind: str,
    name: str,
    phases: Sequence[PodPhase],
    namespace: str = "default",
) -> Generator:
    """Process helper: wait until the named *kind* object reaches one of
    *phases* (see :func:`wait_for`); returns it, or ``None`` once it is gone."""
    settled = yield from wait_for(api, kind, [name], phases, namespace)
    return settled[name]


def wait_all_terminal(
    api: APIServer, kind: str, names: Sequence[str], namespace: str = "default"
) -> Generator:
    """Process helper: wait until every named *kind* object finished (or is
    gone); returns :func:`wait_for`'s ``{name: object or None}``."""
    return (yield from wait_for(api, kind, names, _TERMINAL, namespace))


@dataclass
class ClusterConfig:
    """Knobs for :class:`Cluster` construction (defaults = paper testbed)."""

    nodes: int = 8
    gpus_per_node: int = 4
    #: prepended to every node name ("alpha-" → "alpha-node00"); the
    #: federation tier sets this so member clusters' nodes (and therefore
    #: their GPUs, "GPU-<node>-<i>") have globally unique names.
    node_prefix: str = ""
    gpu_memory: int = V100_MEMORY
    cpu_per_node: float = 36.0
    memory_per_node: float = 244e9
    #: "nvidia" = stock whole-GPU plugin; "scaling" = ×factor slice plugin
    #: (used by the baseline sharing systems).
    device_plugin: str = "nvidia"
    scaling_factor: int = 100
    #: kubelet device-pick policy when no extender pinned the device.
    device_policy: str = "packed"
    runtime_latency: RuntimeLatency = field(default_factory=RuntimeLatency)
    #: token backend parameters (KubeShare's §4.5 defaults).
    token_quota: float = 0.100
    token_window: float = 2.5
    token_handoff: float = 0.0015
    contention_per_peer: float = 0.05
    scheduler_score: str = "least_allocated"
    #: node-health machinery (heartbeats + the lifecycle controller).
    heartbeat_interval: float = 1.0
    lease_duration: float = 4.0
    node_monitor_interval: float = 0.5
    #: disable to study what happens with *no* recovery machinery.
    node_lifecycle: bool = True
    #: N runs the lifecycle controller as N leader-elected replicas with
    #: hot standbys (see repro.cluster.leaderelection); ``None`` runs one
    #: unelected instance.
    node_lifecycle_replicas: Optional[int] = None
    #: election parameters for HA control-plane controllers.
    controller_lease_duration: float = 3.0
    controller_renew_interval: float = 0.5
    controller_retry_interval: float = 0.5


class WorkerNode:
    """Everything that lives on one simulated machine."""

    def __init__(
        self,
        env: Environment,
        api: APIServer,
        name: str,
        config: ClusterConfig,
    ) -> None:
        self.env = env
        self.name = name
        self.gpus: List[GPUDevice] = [
            GPUDevice(
                env,
                uuid=f"GPU-{name}-{i}",
                node_name=name,
                memory=config.gpu_memory,
                contention_per_peer=config.contention_per_peer,
            )
            for i in range(config.gpus_per_node)
        ]
        uuids = [g.uuid for g in self.gpus]
        if config.device_plugin == "nvidia":
            plugin = NvidiaDevicePlugin(uuids)
        elif config.device_plugin == "scaling":
            plugin = ScalingFactorGPUPlugin(uuids, factor=config.scaling_factor)
        else:
            raise ValueError(f"unknown device_plugin {config.device_plugin!r}")
        self.device_manager = DeviceManager(policy=config.device_policy)
        self.device_manager.register(plugin)
        self.runtime = ContainerRuntime(env, name, latency=config.runtime_latency)
        self.backend = TokenBackend(
            env,
            quota=config.token_quota,
            window=config.token_window,
            handoff_overhead=config.token_handoff,
        )
        self.swap = SwapManager(env)
        self.kubelet = Kubelet(
            env,
            api,
            name,
            runtime=self.runtime,
            device_manager=self.device_manager,
            cpu=config.cpu_per_node,
            memory=config.memory_per_node,
            gpu_registry={g.uuid: g for g in self.gpus},
            node_services={
                TokenBackend.SERVICE_NAME: self.backend,
                SwapManager.SERVICE_NAME: self.swap,
            },
            heartbeat_interval=config.heartbeat_interval,
        )
        self.crashed = False

    def gpu(self, uuid: str) -> GPUDevice:
        for g in self.gpus:
            if g.uuid == uuid:
                return g
        raise KeyError(uuid)

    # -- failure & recovery -----------------------------------------------
    def crash(self) -> None:
        """The machine loses power: kubelet goes silent, every container
        dies, the token daemon's state evaporates."""
        if self.crashed:
            return
        self.crashed = True
        self.kubelet.crash()
        self.runtime.crash(reason=f"node {self.name} crashed")
        self.backend.restart()

    def restart(self) -> Generator:
        """Process: power the machine back on with empty runtime state."""
        if not self.crashed:
            return
        self.device_manager.reset_allocations()
        for gpu in self.gpus:
            if not gpu.failed:
                gpu.reset()
        self.crashed = False
        yield from self.kubelet.restart()


class Cluster:
    """A running simulated cluster: control plane + worker nodes."""

    def __init__(
        self, env: Optional[Environment] = None, config: Optional[ClusterConfig] = None
    ) -> None:
        self.env = env or Environment()
        self.config = config or ClusterConfig()
        self.etcd = Etcd(self.env)
        self.api = APIServer(self.env, self.etcd)
        self.scheduler = KubeScheduler(
            self.env, self.api, score=self.config.scheduler_score
        )
        self.nodes: List[WorkerNode] = [
            WorkerNode(
                self.env,
                self.api,
                f"{self.config.node_prefix}node{i:02d}",
                self.config,
            )
            for i in range(self.config.nodes)
        ]
        self.node_lifecycle_group: Optional[HAControllerGroup] = None
        if self.config.node_lifecycle:
            cfg = self.config

            def nlc_factory(api) -> NodeLifecycleController:
                return NodeLifecycleController(
                    self.env,
                    api,
                    lease_duration=cfg.lease_duration,
                    monitor_interval=cfg.node_monitor_interval,
                )

            self.node_lifecycle_group = HAControllerGroup(
                self.env,
                self.api,
                "node-lifecycle",
                nlc_factory,
                replicas=cfg.node_lifecycle_replicas,
                lease_duration=cfg.controller_lease_duration,
                renew_interval=cfg.controller_renew_interval,
                retry_interval=cfg.controller_retry_interval,
            )
        self._started = False

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> "Cluster":
        """Start scheduler and kubelets (registers Node objects)."""
        if not self._started:
            self.scheduler.start()
            if self.node_lifecycle_group is not None:
                self.node_lifecycle_group.start()
            for node in self.nodes:
                node.kubelet.start()
            self._started = True
        return self

    # -- views -----------------------------------------------------------------
    @property
    def node_lifecycle(self) -> Optional[NodeLifecycleController]:
        """The running node lifecycle controller (None when the machinery
        is off, or mid-failover when it is leader-elected)."""
        group = self.node_lifecycle_group
        return group.active_controller if group is not None else None

    @property
    def gpus(self) -> List[GPUDevice]:
        return [g for node in self.nodes for g in node.gpus]

    def gpu_by_uuid(self, uuid: str) -> GPUDevice:
        for g in self.gpus:
            if g.uuid == uuid:
                return g
        raise KeyError(uuid)

    def node(self, name: str) -> WorkerNode:
        for n in self.nodes:
            if n.name == name:
                return n
        raise KeyError(name)

    # -- pod helpers ---------------------------------------------------------------
    def submit(self, pod: Pod) -> Pod:
        return self.api.create(pod)

    def wait_for_phase(
        self, name: str, phases: Sequence[PodPhase], namespace: str = "default"
    ) -> Generator:
        """Process helper: wait until the named pod reaches one of *phases*.

        Returns the pod (or ``None`` if it was deleted).
        """
        return wait_for_phase(self.api, "Pod", name, phases, namespace)

    def wait_all_terminal(
        self, names: Sequence[str], namespace: str = "default"
    ) -> Generator:
        """Process helper: wait until every named pod finished (or is gone)."""
        return wait_all_terminal(self.api, "Pod", names, namespace)
