"""kubelet: the per-node agent.

Watches the API server for pods bound to its node and runs each as one
process, ``workload:<pod>``, which the watch callback starts inside the
commit that binds the pod: it performs device-plugin allocation for
extended resources (Figure 2b), has the container runtime start the
container, runs the workload in it, keeps the pod status current, and
gives the devices back when the workload exits. Deleting the pod stops
that process wherever it is. The watch carries the ``spec.nodeName``
field selector, as a real kubelet's does, so etcd's per-node index
delivers only this node's Pod events; other nodes' pods cost this kubelet
nothing.

Liveness is a node lease (:class:`~repro.cluster.apiserver.NodeLease`)
armed on the apiserver at start and stopped on crash. It renews every
``heartbeat_interval`` seconds by definition, evaluated when the node
lifecycle controller reads it, so a renewal costs no event and writes
nothing to the Node; only a renewal that falls inside an apiserver outage
is lost. The Node object changes only when something observable does:
registration, device health, and the Ready condition lifecycle manages.

Scheduler-extender baselines (Aliyun/GaiaGPU designs) communicate their
bind-time device decision through the ``DEVICE_IDS_ANNOTATION`` on the pod;
when present, kubelet allocates exactly those device units instead of
letting the device manager pick.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Optional

from ..obs import runtime as obs
from ..sim import Environment
from .apiserver import (
    AlreadyExists,
    APIServer,
    Conflict,
    NodeLease,
    NotFound,
    ServiceUnavailable,
    translate_event,
)
from .etcd import WatchEventType
from .deviceplugin import DeviceManager, InsufficientDevices
from .objects import Node, NodeStatus, ObjectMeta, Pod, PodPhase
from .runtime import ContainerContext, ContainerRuntime

__all__ = ["Kubelet", "DEVICE_IDS_ANNOTATION"]

#: Pod annotation carrying a comma-separated list of device unit IDs chosen
#: by a scheduler extender at bind time.
DEVICE_IDS_ANNOTATION = "simkube.io/device-ids"


class Kubelet:
    """Node agent driving pod lifecycle on one node."""

    def __init__(
        self,
        env: Environment,
        api: APIServer,
        node_name: str,
        runtime: ContainerRuntime,
        device_manager: Optional[DeviceManager] = None,
        cpu: float = 36.0,
        memory: float = 244e9,
        labels: Optional[Dict[str, str]] = None,
        gpu_registry: Optional[Dict[str, Any]] = None,
        node_services: Optional[Dict[str, Any]] = None,
        heartbeat_interval: float = 1.0,
    ) -> None:
        self.env = env
        self.api = api
        self.node_name = node_name
        self.runtime = runtime
        self.devices = device_manager or DeviceManager()
        self.cpu = cpu
        self.memory = memory
        self.labels = dict(labels or {})
        #: UUID -> simulated GPU device object on this node.
        self.gpu_registry = dict(gpu_registry or {})
        #: name -> per-node daemon (e.g. the KubeShare token backend).
        self.node_services = dict(node_services or {})
        self.heartbeat_interval = heartbeat_interval
        self._pod_procs: Dict[str, Any] = {}
        self.lease: Optional[NodeLease] = None
        self._watch = None
        self.crashed = False
        #: a device-health patch lost to an apiserver outage awaits heal.
        self._health_retry = False

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> "Kubelet":
        """Register the node and begin watching for pods."""
        self.crashed = False
        capacity = {"cpu": self.cpu, "memory": self.memory}
        capacity.update(self.devices.capacity())
        status = NodeStatus(
            capacity=dict(capacity),
            allocatable=dict(capacity),
            ready=True,
            unhealthy_gpus=self.devices.unhealthy_ids(),
        )
        node = Node(
            metadata=ObjectMeta(name=self.node_name, namespace="", labels=self.labels),
            status=status,
        )
        try:
            self.api.create(node)
        except AlreadyExists:
            # Node restart: the object survived the crash; refresh it.
            def mutate(n: Node) -> None:
                n.status = status

            self.api.patch("Node", self.node_name, mutate, namespace="")
        if self._on_device_health_change not in self.devices.health_listeners():
            self.devices.on_health_change(self._on_device_health_change)
        self.lease = self.api.arm_node_lease(self.node_name, self.heartbeat_interval)
        self._watch = self.api.watch(
            "Pod", replay=True, node_name=self.node_name, deliver=self._on_pod
        )
        return self

    def _on_device_health_change(self, resource: str, device_id: str, healthy: bool) -> None:
        """Re-advertise node capacity after a ListAndWatch state change."""
        if not self.crashed:
            self._advertise_devices()

    def _advertise_devices(self) -> None:
        """Patch the Node's capacity and sick-GPU list from device state."""
        capacity = {"cpu": self.cpu, "memory": self.memory}
        capacity.update(self.devices.capacity())
        unhealthy = self.devices.unhealthy_ids()

        def mutate(node: Node) -> None:
            node.status.capacity = dict(capacity)
            node.status.allocatable = dict(capacity)
            node.status.unhealthy_gpus = unhealthy

        try:
            self.api.patch("Node", self.node_name, mutate, namespace="")
        except NotFound:
            pass  # the Node was deleted; nothing left to advertise on
        except ServiceUnavailable:
            # Nothing repeats a device-health change once the apiserver
            # heals, so one pending retry patches then, from the device
            # state at that time.
            if not self._health_retry:
                self._health_retry = True
                self.env.process(
                    self._retry_advertise(), name=f"kubelet:{self.node_name}"
                )

    def _retry_advertise(self) -> Generator:
        healed = yield from self.api.until_available()
        self._health_retry = False
        if healed and not self.crashed:
            self._advertise_devices()

    def _on_pod(self, raw) -> None:
        """A commit of a Pod bound to this node (a watch callback)."""
        etype, pod = translate_event(raw)
        uid = pod.metadata.uid
        if etype is WatchEventType.DELETE:
            # Stop the pod's process wherever it is: a running container
            # stops gracefully; a start still in flight is killed, which
            # gives back its setup slot. Either way the process's
            # `finally` gives the devices back.
            proc = self._pod_procs.pop(uid, None)
            handle = self.runtime.containers.pop(uid, None)
            if handle is not None:
                handle.stop()
            elif proc is not None:
                proc.kill()
        elif pod.status.phase is PodPhase.PENDING and uid not in self._pod_procs:
            self._pod_procs[uid] = self.env.process(
                self._start_pod(pod), name=f"workload:{pod.name}"
            )

    # -- the pod process -------------------------------------------------------
    def _start_pod(self, pod: Pod) -> Generator:
        """The pod process: allocate devices, start the container, run the
        workload and report its exit. A deletion or a node crash stops it
        wherever it is; the ``finally`` gives the devices back either way."""
        env_vars = dict(pod.spec.containers[0].env)
        try:
            if not self._allocate(pod, env_vars):
                return
            ctx = ContainerContext(
                env=self.env,
                pod_name=pod.name,
                pod_uid=pod.metadata.uid,
                node_name=self.node_name,
                env_vars=env_vars,
                gpu_registry=self.gpu_registry,
                node_services=self.node_services,
            )
            with obs.span(
                "container.start",
                f"kubelet:{self.node_name}",
                trace_id=pod.metadata.key,
                pod=pod.name,
            ):
                handle = yield from self.runtime.start_container(ctx)

            self._set_phase(pod, PodPhase.RUNNING, env=env_vars)
            obs.event(
                "Started",
                f"container started on {self.node_name}",
                involved_kind="Pod",
                involved_name=pod.name,
                involved_namespace=pod.metadata.namespace,
                source=f"kubelet:{self.node_name}",
            )
            exited_ok = yield from self.runtime.run(handle, ctx, pod.spec.workload)
            phase = PodPhase.SUCCEEDED if exited_ok else PodPhase.FAILED
            message = "" if exited_ok else repr(handle.exit_value)
            self._set_phase(pod, phase, message=message)
        finally:
            self.devices.release_pod(pod.metadata.uid)

    def _allocate(self, pod: Pod, env_vars: Dict[str, str]) -> bool:
        """Device-plugin allocation for extended resources ("vendor/resource"),
        adding what the plugins inject to *env_vars*. On failure the pod
        is reported Failed and this returns False."""
        container = pod.spec.containers[0]
        extended = {
            name: qty
            for name, qty in container.requests.items()
            if "/" in name and qty > 0
        }
        pinned = pod.metadata.annotations.get(DEVICE_IDS_ANNOTATION)
        try:
            for resource, qty in extended.items():
                count = int(round(qty))
                if count != qty:
                    raise InsufficientDevices(
                        f"extended resource {resource} demand must be an integer, "
                        f"got {qty} (§3.1: no fractional allocation)"
                    )
                ids = None
                if pinned is not None:
                    ids = [s for s in pinned.split(",") if s]
                resp = self.devices.allocate(
                    pod.metadata.uid, resource, count, device_ids=ids
                )
                env_vars.update(resp.env)
        except InsufficientDevices as err:
            obs.event(
                "FailedAllocation",
                str(err),
                involved_kind="Pod",
                involved_name=pod.name,
                involved_namespace=pod.metadata.namespace,
                type="Warning",
                source=f"kubelet:{self.node_name}",
            )
            self._set_phase(pod, PodPhase.FAILED, message=str(err))
            return False
        if extended:
            obs.instant(
                "deviceplugin.allocate",
                f"kubelet:{self.node_name}",
                trace_id=pod.metadata.key,
                pod=pod.name,
            )
        return True

    def _set_phase(
        self,
        pod: Pod,
        phase: PodPhase,
        message: str = "",
        env: Optional[Dict[str, str]] = None,
    ) -> None:
        def mutate(p: Pod) -> None:
            p.status.phase = phase
            p.status.message = message
            if phase is PodPhase.RUNNING:
                p.status.start_time = self.env.now
                if env is not None:
                    p.status.container_env = dict(env)
            elif phase in (PodPhase.SUCCEEDED, PodPhase.FAILED):
                p.status.finish_time = self.env.now

        try:
            self.api.patch("Pod", pod.name, mutate, pod.metadata.namespace)
        except NotFound:
            pass  # pod deleted concurrently; nothing left to report
        except (ServiceUnavailable, Conflict):
            pass  # apiserver outage / patch storm; state converges later

    # -- node failure / recovery -----------------------------------------------
    def crash(self) -> None:
        """The node loses power: every kubelet process stops instantly.

        Nothing is reported to the apiserver — the node just goes silent:
        its lease stops renewing, which is how the control plane learns.
        """
        if self.crashed:
            return
        self.crashed = True
        if self._watch is not None:
            self._watch.close()
            self._watch = None
        if self.lease is not None:
            self.api.stop_node_lease(self.lease)
        for proc in self._pod_procs.values():
            proc.kill()  # closes a start or a workload, `finally` blocks and all
        self._pod_procs.clear()

    def restart(self) -> Generator:
        """Process: bring the node agent back after a crash.

        The container runtime came up empty, so any pod the apiserver
        still shows RUNNING here is a casualty of the crash; report it
        failed so controllers can react.
        """
        self._pod_procs.clear()
        self.start()
        yield self.env.timeout(0)
        try:
            pods = self.api.pods()
        except ServiceUnavailable:
            return
        for pod in pods:
            if (
                pod.spec.node_name == self.node_name
                and pod.status.phase is PodPhase.RUNNING
                and pod.metadata.uid not in self.runtime.containers
            ):
                self._set_phase(
                    pod, PodPhase.FAILED, message="node restarted; container lost"
                )
