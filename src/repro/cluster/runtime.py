"""Container runtime: starts containers with a calibrated latency model.

The paper's testbed runs Docker; for Figure 10 the relevant behaviour is
that container creation takes on the order of a second and *slows down
under concurrent creations on the same node* (the daemon serializes parts
of image setup). We model start latency as::

    latency = base + setup        (setup holds one of `setup_slots`)

so concurrent creations queue for setup slots, reproducing the upward
slope of pod-creation time with the number of concurrent requests.

The runtime spawns no process: the container start and the workload both
run inside the kubelet's pod process (``yield from``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, List, Optional

from ..sim import Environment, Interrupt, Process, Resource

__all__ = ["ContainerContext", "ContainerHandle", "ContainerRuntime", "RuntimeLatency"]


@dataclass
class RuntimeLatency:
    """Start-latency parameters, in seconds (calibrated, see EXPERIMENTS.md)."""

    base: float = 0.4
    setup: float = 0.9
    setup_slots: int = 2


@dataclass
class ContainerContext:
    """What a workload sees from inside its container.

    ``env_vars`` carries everything the control plane injected — including
    ``NVIDIA_VISIBLE_DEVICES`` and, for KubeShare containers, the device
    library configuration. ``gpu_registry`` maps UUID → simulated GPU
    device on this node; ``node_services`` exposes per-node daemons (the
    KubeShare token backend lives there).
    """

    env: Environment
    pod_name: str
    pod_uid: str
    node_name: str
    env_vars: Dict[str, str] = field(default_factory=dict)
    gpu_registry: Dict[str, Any] = field(default_factory=dict)
    node_services: Dict[str, Any] = field(default_factory=dict)

    def visible_gpus(self) -> List[Any]:
        """GPU devices granted via ``NVIDIA_VISIBLE_DEVICES``."""
        raw = self.env_vars.get("NVIDIA_VISIBLE_DEVICES", "")
        if not raw or raw.lower() in ("none", "void"):
            return []
        if raw.lower() == "all":
            return list(self.gpu_registry.values())
        out = []
        for uuid in raw.split(","):
            dev = self.gpu_registry.get(uuid.strip())
            if dev is not None:
                out.append(dev)
        return out

    def cuda(self):
        """Open the CUDA driver API from inside this container.

        If the control plane set ``LD_PRELOAD`` to the KubeShare hook
        library, the returned API is wrapped by the vGPU device library
        (memory quota + token/fluid compute isolation) — exactly the
        LD_PRELOAD interception of §4.5.
        """
        from ..gpu.cuda import CudaAPI
        from ..gpu.frontend import maybe_install_device_library

        api = CudaAPI(self)
        return maybe_install_device_library(api, self)


class ContainerHandle:
    """A started container: its exit state, and the pod process that
    started it and runs its workload."""

    def __init__(self, name: str, proc: Process) -> None:
        self.name = name
        self.finished_at: Optional[float] = None
        self.exit_ok: Optional[bool] = None
        self.exit_value: Any = None
        self._proc = proc
        self._kill_reason: Optional[str] = None

    @property
    def running(self) -> bool:
        return self.finished_at is None

    def stop(self, reason: str = "deleted") -> None:
        """Stop the workload gracefully (pod deletion): it exits clean."""
        if self.running:
            self._proc.interrupt(reason)

    def kill(self, reason: str = "container crashed") -> None:
        """Non-graceful termination: the container exits with a failure.

        Unlike :meth:`stop` (pod deletion, exits clean), a killed
        container reports ``exit_ok=False`` so the control plane sees a
        crash. The workload's cleanup (``finally`` blocks: context
        destroy, token release, backend unregister) still runs.
        """
        self._kill_reason = reason
        if self.running:
            self._proc.interrupt(reason)


class ContainerRuntime:
    """Per-node container runtime daemon."""

    def __init__(
        self,
        env: Environment,
        node_name: str,
        latency: Optional[RuntimeLatency] = None,
    ) -> None:
        self.env = env
        self.node_name = node_name
        self.latency = latency or RuntimeLatency()
        self._setup_slots = Resource(env, capacity=self.latency.setup_slots)
        self.containers: Dict[str, ContainerHandle] = {}
        #: count of starts, for tests and metrics
        self.started_total = 0

    def start_container(self, ctx: ContainerContext) -> Generator:
        """Start a container; the generator's value is its
        :class:`ContainerHandle` once the container is up.

        The caller runs it inside its own process (``yield from``, as the
        kubelet does), so killing the caller abandons the start and gives
        back its setup slot. That process then runs the workload with
        :meth:`run`, and the handle's ``stop`` and ``kill`` interrupt it.
        """
        yield self.env.timeout(self.latency.base)
        with self._setup_slots.request() as slot:
            yield slot
            yield self.env.timeout(self.latency.setup)

        handle = ContainerHandle(ctx.pod_name, self.env.active_process)
        self.containers[ctx.pod_uid] = handle
        self.started_total += 1
        return handle

    def run(
        self,
        handle: ContainerHandle,
        ctx: ContainerContext,
        workload: Optional[Callable[[ContainerContext], Generator]],
    ) -> Generator:
        """Run *workload* in the started container until it exits; run
        with ``yield from`` in the process that started it. The value is
        whether it exited ok; the handle keeps the exit state."""
        try:
            if workload is None:
                # A long-running service: sleeps until the pod is deleted.
                yield self.env.event()
            else:
                handle.exit_value = yield from workload(ctx)
            handle.exit_ok = True
        except Interrupt:
            if handle._kill_reason is not None:
                handle.exit_ok = False  # non-graceful kill
                handle.exit_value = RuntimeError(handle._kill_reason)
            else:
                handle.exit_ok = True  # graceful stop on deletion
                handle.exit_value = "stopped"
        except Exception as err:  # noqa: BLE001 - container crash
            handle.exit_ok = False
            handle.exit_value = err
        handle.finished_at = self.env.now
        return handle.exit_ok

    def crash(self, reason: str = "node crash") -> None:
        """Drop every container without any teardown protocol.

        Models the node losing power. The kubelet's crash has already
        killed the pod processes (closing each workload generator, so
        its ``finally`` blocks release simulated device state, as a dying
        host releases hardware); every container still running reports a
        failure.
        """
        for handle in self.containers.values():
            if handle.finished_at is None:
                handle.finished_at = self.env.now
                handle.exit_ok = False
                handle.exit_value = RuntimeError(reason)
        self.containers.clear()
