"""Container runtime: starts containers with a calibrated latency model.

The paper's testbed runs Docker; for Figure 10 the relevant behaviour is
that container creation takes on the order of a second and *slows down
under concurrent creations on the same node* (the daemon serializes parts
of image setup). We model start latency as::

    latency = base + setup        (setup holds one of `setup_slots`)

so concurrent creations queue for setup slots, reproducing the upward
slope of pod-creation time with the number of concurrent requests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, List, Optional

from ..sim import Environment, Interrupt, Resource

__all__ = ["ContainerContext", "ContainerHandle", "ContainerRuntime", "RuntimeLatency"]


@dataclass
class RuntimeLatency:
    """Start-latency parameters, in seconds (calibrated, see EXPERIMENTS.md)."""

    base: float = 0.4
    setup: float = 0.9
    setup_slots: int = 2
    stop: float = 0.1


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
    """A started container: its workload process and exit state."""

    def __init__(self, env: Environment, name: str) -> None:
        self.env = env
        self.name = name
        self.started_at = env.now
        self.finished_at: Optional[float] = None
        self.exit_ok: Optional[bool] = None
        self.exit_value: Any = None
        self._proc = None
        self.workload_proc = None
        self._exit_event = env.event()
        self._kill_reason: Optional[str] = None

    @property
    def running(self) -> bool:
        return self.finished_at is None

    def wait(self):
        """Event that fires when the container exits."""
        return self._exit_event

    def stop(self, reason: str = "deleted") -> None:
        """Kill the workload (pod deletion).

        The interrupt goes to the workload process itself, not just the
        supervisor — interrupting only the supervisor would detach it and
        leave the workload running orphaned after the container is gone.
        """
        if self.workload_proc is not None and self.workload_proc.is_alive:
            self.workload_proc.interrupt(reason)
        elif self._proc is not None and self._proc.is_alive:
            self._proc.interrupt(reason)

    def kill(self, reason: str = "container crashed") -> None:
        """Non-graceful termination: the container exits with a failure.

        Unlike :meth:`stop` (pod deletion, exits clean), a killed
        container reports ``exit_ok=False`` so the control plane sees a
        crash. The workload's cleanup (``finally`` blocks: context
        destroy, token release, backend unregister) still runs.
        """
        self._kill_reason = reason
        if self.workload_proc is not None and self.workload_proc.is_alive:
            self.workload_proc.interrupt(reason)
        elif self._proc is not None and self._proc.is_alive:
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

    def start_container(
        self,
        ctx: ContainerContext,
        workload: Optional[Callable[[ContainerContext], Generator]],
    ) -> Generator:
        """Start a container; the generator's value is its
        :class:`ContainerHandle` once the container is up.

        The caller runs it inside its own process (``yield from``, as the
        kubelet does), so killing the caller abandons the start and gives
        back its setup slot.
        """
        yield self.env.timeout(self.latency.base)
        with self._setup_slots.request() as slot:
            yield slot
            yield self.env.timeout(self.latency.setup)

        handle = ContainerHandle(self.env, ctx.pod_name)
        self.containers[ctx.pod_uid] = handle
        self.started_total += 1
        handle._proc = self.env.process(
            self._run_workload(handle, ctx, workload),
            name=f"container:{ctx.pod_name}",
        )
        return handle

    def _run_workload(
        self,
        handle: ContainerHandle,
        ctx: ContainerContext,
        workload: Optional[Callable[[ContainerContext], Generator]],
    ) -> Generator:
        try:
            if workload is None:
                # A long-running service: sleeps until the pod is deleted.
                yield self.env.event()
            else:
                proc = self.env.process(
                    workload(ctx), name=f"workload:{ctx.pod_name}"
                )
                handle.workload_proc = proc
                value = yield proc
                handle.exit_value = value
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
        handle._exit_event.succeed(handle.exit_ok)

    def stop_container(self, pod_uid: str) -> Generator:
        """Stop and remove a container (small fixed latency); run with
        ``yield from``."""
        handle = self.containers.pop(pod_uid, None)
        if handle is not None:
            handle.stop()
            yield self.env.timeout(self.latency.stop)
        return handle

    def crash(self, reason: str = "node crash") -> None:
        """Hard-kill every container without any teardown protocol.

        Models the node losing power: workload generators are *closed*
        (their ``finally`` blocks still run, releasing simulated device
        state, as a dying host releases hardware), never signalled. Every
        container's exit state reports a failure.
        """
        for handle in self.containers.values():
            handle._kill_reason = reason
            if handle._proc is not None and handle._proc.is_alive:
                handle._proc.kill()
            if handle.workload_proc is not None and handle.workload_proc.is_alive:
                handle.workload_proc.kill()
            if handle.finished_at is None:
                handle.finished_at = self.env.now
                handle.exit_ok = False
                handle.exit_value = RuntimeError(reason)
            if not handle._exit_event.triggered:
                handle._exit_event.succeed(False)
        self.containers.clear()
