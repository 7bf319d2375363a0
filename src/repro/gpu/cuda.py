"""CUDA driver API façade.

Applications in this simulation talk to GPUs through :class:`CudaAPI`, a
stand-in for ``libcuda`` exposing the driver-API entry points the paper's
device library intercepts: memory-related calls (``cuMemAlloc``,
``cuArrayCreate``) and compute-related calls (``cuLaunchKernel``,
``cuLaunchGrid``). Kernel "execution" is virtual-time work on the
device's compute engine; a launch call behaves like launch+synchronize.

Every entry point dispatches through the :class:`~repro.gpu.interception
.HookRegistry`, the analogue of the dynamic-linker symbol table that
``LD_PRELOAD`` rewrites — installing a hook is exactly what KubeShare's
vGPU device library does inside a container (§4.5).
"""

from __future__ import annotations

import itertools
import math
from typing import TYPE_CHECKING, Dict, Generator, Optional

from ..analysis.resets import register_reset
from .device import ComputeSession, GPUDevice
from .interception import HookRegistry

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster.runtime import ContainerContext

__all__ = ["CudaAPI", "CudaContext", "CudaError", "DevicePointer"]

_ptr_counter = itertools.count(0x7F0000000000)


@register_reset("repro.gpu.cuda.ptr_counter")
def _reset_ptr_counter() -> None:
    global _ptr_counter
    _ptr_counter = itertools.count(0x7F0000000000)


class CudaError(Exception):
    """A CUDA driver call failed (bad handle, double free, OOM, ...)."""


class DevicePointer:
    """Handle returned by memory allocations."""

    __slots__ = ("addr", "nbytes", "freed")

    def __init__(self, nbytes: int) -> None:
        self.addr = next(_ptr_counter)
        self.nbytes = nbytes
        self.freed = False

    def __repr__(self) -> str:  # pragma: no cover
        return f"<devptr {self.addr:#x} ({self.nbytes}B)>"


class CudaContext:
    """A CUDA context bound to one device."""

    def __init__(self, api: "CudaAPI", device: GPUDevice, owner: str) -> None:
        self.api = api
        self.device = device
        self.owner = owner
        self.session: Optional[ComputeSession] = None
        self.allocations: Dict[int, DevicePointer] = {}
        self.destroyed = False


class CudaAPI:
    """Per-container entry point to the (simulated) CUDA driver."""

    #: Memory-copy bandwidth between host and device, bytes/second
    #: (PCIe gen3 x16 ballpark; only used to cost cuMemcpy calls).
    HTOD_BANDWIDTH = 12e9

    def __init__(self, ctx: "ContainerContext") -> None:
        self.container = ctx
        self.hooks = HookRegistry()
        self._contexts: list[CudaContext] = []
        self._ctx_counter = itertools.count()
        #: session parameters used when creating contexts; the device
        #: library overrides these to enforce the SharePod's spec.
        self.session_request = 0.0
        self.session_limit = 1.0
        self.session_isolated = False
        #: set by a device library that takes paced launches (the fluid
        #: one); an application that sees it launches its request stream
        #: at once instead of batch by batch.
        self.paced_launches = False

    # -- context management -------------------------------------------------
    def cu_ctx_create(self, device_index: int = 0) -> CudaContext:
        """Create a context on the *device_index*-th visible GPU."""
        gpus = self.container.visible_gpus()
        if not gpus:
            raise CudaError("no CUDA-capable device is visible (check "
                            "NVIDIA_VISIBLE_DEVICES)")
        if not 0 <= device_index < len(gpus):
            raise CudaError(f"invalid device ordinal {device_index}")
        device = gpus[device_index]
        owner = f"{self.container.pod_uid}:ctx{next(self._ctx_counter)}"
        ctx = CudaContext(self, device, owner)
        ctx.session = device.open_session(
            owner,
            request=self.session_request,
            limit=self.session_limit,
            isolated=self.session_isolated,
        )
        self._contexts.append(ctx)
        return ctx

    def cu_ctx_destroy(self, ctx: CudaContext) -> None:
        if ctx.destroyed:
            raise CudaError("context already destroyed")
        ctx.destroyed = True
        ctx.device.free_memory(ctx.owner)
        ctx.allocations.clear()
        if ctx.session is not None:
            ctx.session.close()
        self._contexts.remove(ctx)
        self.hooks.notify("cuCtxDestroy", ctx)

    @property
    def contexts(self) -> list[CudaContext]:
        return list(self._contexts)

    # -- memory API (intercepted by the device library) ------------------------
    def cu_mem_alloc(self, ctx: CudaContext, nbytes: int) -> DevicePointer:
        """Allocate device memory (``cuMemAlloc``)."""
        return self.hooks.call("cuMemAlloc", self._mem_alloc, ctx, nbytes)

    def cu_array_create(self, ctx: CudaContext, nbytes: int) -> DevicePointer:
        """Allocate a CUDA array (``cuArrayCreate``) — same ledger path."""
        return self.hooks.call("cuArrayCreate", self._mem_alloc, ctx, nbytes)

    def _mem_alloc(self, ctx: CudaContext, nbytes: int) -> DevicePointer:
        self._check_ctx(ctx)
        if nbytes <= 0:
            raise CudaError(f"invalid allocation size {nbytes}")
        ctx.device.alloc_memory(ctx.owner, nbytes)
        ptr = DevicePointer(nbytes)
        ctx.allocations[ptr.addr] = ptr
        return ptr

    def cu_mem_free(self, ctx: CudaContext, ptr: DevicePointer) -> None:
        """Release device memory (``cuMemFree``)."""
        return self.hooks.call("cuMemFree", self._mem_free, ctx, ptr)

    def _mem_free(
        self,
        ctx: CudaContext,
        ptr: DevicePointer,
        ledger_bytes: Optional[int] = None,
    ) -> None:
        """*ledger_bytes* lets a swapping layer free fewer bytes from the
        device ledger than the pointer's size (the rest lives in host
        memory)."""
        self._check_ctx(ctx)
        if ptr.addr not in ctx.allocations or ptr.freed:
            raise CudaError(f"invalid device pointer {ptr!r}")
        ptr.freed = True
        del ctx.allocations[ptr.addr]
        ctx.device.free_memory(
            ctx.owner, ptr.nbytes if ledger_bytes is None else ledger_bytes
        )
        self.hooks.notify("cuMemFree", ctx, ptr)

    # -- compute API (intercepted by the device library) --------------------------
    def cu_launch_kernel(self, ctx: CudaContext, work: float, pace: float = 0.0) -> Generator:
        """Launch kernels totalling *work* seconds of full-device compute
        and synchronize (``cuLaunchKernel`` + ``cuCtxSynchronize``). The
        launch saturates its share of the device while its work lasts;
        under token isolation the device library runs it one engine
        session per token hold.

        A positive *pace* launches a request stream instead: the work
        arrives at *pace* per second, and the device serves it as it
        arrives, bursting to the session's limit while a backlog waits
        (:meth:`~repro.gpu.device.ComputeSession.run_paced`).

        Returns a simulation generator — drive it with ``yield from`` (or
        wrap in ``env.process``).
        """
        return self.hooks.call("cuLaunchKernel", self._launch, ctx, work, pace)

    def cu_launch_grid(self, ctx: CudaContext, work: float, pace: float = 0.0) -> Generator:
        """Legacy launch entry point (``cuLaunchGrid``); same path."""
        return self.hooks.call("cuLaunchGrid", self._launch, ctx, work, pace)

    def _launch(self, ctx: CudaContext, work: float, pace: float = 0.0) -> Generator:
        self._check_ctx(ctx)
        if work < 0:
            raise CudaError(f"negative kernel work {work}")
        if not pace:
            yield from ctx.session.run(work)
        elif 0.0 < pace < math.inf:
            yield from ctx.session.run_paced(work, pace)
        else:
            raise CudaError(f"pace must be finite and >= 0, got {pace}")

    def cu_memcpy_htod(self, ctx: CudaContext, ptr: DevicePointer, nbytes: int) -> Generator:
        """Host-to-device copy; costs transfer time but no compute."""
        self._check_ctx(ctx)
        if nbytes < 0 or nbytes > ptr.nbytes:
            raise CudaError(f"copy of {nbytes}B into a {ptr.nbytes}B buffer")
        yield self.container.env.timeout(nbytes / self.HTOD_BANDWIDTH)

    def _check_ctx(self, ctx: CudaContext) -> None:
        if ctx.destroyed:
            raise CudaError("context has been destroyed")
