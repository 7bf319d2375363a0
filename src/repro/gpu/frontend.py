"""The vGPU device library — KubeShare's per-container frontend (§4.5).

KubeShare-DevMgr installs this library in every sharePod container and
``LD_PRELOAD``s it ahead of libcuda. It intercepts:

* **memory APIs** (``cuMemAlloc``, ``cuArrayCreate``) — enforcing the
  container's ``gpu_mem`` quota with no over-commitment: an allocation that
  would exceed the quota raises an out-of-memory error, exactly as the
  paper's implementation throws OOM;
* **compute APIs** (``cuLaunchKernel``, ``cuLaunchGrid``) — blocking the
  call until the container holds a valid token from the per-node backend
  (token isolation), or registering an elastic (request, limit) share with
  the device engine (fluid isolation, the calibrated steady-state model
  used for cluster-scale experiments; see DESIGN.md). A token hold runs
  a launch as one engine session, which a token ended early stops at the
  next kernel boundary. Fluid isolation also takes *paced* launches, a
  request stream the engine serves as it arrives; token isolation
  rejects them.

The library is configured entirely through environment variables injected
by KubeShare-DevMgr, mirroring how the real library receives its pod
configuration:

================================  ==========================================
``LD_PRELOAD``                    must contain :data:`DEVICE_LIB_SONAME`
``KUBESHARE_GPU_REQUEST``         guaranteed compute fraction (gpu_request)
``KUBESHARE_GPU_LIMIT``           compute ceiling (gpu_limit)
``KUBESHARE_GPU_MEM``             memory quota as a fraction of the device
``KUBESHARE_ISOLATION``           ``token`` (default), ``fluid`` (also
                                  marks the API for paced launches) or
                                  ``memory``
================================  ==========================================
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Dict, Generator

from ..obs import runtime as obs
from .backend import Token, TokenBackend, TokenBackendUnavailable
from .cuda import CudaAPI, CudaContext, CudaError, DevicePointer
from .device import GpuOutOfMemory
from .swap import ENV_MEM_OVERCOMMIT, SwapManager

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster.runtime import ContainerContext

__all__ = [
    "DEVICE_LIB_SONAME",
    "ENV_REQUEST",
    "ENV_LIMIT",
    "ENV_MEM",
    "ENV_ISOLATION",
    "VGPUDeviceLibrary",
    "maybe_install_device_library",
]

DEVICE_LIB_SONAME = "libgemhook.so.1"
ENV_REQUEST = "KUBESHARE_GPU_REQUEST"
ENV_LIMIT = "KUBESHARE_GPU_LIMIT"
ENV_MEM = "KUBESHARE_GPU_MEM"
ENV_ISOLATION = "KUBESHARE_ISOLATION"

#: Kernel length in seconds of work: the most in-flight work a holder
#: finishes after the backend ends its token early. Real DL workloads
#: launch many short kernels, and the library gates each one, so a
#: revoked holder stops at the next boundary from its session's start.
MAX_KERNEL_CHUNK = 0.020

#: How long a token holder may sit idle (no kernels pending) before the
#: library revokes its token so waiting containers can use the device —
#: the "revoked by its holder" path of §4.5. Back-to-back launches (a
#: training loop) never trip this; a between-requests inference server
#: does.
IDLE_REVOKE_GRACE = 0.002


def maybe_install_device_library(api: CudaAPI, ctx: "ContainerContext") -> CudaAPI:
    """Install the vGPU device library if the container was configured for
    it (the LD_PRELOAD check is the simulation's dynamic-linker moment)."""
    preload = ctx.env_vars.get("LD_PRELOAD", "")
    if DEVICE_LIB_SONAME in preload:
        VGPUDeviceLibrary(api, ctx).install()
    return api


class VGPUDeviceLibrary:
    """One container's instance of the interception library."""

    def __init__(self, api: CudaAPI, ctx: "ContainerContext") -> None:
        self.api = api
        self.container = ctx
        self.client_id = ctx.pod_uid
        self.request = float(ctx.env_vars.get(ENV_REQUEST, 0.0))
        self.limit = float(ctx.env_vars.get(ENV_LIMIT, 1.0))
        self.mem_fraction = float(ctx.env_vars.get(ENV_MEM, 1.0))
        self.isolation = ctx.env_vars.get(ENV_ISOLATION, "token")
        # "memory" = memory quota only, no compute throttling — the subset
        # the Aliyun gpushare baseline provides (Table 1).
        if self.isolation not in ("token", "fluid", "memory"):
            raise ValueError(f"unknown isolation mode {self.isolation!r}")
        #: optional extension (§4.5): allow gpu_mem quotas to over-commit
        #: physical memory, swapping idle containers' pages to the host.
        self.mem_overcommit = ctx.env_vars.get(ENV_MEM_OVERCOMMIT, "") in (
            "1",
            "true",
        )
        if not 0.0 <= self.request <= 1.0:
            raise ValueError(f"{ENV_REQUEST} must be in [0,1]")
        if not 0.0 < self.limit <= 1.0:
            raise ValueError(f"{ENV_LIMIT} must be in (0,1]")
        if not 0.0 < self.mem_fraction <= 1.0:
            raise ValueError(f"{ENV_MEM} must be in (0,1]")
        self.held_bytes = 0
        #: device uuid -> currently held token.
        self._tokens: Dict[str, Token] = {}
        self._registered_devices: set[str] = set()
        self._installed = False
        #: in-flight launch calls per device (idle-revocation bookkeeping).
        self._launches_active: Dict[str, int] = {}
        self._idle_watch: Dict[str, bool] = {}

    # -- installation -------------------------------------------------------
    @property
    def backend(self) -> TokenBackend:
        svc = self.container.node_services.get(TokenBackend.SERVICE_NAME)
        if svc is None:
            raise RuntimeError(
                "KubeShare device library present but no backend daemon runs "
                "on this node"
            )
        return svc

    @property
    def swap(self) -> SwapManager:
        svc = self.container.node_services.get(SwapManager.SERVICE_NAME)
        if svc is None:
            raise RuntimeError(
                "memory over-commitment enabled but no swap manager runs on "
                "this node"
            )
        return svc

    def install(self) -> "VGPUDeviceLibrary":
        """Register interception wrappers on the container's CUDA API."""
        if self._installed:
            return self
        hooks = self.api.hooks
        hooks.install("cuMemAlloc", self._hook_mem_alloc)
        hooks.install("cuArrayCreate", self._hook_mem_alloc)
        hooks.observe("cuMemFree", self._on_mem_free)
        if self.mem_overcommit:
            hooks.install("cuMemFree", self._hook_mem_free)
        if self.isolation != "memory":
            hooks.install("cuLaunchKernel", self._hook_launch)
            hooks.install("cuLaunchGrid", self._hook_launch)
        hooks.observe("cuCtxDestroy", self._on_ctx_destroy)
        if self.isolation == "fluid":
            # Contexts created from now on carry the elastic share params;
            # the engine applies the steady-state token policy directly.
            self.api.session_request = self.request
            self.api.session_limit = self.limit
            self.api.session_isolated = True
            # Over-commit swaps pages back in per launch, so a stream
            # launched at once would hold its pages for its whole life.
            self.api.paced_launches = not self.mem_overcommit
        self._installed = True
        return self

    # -- memory quota ---------------------------------------------------------
    def mem_quota_bytes(self, ctx: CudaContext) -> int:
        return int(self.mem_fraction * ctx.device.memory)

    def _hook_mem_alloc(self, next_fn, ctx: CudaContext, nbytes: int) -> DevicePointer:
        if self.held_bytes + nbytes > self.mem_quota_bytes(ctx):
            raise GpuOutOfMemory(
                f"container {self.container.pod_name}: allocation of {nbytes} "
                f"bytes exceeds its gpu_mem quota "
                f"({self.held_bytes}/{self.mem_quota_bytes(ctx)} used)"
            )
        if self.mem_overcommit:
            # Evict idle containers' pages first so the ledger has room.
            self.swap.make_room(ctx.device, ctx.owner, nbytes)
        ptr = next_fn(ctx, nbytes)
        if self.mem_overcommit:
            self.swap.note_alloc(ctx.device, ctx.owner, nbytes)
        self.held_bytes += nbytes
        return ptr

    def _on_mem_free(self, ctx: CudaContext, ptr: DevicePointer) -> None:
        self.held_bytes = max(0, self.held_bytes - ptr.nbytes)

    def _hook_mem_free(self, next_fn, ctx: CudaContext, ptr: DevicePointer) -> None:
        """Over-commit mode: a pointer's bytes may be partly swapped out;
        only the resident part leaves the device ledger."""
        from_swap = min(self.swap.swapped_bytes(ctx.device, ctx.owner), ptr.nbytes)
        self.swap.note_free(ctx.device, ctx.owner, ptr.nbytes)
        return next_fn(ctx, ptr, ptr.nbytes - from_swap)

    # -- compute gate -------------------------------------------------------------
    def _hook_launch(self, next_fn, ctx: CudaContext, work: float, pace: float = 0.0) -> Generator:
        if self.mem_overcommit:
            return self._swap_aware_launch(next_fn, ctx, work, pace)
        if self.isolation == "fluid":
            return self._fluid_launch(next_fn, ctx, work, pace)
        return self._token_launch(next_fn, ctx, work, pace)

    def _swap_aware_launch(self, next_fn, ctx: CudaContext, work: float, pace: float) -> Generator:
        # Swap our pages back in (DMA, concurrent with others' compute)
        # before entering the normal isolation path.
        yield from self.swap.ensure_resident(ctx.device, ctx.owner)
        if self.isolation == "fluid":
            yield from self._fluid_launch(next_fn, ctx, work, pace)
        else:
            yield from self._token_launch(next_fn, ctx, work, pace)

    def _fluid_launch(self, next_fn, ctx: CudaContext, work: float, pace: float) -> Generator:
        # The elastic share is enforced by the device engine; the token
        # protocol's handoff cost is folded in as extra work so fluid runs
        # stay calibrated against token runs (Figure 7's overhead curve).
        # A paced stream's arrivals scale with it, so a server that keeps
        # up still ends when its last request arrives.
        backend = self.backend
        scale = 1.0 + backend.handoff_overhead / backend.quota
        yield from next_fn(ctx, work * scale, pace * scale)

    def _token_launch(self, next_fn, ctx: CudaContext, work: float, pace: float) -> Generator:
        if pace:
            # Tokens meter bursts of kernels; a stream must come batch by
            # batch (a job misrouted here would silently change its model).
            raise CudaError("token isolation takes no paced launch")
        backend = self.backend
        env = self.container.env
        dev = ctx.device.uuid
        remaining = float(work)
        self._launches_active[dev] = self._launches_active.get(dev, 0) + 1
        try:
            with obs.launch_ctx(self.container.pod_name, dev, work):
                while remaining > 1e-12:
                    token = self._tokens.get(dev)
                    if token is None or not token.valid or token.remaining(env.now) <= 1e-12:
                        with obs.token_wait_ctx(self.container.pod_name, dev):
                            token = yield from self._acquire(backend, dev)
                        self._tokens[dev] = token
                    # One session per hold, unless _token_ended cuts it.
                    chunk = min(remaining, token.remaining(env.now))
                    if chunk <= 1e-12:
                        self._tokens.pop(dev, None)
                        continue
                    yield from next_fn(ctx, chunk)
                    remaining -= ctx.session.work
        finally:
            self._launches_active[dev] -= 1
            if self._launches_active[dev] == 0 and not self._idle_watch.get(dev):
                self._idle_watch[dev] = True
                # A grace timer with a direct callback, not a process:
                # the watch fires at most once per idle transition and
                # runs three dict lookups.
                env.timeout(IDLE_REVOKE_GRACE).callbacks.append(
                    partial(self._idle_fire, dev)
                )

    def _idle_fire(self, dev: str, _event) -> None:
        """Release a held token if the application stayed idle past the
        grace period (so waiters aren't blocked by an idle holder)."""
        self._idle_watch[dev] = False
        token = self._tokens.get(dev)
        if self._launches_active.get(dev, 0) > 0:
            return  # a new launch arrived; it owns the token now
        if token is None or not token.valid:
            return
        self._tokens.pop(dev, None)
        self.backend.release(token)

    def _token_ended(self, token: Token) -> None:
        """The token's ``on_end`` hook: cut our kernels on its device at
        the next kernel boundary if it ended early, else at once (a no-op
        unless a revoked holder's kernel slowed ours past the expiry)."""
        early = self.container.env.now < token.expires_at()
        for ctx in self.api.contexts:
            if ctx.device.uuid == token.device_uuid:
                ctx.device.cut(ctx.session, MAX_KERNEL_CHUNK if early else 0.0)

    def _ensure_registered(self, backend: TokenBackend, dev: str) -> None:
        # The backend drops our record on a daemon restart and on
        # fail_device; re-register whenever it holds none.
        if dev not in self._registered_devices or not backend.registered(
            dev, self.client_id
        ):
            backend.register(dev, self.client_id, self.request, self.limit)
            self._registered_devices.add(dev)

    def _acquire(self, backend: TokenBackend, dev: str) -> Generator:
        # Runs inline (``yield from``) in the launching process so that a
        # container kill tears the whole wait chain down in one tree — no
        # orphaned acquire process left to fail undefused. Retries across
        # daemon restarts, re-registering with the restarted daemon.
        env = self.container.env
        while True:
            self._ensure_registered(backend, dev)
            try:
                token = yield from backend.acquire(dev, self.client_id)
            except TokenBackendUnavailable:
                yield env.timeout(max(backend.handoff_overhead, 1e-3))
                continue
            token.on_end = self._token_ended
            return token

    # -- teardown ------------------------------------------------------------------
    def _on_ctx_destroy(self, ctx: CudaContext) -> None:
        if self.mem_overcommit:
            self.swap.drop_owner(ctx.device, ctx.owner)
        if not self.api.contexts:  # last context gone: the app is exiting
            self.shutdown()

    def shutdown(self) -> None:
        """Release backend state (container exit)."""
        backend = self.container.node_services.get(TokenBackend.SERVICE_NAME)
        if backend is None:
            return
        for dev in sorted(self._registered_devices):
            token = self._tokens.pop(dev, None)
            if token is not None and token.valid:
                backend.release(token)
            backend.unregister(dev, self.client_id)
        self._registered_devices.clear()
