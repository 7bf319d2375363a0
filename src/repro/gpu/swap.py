"""GPU memory over-commitment via host swapping (optional extension).

The paper's device library refuses memory over-commitment outright and
points at virtual-memory approaches (Becchi et al., GPUswap, gScale) as
complementary: "our work can be integrated with these solutions to support
more flexible GPU memory sharing" (§4.5). This module provides that
integration for the simulation: a per-node :class:`SwapManager` that lets
containers' ``gpu_mem`` quotas exceed physical device memory by swapping
idle containers' pages to host memory.

Model (following GPUswap's observation that content can be moved while a
container's kernels are not running):

* every owner's bytes are either *resident* (in the device ledger) or
  *swapped* (in host memory);
* an allocation that does not fit evicts the least-recently-active other
  owners' resident bytes;
* transfer costs are charged at kernel-launch boundaries: before a
  container computes, its swapped bytes are brought back (plus any
  eviction debt it caused), at PCIe bandwidth — this is the overhead the
  paper warns about, measured in ``benchmarks/test_ablation_swap.py``.

Enable per container with the ``KUBESHARE_MEM_OVERCOMMIT=1`` env var (the
vGPU device library wires the hooks); the per-node manager is exposed as
the ``kubeshare-swap`` node service.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator

from ..sim import Environment
from .device import GPUDevice, GpuOutOfMemory

__all__ = ["SwapManager", "ENV_MEM_OVERCOMMIT"]

ENV_MEM_OVERCOMMIT = "KUBESHARE_MEM_OVERCOMMIT"


@dataclass
class _OwnerState:
    resident: int = 0
    swapped: int = 0
    #: pending transfer debt in bytes (evictions this owner caused).
    debt_bytes: int = 0
    last_active: float = 0.0


@dataclass
class _DeviceSwapState:
    owners: Dict[str, _OwnerState] = field(default_factory=dict)
    swapouts_total: int = 0
    swapins_total: int = 0
    bytes_swapped_total: int = 0


class SwapManager:
    """Per-node host-swap coordinator for over-committed GPU memory."""

    SERVICE_NAME = "kubeshare-swap"

    def __init__(self, env: Environment, bandwidth: float = 12e9) -> None:
        if bandwidth <= 0:
            raise ValueError("bandwidth must be > 0")
        self.env = env
        self.bandwidth = bandwidth
        self._devices: Dict[str, _DeviceSwapState] = {}

    def _state(self, device: GPUDevice) -> _DeviceSwapState:
        return self._devices.setdefault(device.uuid, _DeviceSwapState())

    def _owner(self, device: GPUDevice, owner: str) -> _OwnerState:
        return self._state(device).owners.setdefault(owner, _OwnerState())

    # -- accounting views ---------------------------------------------------
    def swapped_bytes(self, device: GPUDevice, owner: str) -> int:
        return self._owner(device, owner).swapped

    def stats(self, device: GPUDevice) -> Dict[str, int]:
        st = self._state(device)
        return {
            "swapouts": st.swapouts_total,
            "swapins": st.swapins_total,
            "bytes_swapped": st.bytes_swapped_total,
        }

    # -- allocation path ------------------------------------------------------
    def make_room(self, device: GPUDevice, owner: str, nbytes: int) -> None:
        """Ensure *nbytes* can be allocated for *owner*, evicting other
        owners' least-recently-active resident bytes if needed.

        Bookkeeping is synchronous (like ``cuMemAlloc``); the transfer cost
        of the evictions is charged to *owner* as debt, paid at its next
        kernel launch. Raises :class:`GpuOutOfMemory` if the device cannot
        hold the allocation even after every evictable byte is out.
        """
        state = self._state(device)
        me = self._owner(device, owner)
        shortfall = nbytes - device.memory_free
        if shortfall <= 0:
            return
        evictable = sorted(
            (
                (o, st)
                for o, st in state.owners.items()
                if o != owner and st.resident > 0
            ),
            key=lambda item: item[1].last_active,
        )
        available = sum(st.resident for _, st in evictable)
        if shortfall > available:
            raise GpuOutOfMemory(
                f"GPU {device.uuid}: over-committed allocation of {nbytes} "
                f"bytes cannot fit even with swapping "
                f"({device.memory_free} free + {available} evictable)"
            )
        remaining = shortfall
        for victim, st in evictable:
            if remaining <= 0:
                break
            take = min(st.resident, remaining)
            device.free_memory(victim, take)
            st.resident -= take
            st.swapped += take
            remaining -= take
            state.swapouts_total += 1
            state.bytes_swapped_total += take
            me.debt_bytes += take

    def note_alloc(self, device: GPUDevice, owner: str, nbytes: int) -> None:
        self._owner(device, owner).resident += nbytes

    def note_free(self, device: GPUDevice, owner: str, nbytes: int) -> None:
        """A free first burns swapped bytes (no device ledger held there)."""
        st = self._owner(device, owner)
        from_swap = min(st.swapped, nbytes)
        st.swapped -= from_swap
        st.resident = max(0, st.resident - (nbytes - from_swap))

    def drop_owner(self, device: GPUDevice, owner: str) -> None:
        self._state(device).owners.pop(owner, None)

    # -- launch path -------------------------------------------------------------
    def ensure_resident(self, device: GPUDevice, owner: str) -> Generator:
        """Process: before *owner* computes, pay its eviction debt and swap
        its own pages back in (evicting others if necessary)."""
        state = self._state(device)
        me = self._owner(device, owner)
        transfer = me.debt_bytes
        me.debt_bytes = 0
        if me.swapped > 0:
            swap_in = me.swapped
            self.make_room(device, owner, swap_in)
            # our own make_room debt is paid in this same transfer
            transfer += me.debt_bytes
            me.debt_bytes = 0
            device.alloc_memory(owner, swap_in)
            me.swapped = 0
            me.resident += swap_in
            transfer += swap_in
            state.swapins_total += 1
        me.last_active = self.env.now
        if transfer > 0:
            yield self.env.timeout(transfer / self.bandwidth)
