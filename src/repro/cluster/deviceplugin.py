"""The Kubernetes device-plugin framework (paper §2.2, Figure 2).

Vendors expose custom devices (GPUs, NICs, FPGAs) to kubelet through a
plugin that (1) registers itself and advertises a list of device IDs, and
(2) answers ``Allocate`` requests with the container environment needed to
attach the device — for NVIDIA GPUs, the ``NVIDIA_VISIBLE_DEVICES``
variable consumed by nvidia-docker2.

Two plugins are provided:

* :class:`NvidiaDevicePlugin` — the stock plugin: one opaque unit per
  physical GPU, whole-device allocation only.
* :class:`ScalingFactorGPUPlugin` — the "multiply the unit by 100" trick
  (§3.1) used by the prior GPU-sharing systems the paper compares against:
  each GPU is advertised as ``factor`` schedulable slices. This enables
  fractional *counting* but, as §3.1 explains, kubelet still has no notion
  of device identity, so which physical GPU a slice lands on is not under
  the scheduler's control — the root of the fragmentation problem.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

__all__ = [
    "AllocateResponse",
    "DevicePlugin",
    "NvidiaDevicePlugin",
    "ScalingFactorGPUPlugin",
    "DeviceManager",
    "InsufficientDevices",
]

NVIDIA_VISIBLE_DEVICES = "NVIDIA_VISIBLE_DEVICES"


class InsufficientDevices(Exception):
    """Allocate asked for more device units than are free on the node."""


@dataclass
class AllocateResponse:
    """What kubelet needs to attach devices to a container."""

    env: Dict[str, str] = field(default_factory=dict)
    mounts: List[str] = field(default_factory=list)
    device_ids: List[str] = field(default_factory=list)


class DevicePlugin:
    """Base class: vendor-specific device discovery and attachment."""

    #: Extended-resource name advertised to kubelet.
    resource_name: str = "example.com/device"

    def list_devices(self) -> List[str]:
        """Device IDs in a ready state (the ListAndWatch payload)."""
        raise NotImplementedError

    def allocate(self, device_ids: Sequence[str]) -> AllocateResponse:
        """Return attachment info for the chosen *device_ids*."""
        raise NotImplementedError


class NvidiaDevicePlugin(DevicePlugin):
    """Stock NVIDIA plugin: one unit per GPU, identified by UUID."""

    resource_name = "nvidia.com/gpu"

    def __init__(self, gpu_uuids: Sequence[str]) -> None:
        self._uuids = list(gpu_uuids)

    def list_devices(self) -> List[str]:
        return list(self._uuids)

    def allocate(self, device_ids: Sequence[str]) -> AllocateResponse:
        unknown = [d for d in device_ids if d not in self._uuids]
        if unknown:
            raise InsufficientDevices(f"unknown GPU ids {unknown}")
        return AllocateResponse(
            env={NVIDIA_VISIBLE_DEVICES: ",".join(device_ids)},
            device_ids=list(device_ids),
        )


class ScalingFactorGPUPlugin(DevicePlugin):
    """Fractional allocation by unit scaling (the baselines' approach).

    Each physical GPU is advertised as ``factor`` slice IDs of the form
    ``{uuid}::{index}``. ``Allocate`` maps whichever slices kubelet picked
    back to the union of their physical UUIDs.
    """

    resource_name = "nvidia.com/gpu"

    def __init__(self, gpu_uuids: Sequence[str], factor: int = 100) -> None:
        if factor < 1:
            raise ValueError("factor must be >= 1")
        self._uuids = list(gpu_uuids)
        self.factor = factor

    def list_devices(self) -> List[str]:
        return [f"{u}::{i}" for u in self._uuids for i in range(self.factor)]

    @staticmethod
    def slice_uuid(device_id: str) -> str:
        return device_id.rsplit("::", 1)[0]

    def allocate(self, device_ids: Sequence[str]) -> AllocateResponse:
        uuids: List[str] = []
        for d in device_ids:
            u = self.slice_uuid(d)
            if u not in self._uuids:
                raise InsufficientDevices(f"unknown GPU slice {d}")
            if u not in uuids:
                uuids.append(u)
        return AllocateResponse(
            env={NVIDIA_VISIBLE_DEVICES: ",".join(uuids)},
            device_ids=list(device_ids),
        )


class DeviceManager:
    """kubelet's device bookkeeping: free lists and per-pod allocations.

    ``policy`` controls which free device units an Allocate picks when the
    request does not name specific IDs — the crux of §3.1:

    * ``"packed"``: lowest IDs first (slices of the same GPU cluster
      together);
    * ``"roundrobin"``: interleave across physical devices, reproducing the
      Figure 3a behaviour where containers are spread over GPUs with no
      identity awareness.
    """

    def __init__(self, policy: str = "packed") -> None:
        if policy not in ("packed", "roundrobin"):
            raise ValueError(f"unknown allocation policy {policy!r}")
        self.policy = policy
        self._plugins: Dict[str, DevicePlugin] = {}
        self._free: Dict[str, List[str]] = {}
        self._pod_allocations: Dict[str, Dict[str, List[str]]] = {}
        self._rr_cursor: Dict[str, int] = {}
        #: device units reported unhealthy via ListAndWatch updates.
        self._unhealthy: Dict[str, set] = {}
        #: callbacks fired on any health change (kubelet re-advertises).
        self._health_listeners: List = []

    # -- registration (Figure 2a) -----------------------------------------
    def register(self, plugin: DevicePlugin) -> None:
        name = plugin.resource_name
        self._plugins[name] = plugin
        self._free[name] = plugin.list_devices()
        self._rr_cursor[name] = 0
        self._unhealthy[name] = set()

    def capacity(self) -> Dict[str, float]:
        """Advertised extended-resource capacity (for node status).

        Unhealthy units are excluded, mirroring how a ListAndWatch update
        shrinks the device list kubelet advertises (Figure 2a).
        """
        return {
            name: float(
                len(plugin.list_devices()) - len(self._unhealthy.get(name, ()))
            )
            for name, plugin in self._plugins.items()
        }

    # -- device health (ListAndWatch state changes) -------------------------
    def on_health_change(self, listener) -> None:
        """Register a callback ``(resource, device_id, healthy)``; kubelet
        uses this to re-advertise node capacity."""
        self._health_listeners.append(listener)

    def set_device_health(self, resource: str, device_id: str, healthy: bool) -> None:
        """Report a device unit (un)healthy, as a plugin's ListAndWatch
        stream would. Unhealthy units are withdrawn from the free list;
        units already attached to a pod stay attached until released."""
        if resource not in self._plugins:
            raise InsufficientDevices(f"no plugin for {resource}")
        known = self._plugins[resource].list_devices()
        if device_id not in known:
            raise InsufficientDevices(f"unknown device {device_id}")
        unhealthy = self._unhealthy[resource]
        if healthy:
            if device_id in unhealthy:
                unhealthy.discard(device_id)
                if not self._is_allocated(resource, device_id):
                    self._free[resource].append(device_id)
        else:
            if device_id not in unhealthy:
                unhealthy.add(device_id)
                try:
                    self._free[resource].remove(device_id)
                except ValueError:
                    pass  # currently allocated; withheld on release
        for listener in self._health_listeners:
            listener(resource, device_id, healthy)

    def is_healthy(self, resource: str, device_id: str) -> bool:
        return device_id not in self._unhealthy.get(resource, ())

    def unhealthy_ids(self, resource: Optional[str] = None) -> List[str]:
        """Currently-unhealthy device units (all resources by default)."""
        if resource is not None:
            return sorted(self._unhealthy.get(resource, ()))
        return sorted(d for units in self._unhealthy.values() for d in units)

    def health_listeners(self) -> List:
        return list(self._health_listeners)

    def _is_allocated(self, resource: str, device_id: str) -> bool:
        return any(
            device_id in held.get(resource, ())
            for held in self._pod_allocations.values()
        )

    def free_count(self, resource: str) -> int:
        return len(self._free.get(resource, []))

    def free_ids(self, resource: str) -> List[str]:
        return list(self._free.get(resource, []))

    # -- allocation (Figure 2b) ---------------------------------------------
    def allocate(
        self,
        pod_uid: str,
        resource: str,
        count: int,
        device_ids: Optional[Sequence[str]] = None,
    ) -> AllocateResponse:
        """Allocate *count* units of *resource* to a pod.

        If *device_ids* is given (used by the scheduler-extender baselines
        which decide the device at bind time via an annotation), exactly
        those units are taken; otherwise the manager picks per its policy.
        """
        if resource not in self._plugins:
            raise InsufficientDevices(f"no plugin for {resource}")
        free = self._free[resource]
        if device_ids is not None:
            chosen = list(device_ids)
            missing = [d for d in chosen if d not in free]
            if missing:
                raise InsufficientDevices(f"units not free: {missing}")
        elif self.policy == "packed":
            if len(free) < count:
                raise InsufficientDevices(
                    f"{resource}: want {count}, have {len(free)}"
                )
            chosen = sorted(free)[:count]
        else:  # roundrobin across physical devices
            chosen = self._roundrobin_pick(resource, count)

        for d in chosen:
            free.remove(d)
        response = self._plugins[resource].allocate(chosen)
        self._pod_allocations.setdefault(pod_uid, {}).setdefault(resource, []).extend(
            chosen
        )
        return response

    def _roundrobin_pick(self, resource: str, count: int) -> List[str]:
        free = self._free[resource]
        if len(free) < count:
            raise InsufficientDevices(f"{resource}: want {count}, have {len(free)}")
        # Group free units by physical device (prefix before '::', or the
        # whole id for unsliced plugins) and deal them out in turn.
        groups: Dict[str, List[str]] = {}
        for d in sorted(free):
            groups.setdefault(d.rsplit("::", 1)[0], []).append(d)
        order = sorted(groups)
        chosen: List[str] = []
        cursor = self._rr_cursor[resource]
        while len(chosen) < count:
            dev = order[cursor % len(order)]
            cursor += 1
            if groups[dev]:
                chosen.append(groups[dev].pop(0))
        self._rr_cursor[resource] = cursor
        return chosen

    def release_pod(self, pod_uid: str) -> None:
        """Return all device units held by *pod_uid* to the free lists.

        Units that went unhealthy while attached are withheld rather than
        returned.
        """
        for resource, ids in self._pod_allocations.pop(pod_uid, {}).items():
            unhealthy = self._unhealthy.get(resource, set())
            self._free[resource].extend(d for d in ids if d not in unhealthy)

    def pod_devices(self, pod_uid: str) -> Dict[str, List[str]]:
        return {k: list(v) for k, v in self._pod_allocations.get(pod_uid, {}).items()}

    def reset_allocations(self) -> None:
        """Drop all per-pod allocations and rebuild the free lists (node
        reboot: no container survived, so nothing holds a device)."""
        self._pod_allocations.clear()
        for name, plugin in self._plugins.items():
            unhealthy = self._unhealthy.get(name, set())
            self._free[name] = [
                d for d in plugin.list_devices() if d not in unhealthy
            ]
