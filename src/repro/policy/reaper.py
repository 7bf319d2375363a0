"""The lifetime-policy reaper: reap expired and orphaned SharePods.

A periodic sweeper (not event-driven — lifetimes expire silently, no
watch event fires) that enforces three policies:

* **lifetime** — a running SharePod older than its TTL is deleted. The
  TTL resolves, most specific first: the SharePod's own
  ``policy.kubeshare/ttl`` annotation, then its Namespace's
  ``sharepod_ttl``, then the reaper's ``default_ttl`` (``None`` anywhere
  up the chain means "no limit at that level");
* **terminated garbage collection** — SUCCEEDED/FAILED SharePods linger
  ``terminated_ttl`` seconds for post-mortems, then go;
* **orphan collection** — a ``vgpu-holder-*`` placeholder pod whose GPUID
  no SharePod references for ``orphan_ttl`` seconds is deleted (the
  normal owner, DevMgr, may have crashed between teardown steps; the
  watch event from this delete drives DevMgr's usual detach path, so the
  reaper never touches pool internals).

Namespaces in ``excluded_namespaces`` are never reaped. All deletes go
through :func:`repro.policy.revocation.safe_delete`, so racing the
kubelet, DevMgr, or a preemptor is harmless. The reaper holds no state a
replica could not rebuild (the orphan grace tracking is re-derived one
sweep after failover), which makes it HA-group-compatible:
``rebuild_state`` just clears the derived bookkeeping. It watches
nothing and runs no worker: the sweep relists what it needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generator, Optional, Tuple

from ..cluster.apiserver import ServiceUnavailable, UnknownKind
from ..core.vgpu import PLACEHOLDER_PREFIX, placeholder_gpuid
from ..obs import runtime as obs
from .objects import ANN_TTL
from .revocation import safe_delete

__all__ = ["ReaperConfig", "LifetimeReaper"]


@dataclass
class ReaperConfig:
    """Termination windows and exclusions for the reaper."""

    #: lifetime for SharePods with no more specific TTL; ``None`` = none.
    default_ttl: Optional[float] = None
    #: how long terminal SharePods linger before garbage collection.
    terminated_ttl: Optional[float] = 30.0
    #: how long an unreferenced placeholder may dangle before collection
    #: (``None`` disables orphan collection).
    orphan_ttl: Optional[float] = 10.0
    #: namespaces the reaper never touches.
    excluded_namespaces: Tuple[str, ...] = ("kube-system",)
    #: sweep period, seconds.
    sweep_interval: float = 1.0


class LifetimeReaper:
    """Periodic sweeper with a controller's lifecycle (``start``, ``stop``,
    ``rebuild_state``), so it runs in an HA group and chaos
    CONTROLLER_* faults target it; its one process is the sweep."""

    def __init__(
        self,
        env,
        api,
        config: Optional[ReaperConfig] = None,
        name: str = "reaper",
    ) -> None:
        self.env = env
        self.api = api
        self.name = name
        self.config = config or ReaperConfig()
        self.reaped_total = 0
        self.orphans_reaped_total = 0
        #: gpuid -> first sweep time it was seen unreferenced.
        self._orphan_since: Dict[str, float] = {}
        self._sweep_proc = None

    # -- HA hooks ----------------------------------------------------------
    def rebuild_state(self) -> None:
        """Orphan grace tracking is derived; a fresh leader re-observes."""
        self._orphan_since = {}

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> "LifetimeReaper":
        self._sweep_proc = self.env.process(self._sweeper(), name=f"{self.name}:sweep")
        return self

    def stop(self) -> None:
        if self._sweep_proc is not None:
            self._sweep_proc.kill()
            self._sweep_proc = None

    # -- the sweep ---------------------------------------------------------
    def _sweeper(self) -> Generator:
        while True:
            yield self.env.timeout(self.config.sweep_interval)
            try:
                self._sweep()
            except (ServiceUnavailable, UnknownKind):
                continue  # outage or half-installed cluster; next sweep retries

    def _namespace_ttl(self, namespace: str) -> Optional[float]:
        try:
            ns = self.api.get("Namespace", namespace)
        except UnknownKind:
            return None
        if ns is None:
            return None
        return ns.spec.sharepod_ttl

    def _ttl_for(self, sp: Any) -> Optional[float]:
        raw = sp.metadata.annotations.get(ANN_TTL)
        if raw is not None:
            try:
                return float(raw)
            except ValueError:
                pass
        ns_ttl = self._namespace_ttl(sp.metadata.namespace)
        if ns_ttl is not None:
            return ns_ttl
        return self.config.default_ttl

    def _sweep(self) -> None:
        now = self.env.now
        cfg = self.config
        sharepods = self.api.list("SharePod")
        referenced = set()
        for sp in sharepods:
            if sp.spec.gpu_id is not None:
                referenced.add(sp.spec.gpu_id)
            if sp.metadata.namespace in cfg.excluded_namespaces:
                continue
            phase = getattr(sp.status.phase, "value", sp.status.phase)
            terminal = isinstance(phase, str) and phase.lower() in (
                "succeeded",
                "failed",
            )
            if terminal:
                done_at = sp.status.finish_time
                if (
                    cfg.terminated_ttl is not None
                    and done_at is not None
                    and now - done_at >= cfg.terminated_ttl
                ):
                    self._reap(sp, f"terminated {now - done_at:.1f}s ago")
                continue
            ttl = self._ttl_for(sp)
            born = sp.metadata.creation_time
            if ttl is not None and born is not None and now - born >= ttl:
                self._reap(sp, f"lifetime {ttl}s expired")
        if cfg.orphan_ttl is not None:
            self._collect_orphans(referenced, now)

    def _reap(self, sp: Any, why: str) -> None:
        if safe_delete(self.api, "SharePod", sp.metadata.name, sp.metadata.namespace):
            self.reaped_total += 1
            obs.event(
                "Reaped",
                f"{sp.metadata.key} reaped: {why}",
                involved_kind="SharePod",
                involved_name=sp.metadata.name,
                involved_namespace=sp.metadata.namespace,
                type="Warning",
                source=self.name,
            )
            obs.policy_decision("reap", sp.metadata.key, why)

    def _collect_orphans(self, referenced: set, now: float) -> None:
        """Delete placeholders whose GPUID no SharePod has referenced for
        a full ``orphan_ttl`` grace window."""
        holders = {}
        for pod in self.api.list("Pod"):
            if pod.name.startswith(PLACEHOLDER_PREFIX):
                holders[placeholder_gpuid(pod.name)] = pod
        for gpuid in list(self._orphan_since):
            if gpuid in referenced or gpuid not in holders:
                del self._orphan_since[gpuid]
        for gpuid, pod in sorted(holders.items()):
            if gpuid in referenced:
                continue
            since = self._orphan_since.setdefault(gpuid, now)
            if now - since < self.config.orphan_ttl:
                continue
            if safe_delete(self.api, "Pod", pod.name, pod.metadata.namespace):
                self.orphans_reaped_total += 1
                del self._orphan_since[gpuid]
                obs.event(
                    "OrphanReaped",
                    f"placeholder {pod.name} unreferenced for "
                    f"{now - since:.1f}s; reaped",
                    involved_kind="Pod",
                    involved_name=pod.name,
                    involved_namespace=pod.metadata.namespace,
                    type="Warning",
                    source=self.name,
                )
                obs.policy_decision(
                    "reap-orphan", pod.metadata.key, "unreferenced placeholder"
                )
