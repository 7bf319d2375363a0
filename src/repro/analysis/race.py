"""Dynamic race detector: happens-before tracking over the apiserver.

The static rules (:mod:`repro.analysis.rules`) catch hazardous *code
shapes*; this detector catches hazardous *executions*. It instruments
:class:`~repro.cluster.etcd.Etcd` (every component's single source of
truth) and the per-node token backends, and maintains three runtime
invariants:

* **No lost updates** — every overwrite of ``/registry/...`` must be
  issued by an actor (simulation process) that *read* the revision it is
  replacing. A blind ``put``, or a CAS whose base resourceVersion was
  never observed by the writer (a laundered RV), is flagged the moment
  it commits — the write pattern that silently discards a concurrent
  writer's changes under chaos schedules.
* **No double-bound vGPUs** — at most one RUNNING placeholder pod per
  physical GPU UUID (KubeShare's GPUID ↔ UUID mapping must be a
  bijection).
* **No token over-grants** — the sum of admitted ``gpu_request`` on one
  vGPU never exceeds device capacity (1.0), and a node's token daemon
  never has two simultaneously valid tokens for one device.

All four capstone benchmarks run instrumented: the chaos and failover
ones through ``race=True`` on :mod:`repro.perf.scenarios`, which the
obs goldens also pass, and the contention and federation ones through
:func:`install`. With ``fail_fast=True`` (the default) a violation
raises :class:`RaceViolation` at the offending write — loudly, inside
the simulation step that caused it.

Actors are identified by live simulation :class:`~repro.sim.Process`
objects (``env.active_process``), so two reconcile workers with the same
name are still distinct actors; code running outside any process (test
setup) is the ``"<main>"`` actor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Set, Tuple

__all__ = ["RaceDetector", "RaceViolation", "Violation", "install"]

_CAPACITY = 1.0
_EPS = 1e-6
_TERMINAL_PHASES = ("Succeeded", "Failed")


class RaceViolation(AssertionError):
    """Raised on the first violation when ``fail_fast`` is set, and by
    :meth:`RaceDetector.check` when any violation was recorded."""


@dataclass(frozen=True)
class Violation:
    """One detected invariant violation."""

    kind: str  # "lost-update" | "double-bind" | "token-overgrant"
    at: float  # virtual time
    actor: str
    subject: str  # etcd key, GPU UUID, or device UUID
    detail: str

    def render(self) -> str:
        return f"[t={self.at:.3f}] {self.kind} by {self.actor}: {self.subject} — {self.detail}"


def _phase(obj: Any) -> str:
    phase = getattr(getattr(obj, "status", None), "phase", None)
    return getattr(phase, "value", phase) or ""


class RaceDetector:
    """Per-actor happens-before tracker plus vGPU/token invariant state.

    Attach with :func:`install` (or set ``etcd.tracker`` / a backend's
    ``tracker`` by hand); every hook is duck-typed so the instrumented
    modules need no import of this package.
    """

    LOST_UPDATE = "lost-update"
    DOUBLE_BIND = "double-bind"
    TOKEN_OVERGRANT = "token-overgrant"

    def __init__(self, env: Any, fail_fast: bool = True) -> None:
        self.env = env
        self.fail_fast = fail_fast
        self.violations: List[Violation] = []
        #: actor -> key -> set of observed mod_revisions. Keyed by the
        #: Process object itself (identity), so same-named workers stay
        #: distinct actors.
        self._observed: Dict[Any, Dict[str, Set[int]]] = {}
        #: RUNNING placeholder pod key -> physical UUID it pins.
        self._holders: Dict[str, str] = {}
        #: SharePod key -> (gpuid, admitted gpu_request), active only.
        self._admitted: Dict[str, Tuple[str, float]] = {}
        self.reads_total = 0
        self.writes_total = 0

    # -- actor identity ----------------------------------------------------
    def _actor(self) -> Any:
        proc = getattr(self.env, "active_process", None)
        return proc if proc is not None else "<main>"

    @staticmethod
    def _actor_name(actor: Any) -> str:
        return getattr(actor, "name", None) or str(actor)

    # -- etcd hooks --------------------------------------------------------
    def record_read(self, key: str, kv: Any) -> None:
        """An actor observed (key, mod_revision) via get/range."""
        self.reads_total += 1
        self._observed.setdefault(self._actor(), {}).setdefault(key, set()).add(
            kv.mod_revision
        )

    def record_write(self, key: str, prev: Any, kv: Any, blind: bool) -> None:
        """A write committed; *prev* is the overwritten KeyValue or None."""
        self.writes_total += 1
        actor = self._actor()
        if prev is not None:
            seen = self._observed.get(actor, {}).get(key, ())
            if prev.mod_revision not in seen:
                how = "blind put" if blind else "compare-and-swap"
                self._flag(
                    self.LOST_UPDATE,
                    actor,
                    key,
                    f"{how} over revision {prev.mod_revision} which this actor "
                    "never read — a concurrent writer's change is silently lost",
                )
        # The writer holds the returned KV, so it has observed the new RV.
        self._observed.setdefault(actor, {}).setdefault(key, set()).add(
            kv.mod_revision
        )
        self._apply_state(key, kv.value, actor)

    def record_delete(self, key: str, prev: Any) -> None:
        """A key was removed; clear invariant state derived from it."""
        self._holders.pop(key, None)
        self._admitted.pop(key, None)

    # -- invariant state ---------------------------------------------------
    def _apply_state(self, key: str, value: Any, actor: Any) -> None:
        if value is None:
            return
        if key.startswith("/registry/Pod/"):
            self._apply_pod(key, value, actor)
        elif key.startswith("/registry/SharePod/"):
            self._apply_sharepod(key, value, actor)

    def _apply_pod(self, key: str, pod: Any, actor: Any) -> None:
        from ..core.vgpu import PLACEHOLDER_PREFIX  # deferred: no import cycle

        name = getattr(getattr(pod, "metadata", None), "name", "")
        if not name.startswith(PLACEHOLDER_PREFIX):
            return
        uuid = None
        if _phase(pod) == "Running":
            env_block = getattr(pod.status, "container_env", {}) or {}
            visible = env_block.get("NVIDIA_VISIBLE_DEVICES", "")
            uuid = visible.split(",")[0] if visible else None
        if uuid is None:
            self._holders.pop(key, None)
            return
        self._holders[key] = uuid
        holders = sorted(k for k, u in self._holders.items() if u == uuid)
        if len(holders) > 1:
            self._flag(
                self.DOUBLE_BIND,
                actor,
                uuid,
                f"{len(holders)} RUNNING placeholder pods pin this physical "
                f"GPU: {', '.join(holders)}",
            )

    def _apply_sharepod(self, key: str, sp: Any, actor: Any) -> None:
        gpuid = getattr(getattr(sp, "spec", None), "gpu_id", None)
        request = float(getattr(sp.spec, "gpu_request", 0.0) or 0.0)
        active = gpuid is not None and _phase(sp) not in _TERMINAL_PHASES
        if not active:
            self._admitted.pop(key, None)
            return
        self._admitted[key] = (gpuid, request)
        total = sum(r for g, r in self._admitted.values() if g == gpuid)
        if total > _CAPACITY + _EPS:
            members = sorted(k for k, (g, _) in self._admitted.items() if g == gpuid)
            self._flag(
                self.TOKEN_OVERGRANT,
                actor,
                gpuid,
                f"admitted gpu_request totals {total:.3f} > {_CAPACITY:.1f} "
                f"across {', '.join(members)} — token quotas are over-granted",
            )

    # -- token backend hook ------------------------------------------------
    def record_token_grant(self, device_uuid: str, token: Any, prev: Any) -> None:
        """A node's token daemon granted *token*; *prev* is the device's
        previously tracked token (None if none)."""
        if prev is not None and getattr(prev, "valid", False):
            self._flag(
                self.TOKEN_OVERGRANT,
                self._actor(),
                device_uuid,
                f"token granted to {getattr(token, 'client_id', '?')!r} while "
                f"{getattr(prev, 'client_id', '?')!r} still holds a valid token",
            )

    # -- reporting ---------------------------------------------------------
    def _flag(self, kind: str, actor: Any, subject: str, detail: str) -> None:
        violation = Violation(
            kind=kind,
            at=float(getattr(self.env, "now", 0.0)),
            actor=self._actor_name(actor),
            subject=subject,
            detail=detail,
        )
        self.violations.append(violation)
        if self.fail_fast:
            raise RaceViolation(violation.render())

    def report(self) -> str:
        if not self.violations:
            return "race detector: no violations"
        lines = [f"race detector: {len(self.violations)} violation(s)"]
        lines.extend(v.render() for v in self.violations)
        return "\n".join(lines)

    def check(self) -> None:
        """Raise :class:`RaceViolation` if anything was recorded."""
        if self.violations:
            raise RaceViolation(self.report())


def install(cluster: Any, fail_fast: bool = True) -> RaceDetector:
    """Attach a detector to a cluster's etcd and every node's backend."""
    detector = RaceDetector(cluster.env, fail_fast=fail_fast)
    cluster.api.etcd.tracker = detector
    for node in cluster.nodes:
        backend = getattr(node, "backend", None)
        if backend is not None:
            backend.tracker = detector
    return detector
