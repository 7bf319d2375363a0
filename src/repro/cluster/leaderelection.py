"""Leader election: lease-based HA for control-plane controllers.

Production Kubernetes controllers run as multi-replica deployments in
which exactly one replica is *active* at a time; the others are hot
standbys. Coordination happens through a ``Lease`` object in the
apiserver: the leader renews it periodically, and a standby acquires it
(compare-and-swap on the object's resourceVersion, reusing the
apiserver's existing :class:`~repro.cluster.apiserver.Conflict`
semantics) once it expires. This module reproduces that machinery for
the simulated cluster so KubeShare's controllers survive crashes of the
process that hosts them — the one failure mode PR 1's chaos engine could
not previously model.

Three guarantees, mirrored from client-go's ``leaderelection`` package
plus the classic fencing-token argument:

1. **Mutual exclusion** — at most one replica per
   :class:`HAControllerGroup` runs a live controller instance; a standby
   is promoted within a bounded virtual-time window (lease expiry + one
   retry tick) after the leader dies or goes silent.
2. **Fenced writes** — every apiserver write a leader issues carries a
   :class:`FencingToken` (its lease epoch). The apiserver rejects stale
   epochs with :class:`~repro.cluster.apiserver.FencingConflict`, so a
   deposed leader that resumes after a GC pause or partition cannot
   complete a single write — split-brain double allocation is impossible
   even before the deposed leader notices it lost the lease.
3. **Crash-safe state rebuild** — a promoted replica constructs a fresh
   controller instance and, when the controller exposes
   ``rebuild_state()``, relists from the apiserver to reconstruct its
   in-memory view before reconciling. No informer cache is trusted
   across a failover.

:class:`HAControllerGroup` is the one place that decides how a
control-plane controller runs: KubeShare's two controllers, the policy
controllers and the node lifecycle controller are all built through it,
alone (``replicas=None``: one instance, without any of this machinery)
or leader-elected (``replicas=N``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Generator, List, Optional, Tuple

from ..obs import runtime as obs
from ..sim import Environment
from .apiserver import (
    AlreadyExists,
    APIServer,
    Conflict,
    NotFound,
    ServiceUnavailable,
)
from .objects import DEFAULT_NAMESPACE, ObjectMeta

__all__ = [
    "LEASE_NAMESPACE",
    "Lease",
    "LeaseSpec",
    "FencingToken",
    "FencedAPIServer",
    "LeaderElector",
    "ReplicaState",
    "ControllerReplica",
    "HAControllerGroup",
]

#: Where coordination leases live (Kubernetes uses ``kube-system`` for the
#: control plane's own leases).
LEASE_NAMESPACE = "kube-system"


@dataclass
class LeaseSpec:
    """The coordination.k8s.io/Lease spec subset leader election needs."""

    holder: Optional[str] = None
    lease_duration: float = 3.0
    acquire_time: Optional[float] = None
    renew_time: Optional[float] = None
    #: Leadership-transition counter — the fencing token. Bumped by every
    #: acquisition, never by a renewal, so each reign has a unique epoch.
    epoch: int = 0


@dataclass
class Lease:
    """A coordination lease object, stored through the apiserver."""

    metadata: ObjectMeta
    spec: LeaseSpec = field(default_factory=LeaseSpec)

    kind = "Lease"

    @property
    def name(self) -> str:
        return self.metadata.name

    def clone(self) -> "Lease":
        return Lease(
            metadata=self.metadata.clone(),
            spec=LeaseSpec(
                holder=self.spec.holder,
                lease_duration=self.spec.lease_duration,
                acquire_time=self.spec.acquire_time,
                renew_time=self.spec.renew_time,
                epoch=self.spec.epoch,
            ),
        )


@dataclass(frozen=True)
class FencingToken:
    """Proof of leadership attached to every write of an elected leader."""

    lease_namespace: str
    lease_name: str
    holder: str
    epoch: int


class FencedAPIServer:
    """An apiserver client whose writes are fenced by a lease epoch.

    Reads delegate straight to the underlying :class:`APIServer`; every
    mutating call attaches the fencing token, so the write is rejected
    with :class:`~repro.cluster.apiserver.FencingConflict` the moment the
    token's epoch is no longer the lease's current one. Controllers hold
    this proxy as their ``api`` and need no other changes.
    """

    def __init__(self, api: APIServer, token: FencingToken) -> None:
        self._api = api
        self.token = token

    def __getattr__(self, name: str) -> Any:
        return getattr(self._api, name)

    # -- fenced writes -----------------------------------------------------
    def create(self, obj: Any) -> Any:
        return self._api.create(obj, fencing=self.token)

    def update(self, obj: Any) -> Any:
        return self._api.update(obj, fencing=self.token)

    def delete(self, kind: str, name: str, namespace: str = DEFAULT_NAMESPACE) -> Any:
        # Forwarding proxy: NotFound must propagate to the caller unchanged.
        return self._api.delete(kind, name, namespace, fencing=self.token)  # noqa: RPR009 - transparent proxy, tolerance is the caller's choice

    def try_delete(
        self, kind: str, name: str, namespace: str = DEFAULT_NAMESPACE
    ) -> bool:
        return self._api.try_delete(kind, name, namespace, fencing=self.token)

    def patch(
        self,
        kind: str,
        name: str,
        mutate: Callable[[Any], None],
        namespace: str = DEFAULT_NAMESPACE,
        retries: int = 8,
    ) -> Any:
        return self._api.patch(
            kind, name, mutate, namespace, retries, fencing=self.token
        )


class LeaderElector:
    """One replica's participation in a lease-based election.

    A simulation process that tries to acquire the named lease, renews it
    every ``renew_interval`` while leading, and retries acquisition every
    ``retry_interval`` while standing by. All lease writes go through the
    apiserver's optimistic concurrency, so two electors racing for an
    expired lease resolve deterministically — one CAS wins, the other
    sees :class:`~repro.cluster.apiserver.Conflict` and stays standby.

    During an apiserver outage a leader cannot renew; it keeps acting
    only until its own lease must have expired, then steps down
    voluntarily (it can no longer prove leadership — the renew-deadline
    rule from client-go).
    """

    def __init__(
        self,
        env: Environment,
        api: APIServer,
        lease_name: str,
        identity: str,
        lease_duration: float = 3.0,
        renew_interval: float = 0.5,
        retry_interval: float = 0.5,
        namespace: str = LEASE_NAMESPACE,
        on_started_leading: Optional[Callable[[FencingToken], None]] = None,
        on_stopped_leading: Optional[Callable[[], None]] = None,
    ) -> None:
        from ..core.backoff import DecorrelatedJitter  # deferred: import cycle

        self.env = env
        self.api = api
        self.lease_name = lease_name
        self.identity = identity
        self.lease_duration = lease_duration
        self.renew_interval = renew_interval
        self.retry_interval = retry_interval
        self.namespace = namespace
        self.on_started_leading = on_started_leading
        self.on_stopped_leading = on_stopped_leading
        self.is_leader = False
        self.token: Optional[FencingToken] = None
        #: (virtual time, "acquired"/"lost: …", epoch) history.
        self.transitions: List[Tuple[float, str, int]] = []
        self._last_renew: Optional[float] = None
        #: deterministic per-identity stagger so same-interval replicas do
        #: not tick in lockstep (str seeding is stable across runs).
        self._stagger = random.Random(f"elector:{identity}").uniform(
            0.0, retry_interval / 4.0
        )
        #: jittered backoff for *errored* attempts (apiserver unreachable
        #: or slow). Denials ("lease held by someone else") keep the plain
        #: ``retry_interval`` tick, so the group's ``failover_bound``
        #: promotion guarantee is unchanged; only outage/latency retries
        #: decay, so a fleet of electors cannot flood the event queue.
        self._backoff = DecorrelatedJitter(
            f"elector:{identity}", retry_interval, lease_duration
        )
        #: whether the most recent acquire/renew attempt hit an apiserver
        #: error (as opposed to a clean denial).
        self._errored = False
        self.acquire_attempts = 0
        self.renew_attempts = 0
        self.error_backoffs_total = 0
        self._proc = None

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> "LeaderElector":
        if self._proc is None or not self._proc.is_alive:
            self._proc = self.env.process(
                self._run(), name=f"elector:{self.identity}"
            )
        return self

    def stop(self) -> None:
        """Halt the election loop (leadership flags are left untouched —
        a paused replica still *believes* it leads; see fencing)."""
        if self._proc is not None and self._proc.is_alive:
            self._proc.kill()
        self._proc = None

    # -- election loop -----------------------------------------------------
    def _run(self) -> Generator:
        yield self.env.timeout(self._stagger)
        while True:
            latency = getattr(self.api, "extra_latency", 0.0)
            if latency > 0.0:
                # APISERVER_LATENCY: the lease RPC round-trip itself slows
                # down; model it so renew/acquire attempts pay the cost
                # instead of spinning at full speed against a slow server.
                yield self.env.timeout(latency)
            if not self.is_leader:
                if self._try_acquire():
                    self._backoff.reset()
                elif self._errored:
                    self.error_backoffs_total += 1
                    yield self.env.timeout(self._backoff.next())
                else:
                    # Clean denial: the lease is simply held. Plain retry
                    # tick — this path bounds standby promotion time.
                    self._backoff.reset()
                    yield self.env.timeout(self.retry_interval)
            else:
                delay = self.renew_interval
                if self._errored:
                    # Grace-window renews against a dark apiserver: back
                    # off with jitter, but never sleep past the moment
                    # the voluntary step-down is due.
                    self.error_backoffs_total += 1
                    delay = self._backoff.next()
                    if self._last_renew is not None:
                        remaining = (
                            self._last_renew + self.lease_duration - self.env.now
                        )
                        delay = min(delay, max(self.renew_interval, remaining))
                else:
                    self._backoff.reset()
                yield self.env.timeout(delay)
                if self.is_leader and not self._try_renew():
                    self._demote("lease lost")

    def _expired(self, lease: Lease) -> bool:
        seen = lease.spec.renew_time
        if seen is None:
            seen = lease.spec.acquire_time
        if seen is None:
            return True
        return (self.env.now - seen) > lease.spec.lease_duration

    def _try_acquire(self) -> bool:
        now = self.env.now
        self.acquire_attempts += 1
        self._errored = False
        try:
            lease = self.api.get("Lease", self.lease_name, self.namespace)
            if lease is None:
                fresh = Lease(
                    metadata=ObjectMeta(
                        name=self.lease_name, namespace=self.namespace
                    ),
                    spec=LeaseSpec(
                        holder=self.identity,
                        lease_duration=self.lease_duration,
                        acquire_time=now,
                        renew_time=now,
                        epoch=1,
                    ),
                )
                stored = self.api.create(fresh)
            elif (
                lease.spec.holder is None
                or lease.spec.holder == self.identity
                or self._expired(lease)
            ):
                lease = lease.clone()
                lease.spec.holder = self.identity
                lease.spec.epoch += 1
                lease.spec.lease_duration = self.lease_duration
                lease.spec.acquire_time = now
                lease.spec.renew_time = now
                stored = self.api.update(lease)
            else:
                return False
        except ServiceUnavailable:
            self._errored = True
            return False
        except (AlreadyExists, Conflict, NotFound):
            # Lost a race, not an outage: these are clean denials.
            return False
        self.is_leader = True
        self.token = FencingToken(
            self.namespace, self.lease_name, self.identity, stored.spec.epoch
        )
        self._last_renew = now
        self.transitions.append((now, "acquired", stored.spec.epoch))
        if self.on_started_leading is not None:
            self.on_started_leading(self.token)
        return True

    def _try_renew(self) -> bool:
        now = self.env.now
        self.renew_attempts += 1
        self._errored = False
        try:
            lease = self.api.get("Lease", self.lease_name, self.namespace)
            if (
                lease is None
                or lease.spec.holder != self.identity
                or self.token is None
                or lease.spec.epoch != self.token.epoch
            ):
                return False
            lease = lease.clone()
            lease.spec.renew_time = now
            self.api.update(lease)
            self._last_renew = now
            return True
        except Conflict:
            return False  # someone stole the lease mid-renew
        except ServiceUnavailable:
            # Unreachable apiserver: keep leading only while the lease we
            # last wrote could still be valid, then step down voluntarily.
            self._errored = True
            return (
                self._last_renew is not None
                and (now - self._last_renew) <= self.lease_duration
            )

    def _demote(self, reason: str) -> None:
        self.is_leader = False
        self.token = None
        self.transitions.append((self.env.now, f"lost: {reason}", 0))
        if obs.enabled():
            obs.leader_lost(self.lease_name, self.identity, reason)
        if self.on_stopped_leading is not None:
            self.on_stopped_leading()


class ReplicaState(str, Enum):
    STANDBY = "Standby"
    LEADER = "Leader"
    PAUSED = "Paused"
    CRASHED = "Crashed"


class ControllerReplica:
    """One of N replicas of a controller, driven by a :class:`LeaderElector`.

    The controller instance exists only while this replica leads: it is
    built by the group's factory on promotion (against a
    :class:`FencedAPIServer` carrying that reign's epoch), given a chance
    to rebuild state from the apiserver, and torn down on deposition or
    crash. Chaos hooks model the three control-plane failure modes:
    :meth:`crash` (process dies, memory gone), :meth:`pause` (GC pause or
    partition — frozen, then resumes with stale state), :meth:`restart`.
    """

    def __init__(self, group: "HAControllerGroup", index: int) -> None:
        self.group = group
        self.env = group.env
        self.index = index
        self.identity = f"{group.name}-{index}"
        self.state = ReplicaState.STANDBY
        self.controller: Optional[Any] = None
        self.client: Optional[FencedAPIServer] = None
        self.elector = LeaderElector(
            group.env,
            group.api,
            lease_name=group.name,
            identity=self.identity,
            lease_duration=group.lease_duration,
            renew_interval=group.renew_interval,
            retry_interval=group.retry_interval,
            on_started_leading=self._on_promoted,
            on_stopped_leading=self._on_deposed,
        )
        self._resumed_state = ReplicaState.STANDBY

    def start(self) -> "ControllerReplica":
        self.elector.start()
        return self

    # -- leadership transitions --------------------------------------------
    def _on_promoted(self, token: FencingToken) -> None:
        self.state = ReplicaState.LEADER
        self.client = FencedAPIServer(self.group.api, token)
        controller = self.group.factory(self.client)
        rebuild = getattr(controller, "rebuild_state", None)
        if callable(rebuild):
            # Crash-safe rebuild: relist from the apiserver, trust nothing
            # a previous leader held in memory.
            rebuild()
        self.controller = controller
        controller.start()
        self.group._record_promotion(self, token)

    def _on_deposed(self) -> None:
        self._stop_controller()
        if self.state is ReplicaState.LEADER:
            self.state = ReplicaState.STANDBY

    def _stop_controller(self) -> None:
        if self.controller is not None:
            self.controller.stop()
            self.controller = None
        self.client = None

    # -- chaos hooks -------------------------------------------------------
    def crash(self) -> None:
        """Hard process death: elector, controller, and memory all gone.
        The lease is *not* released — a standby must wait out its expiry,
        exactly as with a real controller-manager crash."""
        if self.state is ReplicaState.CRASHED:
            return
        was_leader = self.state is ReplicaState.LEADER
        self.elector.stop()
        self._stop_controller()
        self.elector.is_leader = False
        self.elector.token = None
        self.state = ReplicaState.CRASHED
        if was_leader and obs.enabled():
            obs.leader_lost(self.group.name, self.identity, "replica crashed")

    def restart(self) -> None:
        """Boot a crashed replica back up as a standby."""
        if self.state is not ReplicaState.CRASHED:
            return
        self.state = ReplicaState.STANDBY
        self.elector.start()

    def pause(self, duration: float) -> None:
        """Freeze the replica for *duration* seconds (GC pause/partition).

        Nothing runs and nothing renews while paused, but the in-memory
        state — including the now-aging fencing token — survives. On
        resume a deposed ex-leader restarts its controller with the stale
        token first (it does not yet know it lost the lease); every write
        it attempts is fenced off until the elector's next renew attempt
        notices the epoch moved on and steps down.
        """
        if self.state in (ReplicaState.CRASHED, ReplicaState.PAUSED):
            return
        self._resumed_state = self.state
        self.elector.stop()
        if self.controller is not None:
            self.controller.stop()  # freeze activity, keep the instance
        self.env.process(
            self._resume_after(duration), name=f"resume:{self.identity}"
        )
        self.state = ReplicaState.PAUSED

    def _resume_after(self, duration: float) -> Generator:
        yield self.env.timeout(duration)
        self.resume()

    def resume(self) -> None:
        if self.state is not ReplicaState.PAUSED:
            return
        self.state = (
            ReplicaState.LEADER if self.elector.is_leader else self._resumed_state
        )
        if self.controller is not None and self.elector.is_leader:
            # The stale-believing ex-leader resumes acting immediately;
            # fencing is what keeps its writes out.
            self.controller.start()
        self.elector.start()


class HAControllerGroup:
    """How one controller runs: alone, or as N leader-elected replicas.

    With ``replicas=N`` a lease keeps exactly one of N replicas active.
    *factory* builds a fresh controller instance against the fenced
    apiserver client it is given; it is invoked once per promotion, so a
    reign never inherits in-memory state from a predecessor. Instances
    are retained in :attr:`controllers` after deposition so cumulative
    metrics survive failovers.

    With ``replicas=None`` *factory* is called once, now, with the bare
    apiserver, and :meth:`start` runs that instance: no lease, no
    elector, no fencing, and :attr:`replicas` is empty. Building it at
    construction lets a caller prepare it before :meth:`start` (a
    reservation pool's prewarm).
    """

    def __init__(
        self,
        env: Environment,
        api: APIServer,
        name: str,
        factory: Callable[[Any], Any],
        replicas: Optional[int] = 2,
        lease_duration: float = 3.0,
        renew_interval: float = 0.5,
        retry_interval: float = 0.5,
    ) -> None:
        if replicas is not None and replicas < 1:
            raise ValueError("an HA controller group needs at least 1 replica")
        self.env = env
        self.api = api
        self.name = name
        self.factory = factory
        self.lease_duration = lease_duration
        self.renew_interval = renew_interval
        self.retry_interval = retry_interval
        self.replicas = [ControllerReplica(self, i) for i in range(replicas or 0)]
        #: (virtual time, identity, epoch) of every promotion, in order.
        self.promotions: List[Tuple[float, str, int]] = []
        #: every controller instance ever promoted (metrics outlive reigns).
        self.controllers: List[Any] = []
        #: the unelected instance (``replicas=None``), else ``None``.
        self._single: Optional[Any] = None
        if replicas is None:
            self._single = factory(api)
            self.controllers.append(self._single)
        self._started = False

    #: Worst-case promotion delay after a leader goes silent: its lease
    #: must expire, then a standby's next retry tick (plus stagger) wins.
    @property
    def failover_bound(self) -> float:
        return self.lease_duration + self.renew_interval + self.retry_interval

    def start(self) -> "HAControllerGroup":
        if not self._started:
            if self._single is not None:
                self._single.start()
            for replica in self.replicas:
                replica.start()
            self._started = True
        return self

    def stop(self) -> None:
        if self._single is not None:
            self._single.stop()
        for replica in self.replicas:
            replica.elector.stop()
            replica._stop_controller()
            replica.state = ReplicaState.STANDBY

    def _record_promotion(
        self, replica: ControllerReplica, token: FencingToken
    ) -> None:
        self.promotions.append((self.env.now, replica.identity, token.epoch))
        self.controllers.append(replica.controller)
        if obs.enabled():
            obs.leader_changed(self.name, replica.identity, token.epoch)

    # -- views -------------------------------------------------------------
    @property
    def leader(self) -> Optional[ControllerReplica]:
        for replica in self.replicas:
            if replica.state is ReplicaState.LEADER:
                return replica
        return None

    @property
    def active_controller(self) -> Optional[Any]:
        if self._single is not None:
            return self._single
        leader = self.leader
        return leader.controller if leader is not None else None

    def replica(self, identity: str) -> Optional[ControllerReplica]:
        for replica in self.replicas:
            if replica.identity == identity:
                return replica
        return None

    def metric(self, attr: str) -> float:
        """Sum a numeric counter across every instance ever promoted."""
        return sum(getattr(c, attr, 0) or 0 for c in self.controllers)
