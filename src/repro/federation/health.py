"""Cluster health probing: Healthy → Suspect → Dead, and back.

One prober process per member cluster issues liveness probes through the
member's :class:`~repro.federation.link.ClusterLink` (so a partition and
an outage are both observed as probe failures — the federation cannot
tell them apart, which is exactly why `Suspect` exists). Each successful
probe renews a heartbeat ``Lease`` in the *federation's* apiserver, the
durable record of last contact that the placer consults.

State machine:

* ``HEALTHY`` — probes succeed. One miss does nothing.
* ``SUSPECT`` — ``suspect_after`` consecutive misses. The placer stops
  routing *new* work to the cluster, but nothing is rescheduled: a
  partitioned cluster keeps serving its local SharePods undisturbed
  (static stability).
* ``DEAD`` — no contact for ``dead_after`` seconds. The placer evacuates:
  every record placed there is generation-fenced onto a healthy cluster.
* recovery — any successful probe returns the cluster to ``HEALTHY``;
  a ``DEAD → HEALTHY`` transition additionally triggers the recovery
  reconciler, which deletes copies fenced off while the cluster was gone.

Failed probes retry with the shared decorrelated-jitter policy (bounded
by ``probe_interval``-based cap), so probers for many suspect clusters
do not stampede.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, Dict, Generator, List, Optional, Tuple

from ..cluster.apiserver import NotFound, ServiceUnavailable
from ..cluster.leaderelection import LEASE_NAMESPACE, Lease, LeaseSpec
from ..cluster.objects import ObjectMeta
from ..core.backoff import DecorrelatedJitter
from ..obs import runtime as obs

__all__ = ["ClusterHealth", "ClusterHealthProber"]


class ClusterHealth(str, Enum):
    HEALTHY = "Healthy"
    SUSPECT = "Suspect"
    DEAD = "Dead"


class ClusterHealthProber:
    """Probes every member and drives the health state machine."""

    def __init__(
        self,
        federation,
        probe_interval: float = 0.5,
        probe_timeout: float = 0.25,
        suspect_after: int = 2,
        dead_after: float = 8.0,
    ) -> None:
        self.fed = federation
        self.env = federation.env
        self.probe_interval = probe_interval
        self.probe_timeout = probe_timeout
        self.suspect_after = suspect_after
        self.dead_after = dead_after
        self.state: Dict[str, ClusterHealth] = {
            name: ClusterHealth.HEALTHY for name in federation.members
        }
        self.last_contact: Dict[str, float] = {
            name: self.env.now for name in federation.members
        }
        self.misses: Dict[str, int] = {name: 0 for name in federation.members}
        #: (virtual time, member, old state, new state) history.
        self.transitions: List[Tuple[float, str, str, str]] = []
        self.probes_total = 0
        self.probe_failures_total = 0
        #: placer callbacks, wired by :class:`repro.federation.federation.Federation`.
        self.on_dead: Optional[Callable[[str], None]] = None
        self.on_recovered: Optional[Callable[[str], None]] = None
        self._backoff = DecorrelatedJitter(
            "prober", probe_interval, max(4 * probe_interval, 2.0)
        )
        self._procs: list = []

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> "ClusterHealthProber":
        if not self._procs:
            for name in sorted(self.fed.members):
                self._procs.append(
                    self.env.process(
                        self._probe_loop(name), name=f"prober:{name}"
                    )
                )
        return self

    # -- probe loop --------------------------------------------------------
    def _probe_loop(self, name: str) -> Generator:
        member = self.fed.members[name]
        while True:
            ok = yield from self._probe_once(name, member)
            if ok:
                self._backoff.reset(name)
                self._observe_success(name)
                yield self.env.timeout(self.probe_interval)
            else:
                self._observe_failure(name)
                # Jittered retry: a flapping member is re-probed on a
                # decaying schedule instead of a fixed tick.
                yield self.env.timeout(self._backoff.next(name))

    def _probe_once(self, name: str, member) -> Generator:
        """One liveness probe: link round-trip + a cheap member read."""
        self.probes_total += 1
        wait = min(member.link.latency, self.probe_timeout)
        if wait > 0:
            yield self.env.timeout(wait)
        if not member.link.reachable:
            # The probe hangs until its timeout, then gives up.
            rest = self.probe_timeout - wait
            if rest > 0:
                yield self.env.timeout(rest)
            self.probe_failures_total += 1
            return False
        try:
            member.api.list("Node")
        except ServiceUnavailable:
            self.probe_failures_total += 1
            return False
        self._renew_heartbeat(name)
        return True

    def _renew_heartbeat(self, name: str) -> None:
        """Record the contact as a heartbeat Lease in the federation store.

        This is a federation-local write (its own apiserver, no member
        cluster involved), so it legitimately bypasses the fenced/retried
        member-write wrappers.
        """
        api = self.fed.api
        lease_name = f"cluster-{name}"
        now = self.env.now

        def renew(lease: Lease) -> None:
            lease.spec.holder = name
            lease.spec.renew_time = now

        try:
            api.patch("Lease", lease_name, renew, LEASE_NAMESPACE)  # noqa: RPR010 - federation-local heartbeat lease, not a member-cluster write
        except NotFound:
            fresh = Lease(
                metadata=ObjectMeta(name=lease_name, namespace=LEASE_NAMESPACE),
                spec=LeaseSpec(
                    holder=name,
                    lease_duration=self.dead_after,
                    acquire_time=now,
                    renew_time=now,
                ),
            )
            api.create(fresh)  # noqa: RPR010 - federation-local heartbeat lease, not a member-cluster write

    # -- state machine -----------------------------------------------------
    def _observe_success(self, name: str) -> None:
        self.misses[name] = 0
        self.last_contact[name] = self.env.now
        old = self.state[name]
        if old is not ClusterHealth.HEALTHY:
            self._transition(name, old, ClusterHealth.HEALTHY)
            if old is ClusterHealth.DEAD and self.on_recovered is not None:
                self.on_recovered(name)

    def _observe_failure(self, name: str) -> None:
        self.misses[name] += 1
        old = self.state[name]
        silent_for = self.env.now - self.last_contact[name]
        if silent_for >= self.dead_after:
            if old is not ClusterHealth.DEAD:
                self._transition(name, old, ClusterHealth.DEAD)
                if self.on_dead is not None:
                    self.on_dead(name)
        elif (
            old is ClusterHealth.HEALTHY
            and self.misses[name] >= self.suspect_after
        ):
            self._transition(name, old, ClusterHealth.SUSPECT)

    def _transition(
        self, name: str, old: ClusterHealth, new: ClusterHealth
    ) -> None:
        self.state[name] = new
        self.transitions.append((self.env.now, name, old.value, new.value))
        obs.cluster_health(name, old.value, new.value)

    # -- views -------------------------------------------------------------
    def healthy_members(self) -> List[str]:
        return sorted(
            name
            for name, state in self.state.items()
            if state is ClusterHealth.HEALTHY
        )
