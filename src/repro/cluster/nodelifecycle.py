"""Node lifecycle controller: lease monitoring + pod eviction.

The control-plane half of node health. Every kubelet arms a node lease on
the apiserver (``api.node_leases``, see
:class:`~repro.cluster.apiserver.NodeLease`) that renews every
``heartbeat_interval``. This controller marks a node ``NotReady`` once its
last renewal is older than ``lease_duration`` and evicts (deletes) the pods
bound to it so their owners — the scheduler for plain pods,
KubeShare-Sched/DevMgr for SharePods — can replace them on surviving
nodes. When the lease is fresh again it marks the node ``Ready``.

One production subtlety is modelled because chaos runs hit it
immediately: when *most* leases look stale at once, the likely culprit is
the control plane's own view (an apiserver outage ate the renewals),
not a simultaneous failure of half the fleet. Like kube-controller-
manager's large-cluster eviction rate limiting, the controller then
marks nodes NotReady but *pauses eviction* until the quorum of leases
looks fresh again.

Ticks sit on a fixed grid (start, then every ``monitor_interval``), but
the controller only wakes at the grid ticks where a pass can decide
differently from the last one:

* every tick while the apiserver is down, while a node with a live lease
  is stale (an outage starved it; it renews soon), and while a stale
  node's eviction is held by the quorum rule or must be retried;
* otherwise the tick at which the oldest pending lease expires: a stopped
  lease, a node without one, or a live lease whose next renewal comes
  too late;
* otherwise none. It sleeps until a lease starts or stops, an outage
  begins or a Node object changes, then resumes at the next grid tick.

A skipped tick would have seen every node exactly as the previous pass
left it — Ready with a fresh lease, or NotReady and evicted — and done
nothing.
"""

from __future__ import annotations

import math
from typing import Generator, List

from ..obs import runtime as obs
from ..sim import Environment
from .apiserver import APIServer, Conflict, NotFound, ServiceUnavailable
from .objects import Node, Pod, PodPhase

__all__ = ["NodeLifecycleController"]


class NodeLifecycleController:
    """Watches node leases; marks stale nodes NotReady and evicts their pods."""

    def __init__(
        self,
        env: Environment,
        api: APIServer,
        lease_duration: float = 4.0,
        monitor_interval: float = 0.5,
        eviction_pause_fraction: float = 0.55,
    ) -> None:
        self.env = env
        self.api = api
        self.lease_duration = lease_duration
        self.monitor_interval = monitor_interval
        #: if more than this fraction of nodes is stale simultaneously,
        #: suspect the control plane and hold evictions.
        self.eviction_pause_fraction = eviction_pause_fraction
        self.not_ready_total = 0
        self.evictions_total = 0
        self.evicted_pods_total = 0
        #: node names whose pods were already evicted this NotReady spell.
        self._evicted: set[str] = set()
        self._proc = None
        #: the last grid tick; later ones are reached by repeated addition.
        self._grid = 0.0
        #: the pending tick's timer and time, or the event an idle loop waits on.
        self._timer = None
        self._due = math.inf
        self._alarm = None
        #: one bound method, so the same object can be unregistered.
        self._hook = self._wake
        self._node_watch = None

    def start(self) -> "NodeLifecycleController":
        if self._proc is None:
            self._grid = self.env.now
            self.api.lease_hooks.append(self._hook)
            self._node_watch = self.api.watch("Node", deliver=self._hook)
            self._spawn(self._grid + self.monitor_interval)
        return self

    def stop(self) -> None:
        if self._proc is not None:
            self.api.lease_hooks.remove(self._hook)
            self._node_watch.close()
            self._halt()
        self._proc = self._alarm = self._node_watch = None

    # -- monitor loop ------------------------------------------------------
    def _spawn(self, due: float) -> None:
        self._proc = self.env.process(self._run(due), name="node-lifecycle")

    def _halt(self) -> None:
        if self._proc.is_alive:
            self._proc.kill()
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _run(self, due: float) -> Generator:
        while True:
            if due == math.inf:
                self._alarm = self.env.event()
                yield self._alarm
                self._alarm = None
                due = self._tick_after(self.env.now)
            self._timer, self._due = self._timeout_at(due), due
            yield self._timer
            self._timer = None
            self._grid = due
            due = self._tick()

    def _tick(self) -> float:
        """One monitor pass; returns the next tick that can differ."""
        try:
            nodes = self.api.nodes()
        except ServiceUnavailable:
            return self._tick_after(self.env.now)
        stale = [n for n in nodes if self._is_stale(n)]
        fresh = [n for n in nodes if not self._is_stale(n)]
        quorum_lost = (
            len(nodes) > 1
            and len(stale) / len(nodes) >= self.eviction_pause_fraction
        )
        for node in stale:
            self._mark(node.name, ready=False)
            if not quorum_lost and node.name not in self._evicted:
                self._evicted.add(node.name)
                self.evictions_total += 1
                self._evict_pods(node.name)
        for node in fresh:
            if not node.status.ready:
                self._mark(node.name, ready=True)
            self._evicted.discard(node.name)
        return self._next_tick(stale, fresh)

    def _next_tick(self, stale: List[Node], fresh: List[Node]) -> float:
        """The first grid tick at which a pass can decide differently from
        the one that just ran, or ``inf`` if only a wake-up can change
        anything."""
        now = self.env.now
        leases = self.api.node_leases
        for node in stale:
            lease = leases.get(node.name)
            if node.name not in self._evicted or (lease is not None and lease.live):
                return self._tick_after(now)
        oldest = math.inf
        for node in fresh:
            lease = leases.get(node.name)
            renewed = self._renewed_at(node)
            if lease is None or lease.next_after(now) - renewed > self.lease_duration:
                oldest = min(oldest, renewed)
        if oldest == math.inf:
            return math.inf
        due = self._tick_after(now)
        while not (due - oldest) > self.lease_duration:
            due += self.monitor_interval
        return due

    def _tick_after(self, t: float) -> float:
        """The first grid tick strictly after *t*."""
        while self._grid + self.monitor_interval <= t:
            self._grid += self.monitor_interval
        return self._grid + self.monitor_interval

    def _timeout_at(self, when: float):
        """A timeout that fires at exactly *when*: ``now + (when - now)``
        can round to a neighbouring float."""
        now = self.env.now
        delay = when - now
        while now + delay < when:
            delay = math.nextafter(delay, math.inf)
        while now + delay > when:
            delay = math.nextafter(delay, -math.inf)
        return self.env.timeout(delay)

    def _wake(self, *_: object) -> None:
        """A lease started or stopped, an outage began or a Node changed:
        tick no later than the next grid point."""
        if self.env.active_process is self._proc:
            return  # this controller's own write, or not started yet
        if self._alarm is not None:
            if not self._alarm.triggered:
                self._alarm.succeed()
        elif self._timer is not None:
            due = self._tick_after(self.env.now)
            if due < self._due:
                self._halt()
                self._spawn(due)

    def _renewed_at(self, node: Node) -> float:
        lease = self.api.node_leases.get(node.name)
        if lease is None:
            # No kubelet armed a lease for it; age by creation time.
            return node.metadata.creation_time or 0.0
        return lease.renewed_at(self.env.now)

    def _is_stale(self, node: Node) -> bool:
        return (self.env.now - self._renewed_at(node)) > self.lease_duration

    def _mark(self, node_name: str, ready: bool) -> None:
        def mutate(n: Node) -> None:
            n.status.ready = ready

        try:
            current = self.api.get("Node", node_name, namespace="")
            if current is None or current.status.ready == ready:
                return
            self.api.patch("Node", node_name, mutate, namespace="")
            if not ready:
                self.not_ready_total += 1
            obs.event(
                "NodeReady" if ready else "NodeNotReady",
                "heartbeat fresh again"
                if ready
                else f"no heartbeat for more than {self.lease_duration}s",
                involved_kind="Node",
                involved_name=node_name,
                involved_namespace="",
                type="Normal" if ready else "Warning",
                source="node-lifecycle",
            )
        except (NotFound, ServiceUnavailable, Conflict):
            pass

    def _evict_pods(self, node_name: str) -> None:
        """Delete every non-terminal pod bound to the dead node."""
        try:
            pods: List[Pod] = self.api.pods()
        except ServiceUnavailable:
            # Retry next tick: drop the evicted marker so we come back.
            self._evicted.discard(node_name)
            return
        for pod in pods:
            if pod.spec.node_name != node_name:
                continue
            if pod.status.phase in (PodPhase.SUCCEEDED, PodPhase.FAILED):
                continue
            try:
                self.api.delete("Pod", pod.name, pod.metadata.namespace)
                self.evicted_pods_total += 1
                obs.event(
                    "Evicted",
                    f"node {node_name} is NotReady",
                    involved_kind="Pod",
                    involved_name=pod.name,
                    involved_namespace=pod.metadata.namespace,
                    type="Warning",
                    source="node-lifecycle",
                )
            except (NotFound, ServiceUnavailable):
                pass
