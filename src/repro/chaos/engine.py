"""The chaos engine: applies a fault schedule to a live simulated cluster.

Deterministic by construction — the schedule is a sorted list of
:class:`~repro.chaos.faults.Fault` records and every "pick a target"
decision draws from a seeded RNG over *sorted* candidate names, so the
same seed and schedule always hit the same victims at the same virtual
times. That makes chaos runs replayable, bisectable, and usable as
regression tests (benchmarks/test_chaos_recovery.py).

Usage::

    engine = ChaosEngine(cluster, kubeshare=ks, seed=7)
    engine.node_crash(at=45.0)                       # engine picks a busy node
    engine.node_restart(at=75.0)                     # restarts the crashed one
    engine.gpu_failure(at=30.0, target="GPU-node01-2")
    engine.start()

or generate a random (but seeded) background schedule::

    engine.random_faults(horizon=300.0, rate=1 / 60.0)
    engine.start()
"""

from __future__ import annotations

import math
import random
from typing import Generator, List, Optional, Tuple

from ..cluster.cluster import Cluster, WorkerNode
from ..cluster.leaderelection import ControllerReplica, HAControllerGroup, ReplicaState
from ..cluster.objects import GPU_RESOURCE
from ..obs import runtime as obs
from .faults import Fault, FaultKind

__all__ = ["ChaosEngine"]


class ChaosEngine:
    """Schedules and applies faults against a :class:`Cluster` in virtual
    time. ``kubeshare`` is optional — node/GPU faults work on any cluster."""

    def __init__(self, cluster: Cluster, kubeshare=None, seed: int = 0) -> None:
        self.cluster = cluster
        self.kubeshare = kubeshare
        self.env = cluster.env
        self.seed = seed
        self.rng = random.Random(seed)
        self.schedule: List[Fault] = []
        #: leader-elected controller groups eligible for CONTROLLER_* faults,
        #: keyed by group name (see :meth:`register_controllers`).
        self.controller_groups: dict = {}
        #: PREEMPTION_STORM specs keyed by the fault's target id.
        self.storm_specs: dict = {}
        #: federation enrolled for CLUSTER_OUTAGE / FEDERATION_PARTITION
        #: faults (see :meth:`register_federation`).
        self.federation = None
        #: (time, fault, resolved target, outcome) — what actually happened.
        self.log: List[Tuple[float, Fault, Optional[str], str]] = []
        self._proc = None

    def register_controllers(self, *groups: HAControllerGroup) -> "ChaosEngine":
        """Make HA controller groups visible to CONTROLLER_* faults."""
        for group in groups:
            self.controller_groups[group.name] = group
        return self

    def register_federation(self, federation) -> "ChaosEngine":
        """Make federation members targetable by whole-cluster faults."""
        self.federation = federation
        return self

    # -- schedule builders -------------------------------------------------
    def add(self, fault: Fault) -> "ChaosEngine":
        self.schedule.append(fault)
        return self

    def node_crash(self, at: float, target: Optional[str] = None) -> "ChaosEngine":
        return self.add(Fault(at=at, kind=FaultKind.NODE_CRASH, target=target))

    def node_restart(self, at: float, target: Optional[str] = None) -> "ChaosEngine":
        return self.add(Fault(at=at, kind=FaultKind.NODE_RESTART, target=target))

    def gpu_failure(self, at: float, target: Optional[str] = None) -> "ChaosEngine":
        return self.add(Fault(at=at, kind=FaultKind.GPU_FAILURE, target=target))

    def gpu_recovery(self, at: float, target: Optional[str] = None) -> "ChaosEngine":
        return self.add(Fault(at=at, kind=FaultKind.GPU_RECOVERY, target=target))

    def backend_restart(self, at: float, target: Optional[str] = None) -> "ChaosEngine":
        return self.add(Fault(at=at, kind=FaultKind.BACKEND_RESTART, target=target))

    def container_crash(self, at: float, target: Optional[str] = None) -> "ChaosEngine":
        return self.add(Fault(at=at, kind=FaultKind.CONTAINER_CRASH, target=target))

    def apiserver_outage(self, at: float, duration: float) -> "ChaosEngine":
        return self.add(
            Fault(at=at, kind=FaultKind.APISERVER_OUTAGE, duration=duration)
        )

    def apiserver_latency(
        self, at: float, duration: float, extra: float
    ) -> "ChaosEngine":
        return self.add(
            Fault(
                at=at,
                kind=FaultKind.APISERVER_LATENCY,
                duration=duration,
                value=extra,
            )
        )

    def controller_crash(
        self, at: float, target: Optional[str] = None
    ) -> "ChaosEngine":
        """Kill a controller replica (the current leader, unless *target*
        names a specific group or replica identity)."""
        return self.add(Fault(at=at, kind=FaultKind.CONTROLLER_CRASH, target=target))

    def controller_pause(
        self, at: float, duration: float, target: Optional[str] = None
    ) -> "ChaosEngine":
        """Freeze a leader for *duration* seconds, then let it resume with
        its stale lease epoch (exercises write fencing)."""
        return self.add(
            Fault(
                at=at,
                kind=FaultKind.CONTROLLER_PAUSE,
                target=target,
                duration=duration,
            )
        )

    def controller_restart(
        self, at: float, target: Optional[str] = None
    ) -> "ChaosEngine":
        """Bring a crashed replica back as a standby."""
        return self.add(
            Fault(at=at, kind=FaultKind.CONTROLLER_RESTART, target=target)
        )

    def preemption_storm(
        self,
        at: float,
        count: int = 5,
        window: float = 2.0,
        priority_class: Optional[str] = "high",
        namespace: str = "default",
        gpu_request: float = 0.5,
        gpu_mem: float = 0.3,  # fits InferenceJob's 4 GiB weights on 16 GiB
        job_duration: float = 10.0,
    ) -> "ChaosEngine":
        """Schedule a seeded burst of *count* high-priority SharePod
        arrivals spread over *window* seconds starting at *at*.

        Requires ``kubeshare``; arrival offsets come from the engine's
        seeded RNG, so identical seeds replay the identical storm (and
        therefore the identical eviction set downstream)."""
        storm_id = f"storm-{len(self.storm_specs)}"
        self.storm_specs[storm_id] = {
            "priority_class": priority_class,
            "namespace": namespace,
            "gpu_request": gpu_request,
            "gpu_mem": gpu_mem,
            "job_duration": job_duration,
        }
        return self.add(
            Fault(
                at=at,
                kind=FaultKind.PREEMPTION_STORM,
                target=storm_id,
                duration=window,
                value=float(count),
            )
        )

    def cluster_outage(
        self, at: float, target: Optional[str] = None, duration: float = 0.0
    ) -> "ChaosEngine":
        """A federation member goes entirely dark (apiserver + all nodes).

        ``duration=0`` means the outage is permanent — the DR capstone's
        "cluster killed mid-burst". Requires :meth:`register_federation`.
        """
        return self.add(
            Fault(
                at=at,
                kind=FaultKind.CLUSTER_OUTAGE,
                target=target,
                duration=duration,
            )
        )

    def federation_partition(
        self, at: float, duration: float, target: Optional[str] = None
    ) -> "ChaosEngine":
        """Break only the federation↔member link for *duration* seconds;
        the member keeps serving local SharePods (static stability)."""
        return self.add(
            Fault(
                at=at,
                kind=FaultKind.FEDERATION_PARTITION,
                target=target,
                duration=duration,
            )
        )

    def random_faults(
        self,
        horizon: float,
        rate: float = 1 / 60.0,
        kinds: Optional[List[FaultKind]] = None,
        start: float = 0.0,
    ) -> "ChaosEngine":
        """Poisson-arrive faults of the given *kinds* until *horizon*.

        Inter-arrival times and kind choices come from the engine's seeded
        RNG, so the "random" schedule is reproducible."""
        kinds = kinds or [
            FaultKind.NODE_CRASH,
            FaultKind.GPU_FAILURE,
            FaultKind.BACKEND_RESTART,
            FaultKind.CONTAINER_CRASH,
        ]
        t = start
        while True:
            t += -math.log(1.0 - self.rng.random()) / rate
            if t >= horizon:
                break
            kind = self.rng.choice(kinds)
            if kind is FaultKind.APISERVER_OUTAGE:
                self.add(
                    Fault(at=t, kind=kind, duration=self.rng.uniform(0.5, 3.0))
                )
            elif kind is FaultKind.APISERVER_LATENCY:
                self.add(
                    Fault(
                        at=t,
                        kind=kind,
                        duration=self.rng.uniform(2.0, 10.0),
                        value=self.rng.uniform(0.01, 0.1),
                    )
                )
            else:
                self.add(Fault(at=t, kind=kind))
        return self

    # -- execution ---------------------------------------------------------
    def start(self) -> "ChaosEngine":
        """Begin applying the schedule (idempotent)."""
        if self._proc is None:
            self._proc = self.env.process(self._run(), name="chaos-engine")
        return self

    def _run(self) -> Generator:
        for fault in sorted(self.schedule, key=lambda f: (f.at, f.kind.value)):
            if fault.at > self.env.now:
                yield self.env.timeout(fault.at - self.env.now)
            try:
                target, outcome = self._apply(fault)
            except Exception as err:  # noqa: BLE001 - chaos must not crash the sim
                target, outcome = fault.target, f"error: {err!r}"
            self.log.append((self.env.now, fault, target, outcome))
            obs.fault_injected(fault.kind.value, target or "", outcome)

    def _apply(self, fault: Fault) -> Tuple[Optional[str], str]:
        kind = fault.kind
        if kind is FaultKind.NODE_CRASH:
            node = self._pick_node(fault.target, crashed=False, prefer_busy=True)
            if node is None:
                return None, "no-op: no live node"
            node.crash()
            return node.name, "crashed"
        if kind is FaultKind.NODE_RESTART:
            node = self._pick_node(fault.target, crashed=True)
            if node is None:
                return None, "no-op: no crashed node"
            self.env.process(node.restart(), name=f"chaos-restart:{node.name}")
            return node.name, "restarting"
        if kind is FaultKind.GPU_FAILURE:
            gpu = self._pick_gpu(fault.target, failed=False)
            if gpu is None:
                return None, "no-op: no healthy GPU"
            node = self.cluster.node(gpu.node_name)
            gpu.fail()
            node.backend.fail_device(gpu.uuid)
            if not node.crashed:
                try:
                    node.device_manager.set_device_health(
                        GPU_RESOURCE, gpu.uuid, False
                    )
                except Exception:  # noqa: BLE001 - sliced plugins name units differently
                    pass
            return gpu.uuid, "failed"
        if kind is FaultKind.GPU_RECOVERY:
            gpu = self._pick_gpu(fault.target, failed=True)
            if gpu is None:
                return None, "no-op: no failed GPU"
            node = self.cluster.node(gpu.node_name)
            gpu.recover()
            node.backend.revive_device(gpu.uuid)
            if not node.crashed:
                try:
                    node.device_manager.set_device_health(
                        GPU_RESOURCE, gpu.uuid, True
                    )
                except Exception:  # noqa: BLE001
                    pass
            return gpu.uuid, "recovered"
        if kind is FaultKind.BACKEND_RESTART:
            node = self._pick_node(fault.target, crashed=False)
            if node is None:
                return None, "no-op: no live node"
            node.backend.restart()
            return node.name, "backend restarted"
        if kind is FaultKind.CONTAINER_CRASH:
            picked = self._pick_container(fault.target)
            if picked is None:
                return None, "no-op: no running container"
            node, uid, handle = picked
            handle.kill("container crashed (chaos)")
            node.runtime.containers.pop(uid, None)
            return f"{node.name}/{handle.name}", "killed"
        if kind is FaultKind.CONTROLLER_CRASH:
            replica = self._pick_replica(fault.target, want_crashed=False)
            if replica is None:
                return None, "no-op: no live replica"
            replica.crash()
            return replica.identity, "crashed"
        if kind is FaultKind.CONTROLLER_PAUSE:
            replica = self._pick_replica(
                fault.target, want_crashed=False, leaders_only=True
            )
            if replica is None:
                return None, "no-op: no leader to pause"
            replica.pause(fault.duration)
            return replica.identity, f"paused for {fault.duration:.2f}s"
        if kind is FaultKind.CONTROLLER_RESTART:
            replica = self._pick_replica(fault.target, want_crashed=True)
            if replica is None:
                return None, "no-op: no crashed replica"
            replica.restart()
            return replica.identity, "restarted as standby"
        if kind is FaultKind.APISERVER_OUTAGE:
            self.cluster.api.set_outage(fault.duration)
            return None, f"outage for {fault.duration:.2f}s"
        if kind is FaultKind.APISERVER_LATENCY:
            self.cluster.api.extra_latency += fault.value
            self.env.process(
                self._end_latency_window(fault.value, fault.duration),
                name="chaos-latency-window",
            )
            return None, f"+{fault.value:.3f}s latency for {fault.duration:.2f}s"
        if kind is FaultKind.CLUSTER_OUTAGE:
            member = self._pick_member(fault.target)
            if member is None:
                return fault.target, "no-op: no reachable federation member"
            member.outage(fault.duration if fault.duration > 0 else None)
            span = (
                f"for {fault.duration:.2f}s" if fault.duration > 0 else "permanently"
            )
            return member.name, f"cluster dark {span}"
        if kind is FaultKind.FEDERATION_PARTITION:
            member = self._pick_member(fault.target)
            if member is None:
                return fault.target, "no-op: no reachable federation member"
            member.partition(fault.duration)
            return member.name, f"link partitioned for {fault.duration:.2f}s"
        if kind is FaultKind.PREEMPTION_STORM:
            if self.kubeshare is None:
                return fault.target, "no-op: no kubeshare attached"
            count = max(1, int(fault.value))
            offsets = sorted(
                self.rng.uniform(0.0, fault.duration) if fault.duration > 0 else 0.0
                for _ in range(count)
            )
            spec = self.storm_specs.get(fault.target, {})
            self.env.process(
                self._storm(fault.target or "storm", offsets, spec),
                name=f"chaos-storm:{fault.target}",
            )
            return fault.target, (
                f"{count} high-priority arrivals over {fault.duration:.2f}s"
            )
        raise ValueError(f"unknown fault kind {kind!r}")  # pragma: no cover

    def _storm(self, storm_id: str, offsets: List[float], spec: dict) -> Generator:
        """Submit the storm's SharePods at their seeded arrival offsets."""
        from ..workloads.jobs import InferenceJob  # deferred: optional dep of chaos

        start = self.env.now
        for i, offset in enumerate(offsets):
            due = start + offset
            if due > self.env.now:
                yield self.env.timeout(due - self.env.now)
            name = f"{storm_id}-hp-{i}"
            job = InferenceJob.from_demand(
                name,
                demand=spec.get("gpu_request", 0.5),
                duration=spec.get("job_duration", 10.0),
            )
            sp = self.kubeshare.make_sharepod(
                name,
                gpu_request=spec.get("gpu_request", 0.5),
                gpu_limit=1.0,
                gpu_mem=spec.get("gpu_mem", 0.2),
                workload=job.workload(),
                namespace=spec.get("namespace", "default"),
                priority_class=spec.get("priority_class"),
                restart_policy="reschedule",
            )
            try:
                self.kubeshare.submit(sp)
                outcome = "submitted"
            except Exception as err:  # noqa: BLE001 - storm must not crash the sim
                outcome = f"submit failed: {err!r}"
            self.log.append(
                (self.env.now, None, f"{storm_id}/{name}", outcome)
            )

    def _end_latency_window(self, extra: float, duration: float) -> Generator:
        yield self.env.timeout(duration)
        self.cluster.api.extra_latency = max(
            0.0, self.cluster.api.extra_latency - extra
        )

    # -- target resolution -------------------------------------------------
    def _pick_node(
        self,
        target: Optional[str],
        crashed: bool,
        prefer_busy: bool = False,
    ) -> Optional[WorkerNode]:
        if target is not None:
            node = self.cluster.node(target)
            return node if node.crashed == crashed else None
        candidates = sorted(
            (n for n in self.cluster.nodes if n.crashed == crashed),
            key=lambda n: n.name,
        )
        if not candidates:
            return None
        if prefer_busy:
            # Hit where it hurts: the node(s) running the most containers.
            # The runtime's table also keeps exited containers until their
            # pods are deleted, so count only the running ones.
            running = {
                n.name: sum(h.running for h in n.runtime.containers.values())
                for n in candidates
            }
            top = max(running.values())
            if top:
                candidates = [n for n in candidates if running[n.name] == top]
        return self.rng.choice(candidates)

    def _pick_gpu(self, target: Optional[str], failed: bool):
        if target is not None:
            gpu = self.cluster.gpu_by_uuid(target)
            return gpu if gpu.failed == failed else None
        candidates = sorted(
            (g for g in self.cluster.gpus if g.failed == failed),
            key=lambda g: g.uuid,
        )
        return self.rng.choice(candidates) if candidates else None

    def _pick_replica(
        self,
        target: Optional[str],
        want_crashed: bool,
        leaders_only: bool = False,
    ) -> Optional[ControllerReplica]:
        """Resolve *target* — a group name, a replica identity, or None —
        to one registered controller replica in the wanted state.

        With ``target=None`` (or a bare group name) the engine prefers the
        current leader for crash/pause faults — the interesting victim —
        and otherwise draws from sorted candidates with the seeded RNG.
        """
        groups = self.controller_groups
        candidates: List[ControllerReplica] = []
        for name in sorted(groups):
            group = groups[name]
            if target is not None and target != name:
                replica = group.replica(target)
                if replica is not None:
                    candidates = [replica]
                    break
                continue
            candidates.extend(group.replicas)
            if target == name:
                break
        candidates = [
            r
            for r in candidates
            if (r.state is ReplicaState.CRASHED) == want_crashed
        ]
        if not candidates:
            return None
        if not want_crashed:
            leaders = [r for r in candidates if r.state is ReplicaState.LEADER]
            if leaders_only:
                candidates = leaders
            elif leaders:
                candidates = leaders
        if not candidates:
            return None
        candidates.sort(key=lambda r: r.identity)
        return self.rng.choice(candidates)

    def _pick_member(self, target: Optional[str]):
        """Resolve *target* (or pick, seeded) to a live federation member.

        A member already dark or partitioned is not a candidate — hitting
        it again would be a no-op and would burn an RNG draw, perturbing
        replay of the rest of the schedule.
        """
        if self.federation is None:
            return None
        members = self.federation.members
        if target is not None:
            return members.get(target)
        candidates = [
            members[name]
            for name in sorted(members)
            if members[name].api.available and members[name].link.reachable
        ]
        return self.rng.choice(candidates) if candidates else None

    def _pick_container(self, target: Optional[str]):
        """Resolve a pod uid (or pick one) to (node, uid, handle)."""
        entries = []
        for node in sorted(self.cluster.nodes, key=lambda n: n.name):
            if node.crashed:
                continue
            for uid in sorted(node.runtime.containers):
                handle = node.runtime.containers[uid]
                if handle.running:
                    entries.append((node, uid, handle))
        if target is not None:
            for node, uid, handle in entries:
                if uid == target:
                    return node, uid, handle
            return None
        return self.rng.choice(entries) if entries else None
