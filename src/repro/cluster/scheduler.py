"""kube-scheduler: assigns pods to nodes.

Implements the stock scheduling workflow the paper describes (§2.1): watch
for unbound pods, *filter* nodes that cannot satisfy the pod's resource
requests or node selector, *score* the survivors (least-allocated), and
*bind*. GPUs here are only aggregate counts per node — the scheduler has no
notion of device identity, which is precisely the limitation (§3.1/§3.2)
KubeShare works around.

Resource accounting is kept incrementally from watch events so each
scheduling attempt is O(nodes); unschedulable pods are retried whenever any
pod frees resources (terminal phase or deletion), matching the real
scheduler's event-driven retry behaviour.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional, Tuple

from ..obs import runtime as obs
from ..sim import Environment
from .apiserver import (
    APIServer,
    Conflict,
    NotFound,
    ServiceUnavailable,
    translate_event,
)
from .controller import WorkQueue
from .etcd import WatchEventType
from .objects import Node, Pod, PodPhase, Quantities

__all__ = ["KubeScheduler"]

_TERMINAL = (PodPhase.SUCCEEDED, PodPhase.FAILED)


class KubeScheduler:
    """The default scheduler (``spec.scheduler_name == name``)."""

    def __init__(
        self,
        env: Environment,
        api: APIServer,
        name: str = "default-scheduler",
        attempt_latency: float = 0.002,
        score: str = "least_allocated",
    ) -> None:
        if score not in ("least_allocated", "most_allocated"):
            raise ValueError(f"unknown scoring policy {score!r}")
        self.env = env
        self.api = api
        self.name = name
        self.attempt_latency = attempt_latency
        self.score_policy = score
        self.queue = WorkQueue(env)
        self._unschedulable: set[str] = set()
        #: node name -> free quantities (capacity minus committed requests)
        self._node_free: Dict[str, Dict[str, float]] = {}
        #: node name -> last observed allocatable (to diff capacity changes)
        self._node_allocatable: Dict[str, Dict[str, float]] = {}
        self._node_labels: Dict[str, Dict[str, str]] = {}
        self._node_ready: Dict[str, bool] = {}
        #: pod uid -> (node, requests) currently accounted
        self._accounted: Dict[str, Tuple[str, Dict[str, float]]] = {}
        self.binds_total = 0
        self.attempts_total = 0

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> "KubeScheduler":
        self.api.watch("Node", replay=True, deliver=self._on_node)
        self.api.watch("Pod", replay=True, deliver=self._on_pod)
        self.env.process(self._worker(), name=f"{self.name}:loop")
        return self

    # -- watches (callbacks inside the etcd commit) ---------------------------
    def _on_node(self, raw) -> None:
        etype, node = translate_event(raw)
        if node is None:
            return
        if etype is WatchEventType.DELETE:
            self._node_free.pop(node.name, None)
            self._node_allocatable.pop(node.name, None)
            self._node_ready.pop(node.name, None)
            return
        allocatable = dict(node.status.allocatable)
        if node.name not in self._node_free:
            self._node_free[node.name] = dict(allocatable)
        elif allocatable != self._node_allocatable.get(node.name):
            # Capacity changed (e.g. a device went unhealthy):
            # apply the delta on top of committed requests.
            delta = Quantities.sub(allocatable, self._node_allocatable[node.name])
            self._node_free[node.name] = Quantities.add(self._node_free[node.name], delta)
        self._node_allocatable[node.name] = allocatable
        self._node_labels[node.name] = dict(node.metadata.labels)
        self._node_ready[node.name] = node.status.ready
        self._retry_unschedulable()

    def _on_pod(self, raw) -> None:
        etype, pod = translate_event(raw)
        if pod is None:
            return
        freed = self._account(etype, pod)
        if freed:
            self._retry_unschedulable()
        if (
            etype is not WatchEventType.DELETE
            and not pod.bound
            and pod.status.phase is PodPhase.PENDING
            and pod.spec.scheduler_name == self.name
        ):
            self.queue.add(pod.metadata.key)

    def _account(self, etype: WatchEventType, pod: Pod) -> bool:
        """Update committed-resource bookkeeping; True if resources freed."""
        uid = pod.metadata.uid
        if etype is WatchEventType.DELETE or pod.status.phase in _TERMINAL:
            entry = self._accounted.pop(uid, None)
            if entry is not None:
                node, requests = entry
                if node in self._node_free:
                    self._node_free[node] = Quantities.add(
                        self._node_free[node], requests
                    )
                return True
            return False
        if pod.bound and uid not in self._accounted:
            requests = pod.spec.resource_requests()
            self._accounted[uid] = (pod.spec.node_name, requests)
            if pod.spec.node_name in self._node_free:
                self._node_free[pod.spec.node_name] = Quantities.sub(
                    self._node_free[pod.spec.node_name], requests
                )
        return False

    def _retry_unschedulable(self) -> None:
        for key in sorted(self._unschedulable):
            self.queue.add(key)

    # -- scheduling loop -----------------------------------------------------------
    def _worker(self) -> Generator:
        while True:
            key = yield self.queue.get()
            self.queue.checkout(key)
            namespace, name = key.split("/", 1)
            try:
                pod = self.api.get("Pod", name, namespace)
            except ServiceUnavailable:
                self.queue.done(key)
                if (yield from self.api.until_available()):
                    self.queue.add(key)
                continue
            self.queue.done(key)
            if pod is None or pod.bound or pod.status.phase is not PodPhase.PENDING:
                self._unschedulable.discard(key)
                continue
            yield self.env.timeout(self.attempt_latency + self.api.extra_latency)
            self.attempts_total += 1
            node = self._select_node(pod)
            if node is None:
                if key not in self._unschedulable:
                    obs.event(
                        "FailedScheduling",
                        "no node satisfies the pod's resource requests",
                        involved_kind="Pod",
                        involved_name=name,
                        involved_namespace=namespace,
                        type="Warning",
                        source=self.name,
                    )
                self._unschedulable.add(key)
                continue
            try:
                self.api.bind(name, node, namespace)
            except (Conflict, NotFound):
                continue
            except ServiceUnavailable:
                if (yield from self.api.until_available()):
                    self.queue.add(key)
                continue
            self.binds_total += 1
            self._unschedulable.discard(key)
            obs.instant(
                "bind", self.name, trace_id=key, pod=name, node=node
            )
            obs.event(
                "Scheduled",
                f"assigned to {node}",
                involved_kind="Pod",
                involved_name=name,
                involved_namespace=namespace,
                source=self.name,
            )

    # -- filter & score ---------------------------------------------------------------
    def _select_node(self, pod: Pod) -> Optional[str]:
        requests = pod.spec.resource_requests()
        selector = pod.spec.node_selector
        node_ready = self._node_ready
        node_labels = self._node_labels
        req_items = list(requests.items())
        # least_allocated prefers the node with the most leftover GPU, then
        # CPU; most_allocated (bin-packing) inverts the preference.
        req_gpu = sum(v for k, v in req_items if "/" in k)
        req_cpu = requests.get("cpu", 0.0)
        least = self.score_policy == "least_allocated"
        feasible: List[Tuple[float, str]] = []
        for node, free in self._node_free.items():
            if not node_ready.get(node, False):
                continue
            if selector:
                labels = node_labels.get(node, {})
                if any(labels.get(k) != v for k, v in selector.items()):
                    continue
            free_get = free.get
            for k, v in req_items:  # Quantities.fits, loop-inlined
                if free_get(k, 0.0) + 1e-9 < v:
                    break
            else:
                gpu_left = sum(v for k, v in free.items() if "/" in k) - req_gpu
                cpu_left = free_get("cpu", 0.0) - req_cpu
                score = gpu_left * 1e3 + cpu_left
                feasible.append((score if least else -score, node))
        if not feasible:
            return None
        # Highest score wins; ties broken by node name for determinism.
        feasible.sort(key=lambda t: (-t[0], t[1]))
        return feasible[0][1]
