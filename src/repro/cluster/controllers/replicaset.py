"""ReplicaSet: keep N replicas of a pod template running.

Included for two reasons: it demonstrates the controller framework the way
the paper describes controllers (§2.1, "ReplicationController ensures the
specified number of pod replicas are running at any one time"), and it
backs the §4.6 compatibility claim — a higher-level controller can manage
*sharePods* just by swapping the kind it creates, which
``examples/replicated_inference.py`` exercises end-to-end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Generator, List, Optional

from ...sim import Environment
from ..apiserver import AlreadyExists, APIServer, NotFound, translate_event
from ..controller import Controller
from ..objects import LabelSelector, ObjectMeta, Pod, PodPhase, PodSpec

__all__ = ["ReplicaSet", "ReplicaSetController"]


@dataclass
class ReplicaSet:
    """Desired state: *replicas* pods matching *selector* from *template*."""

    metadata: ObjectMeta
    replicas: int = 1
    selector: LabelSelector = field(default_factory=LabelSelector)
    template: PodSpec = field(default_factory=PodSpec)
    #: template labels stamped onto created pods.
    template_labels: dict = field(default_factory=dict)

    kind = "ReplicaSet"

    def clone(self) -> "ReplicaSet":
        return ReplicaSet(
            metadata=self.metadata.clone(),
            replicas=self.replicas,
            selector=LabelSelector(self.selector.match_labels),
            template=self.template.clone(),
            template_labels=dict(self.template_labels),
        )


class ReplicaSetController(Controller):
    """Reconciles ReplicaSet objects against the live pod population.

    ``pod_factory`` lets the replica be something other than a native pod —
    KubeShare integration passes a factory that creates SharePods instead
    (§4.6: "any higher level controllers can seamlessly integrate ... by
    requesting a sharePod instead of the native pod").
    """

    kind = "ReplicaSet"

    def __init__(
        self,
        env: Environment,
        api: APIServer,
        pod_factory: Optional[Callable[[ReplicaSet, str], Any]] = None,
    ) -> None:
        api.register_crd("ReplicaSet")
        super().__init__(env, api)
        self._pod_factory = pod_factory or self._native_pod
        self._counter = 0

    def start(self) -> "ReplicaSetController":
        super().start()
        # Changes to owned pods must retrigger the owning ReplicaSet.
        self._watches.append(self.api.watch("Pod", replay=True, deliver=self._on_pod))
        return self

    def _on_pod(self, raw) -> None:
        _etype, pod = translate_event(raw)
        if pod is None:
            return
        for owner in pod.metadata.owner_references:
            self.queue.add(owner)

    @staticmethod
    def _native_pod(rs: ReplicaSet, name: str) -> Pod:
        pod = Pod(
            metadata=ObjectMeta(name=name, namespace=rs.metadata.namespace),
            spec=rs.template.clone(),
        )
        pod.metadata.labels = dict(rs.template_labels)
        pod.metadata.owner_references = [rs.metadata.key]
        return pod

    def _owned_pods(self, rs: ReplicaSet) -> List[Any]:
        """Live replicas owned by *rs* — native pods or sharePods alike."""
        kinds = ["Pod"] + (["SharePod"] if "SharePod" in self.api.kinds else [])
        out: List[Any] = []
        for kind in kinds:
            for p in self.api.list(kind, rs.metadata.namespace):
                if rs.metadata.key in p.metadata.owner_references and p.status.phase in (
                    PodPhase.PENDING,
                    PodPhase.RUNNING,
                ):
                    out.append(p)
        return out

    def reconcile(self, key: str) -> Generator:
        namespace, name = key.split("/", 1)
        rs = self.api.get("ReplicaSet", name, namespace)
        if rs is None:
            # ReplicaSet deleted: garbage-collect owned pods.
            for pod in self.api.list("Pod", namespace):
                if key in pod.metadata.owner_references:
                    self.api.try_delete("Pod", pod.name, namespace)
            return
            yield  # pragma: no cover

        owned = self._owned_pods(rs)
        diff = rs.replicas - len(owned)
        if diff > 0:
            for _ in range(diff):
                self._counter += 1
                replica = self._pod_factory(rs, f"{name}-{self._counter:04d}")
                try:
                    self.api.create(replica)
                except AlreadyExists:  # pragma: no cover - name race
                    continue
        elif diff < 0:
            # Scale down: newest first (stable, deterministic).
            for pod in sorted(owned, key=lambda p: p.metadata.name)[diff:]:
                try:
                    self.api.delete(pod.kind, pod.metadata.name, namespace)
                except NotFound:  # pragma: no cover
                    pass
        return
        yield  # pragma: no cover - reconcile is a generator by contract
