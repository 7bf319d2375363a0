"""Tests for the ReplicaSet controller, including SharePod replicas (§4.6)."""

import pytest

from repro.cluster import Cluster, ClusterConfig
from repro.cluster.apiserver import APIServer
from repro.cluster.controllers import ReplicaSet, ReplicaSetController
from repro.cluster.objects import (
    ContainerSpec,
    LabelSelector,
    ObjectMeta,
    Pod,
    PodPhase,
    PodSpec,
)
from repro.core import KubeShare
from repro.core.sharepod import SharePod, SharePodSpec


@pytest.fixture
def rs_cluster(env):
    cluster = Cluster(env, ClusterConfig(nodes=2, gpus_per_node=2)).start()
    controller = ReplicaSetController(env, cluster.api).start()
    return cluster, controller


def make_rs(name="web", replicas=3):
    return ReplicaSet(
        metadata=ObjectMeta(name=name),
        replicas=replicas,
        selector=LabelSelector({"app": name}),
        template=PodSpec(containers=[ContainerSpec(requests={"cpu": 0.5})]),
        template_labels={"app": name},
    )


class TestReplicaSet:
    def test_scales_up_to_desired(self, env, rs_cluster):
        cluster, _ = rs_cluster
        cluster.api.create(make_rs(replicas=3))
        env.run(until=5)
        pods = [p for p in cluster.api.pods() if p.metadata.labels.get("app") == "web"]
        assert len(pods) == 3

    def test_replaces_finished_pods(self, env, rs_cluster):
        cluster, _ = rs_cluster
        cluster.api.create(make_rs(replicas=2))
        env.run(until=5)
        victim = next(p for p in cluster.api.pods() if p.metadata.labels)
        cluster.api.delete("Pod", victim.name)
        env.run(until=10)
        live = [
            p
            for p in cluster.api.pods()
            if p.metadata.labels.get("app") == "web"
            and p.status.phase in (PodPhase.PENDING, PodPhase.RUNNING)
        ]
        assert len(live) == 2

    def test_scales_down(self, env, rs_cluster):
        cluster, _ = rs_cluster
        cluster.api.create(make_rs(replicas=3))
        env.run(until=5)
        cluster.api.patch("ReplicaSet", "web", lambda rs: setattr(rs, "replicas", 1))
        env.run(until=10)
        live = [
            p
            for p in cluster.api.pods()
            if p.metadata.labels.get("app") == "web"
            and p.status.phase in (PodPhase.PENDING, PodPhase.RUNNING)
        ]
        assert len(live) == 1

    def test_deleting_rs_garbage_collects_pods(self, env, rs_cluster):
        cluster, _ = rs_cluster
        cluster.api.create(make_rs(replicas=2))
        env.run(until=5)
        cluster.api.delete("ReplicaSet", "web")
        env.run(until=10)
        owned = [p for p in cluster.api.pods() if p.metadata.owner_references]
        assert owned == []


class TestSharePodReplicas:
    """§4.6: higher-level controllers integrate by creating sharePods."""

    def test_replicated_sharepods(self, env):
        cluster = Cluster(env, ClusterConfig(nodes=1, gpus_per_node=2)).start()
        ks = KubeShare(cluster, isolation="token").start()

        def sharepod_factory(rs, name):
            sp = SharePod(
                metadata=ObjectMeta(name=name, namespace=rs.metadata.namespace),
                spec=SharePodSpec(gpu_request=0.3, gpu_limit=0.6, gpu_mem=0.2),
            )
            sp.metadata.labels = dict(rs.template_labels)
            sp.metadata.owner_references = [rs.metadata.key]
            return sp

        controller = ReplicaSetController(
            env, cluster.api, pod_factory=sharepod_factory
        ).start()
        cluster.api.create(make_rs(name="serve", replicas=2))
        env.run(until=15)
        sharepods = [
            sp
            for sp in cluster.api.list("SharePod")
            if sp.metadata.labels.get("app") == "serve"
        ]
        assert len(sharepods) == 2
        assert all(sp.status.phase is PodPhase.RUNNING for sp in sharepods)
        # both replicas share the same physical GPU (requests 0.3 + 0.3)
        uuids = {sp.status.gpu_uuid for sp in sharepods}
        assert len(uuids) == 1


class TestStop:
    """``stop()`` closes the owner watch with the informer, and
    ``start()`` subscribes each once again."""

    PREFIXES = ("/registry/Pod/", "/registry/ReplicaSet/")

    def test_stopped_controller_leaves_no_subscriber(self, env):
        api = APIServer(env)
        rs = ReplicaSetController(env, api).start()
        # Pods: the owner watch. ReplicaSets: the informer.
        assert [len(api.etcd.watchers(p)) for p in self.PREFIXES] == [1, 1]
        rs.stop()
        assert [api.etcd.watchers(p) for p in self.PREFIXES] == [[], []]
        owned = Pod(metadata=ObjectMeta(name="p", owner_references=["default/web"]))
        api.create(owned)
        assert len(rs.queue) == 0
        rs.start()
        assert [len(api.etcd.watchers(p)) for p in self.PREFIXES] == [1, 1]
