"""Tests for the Deployment controller (rolling updates over ReplicaSets)."""

import pytest

from repro.cluster import Cluster, ClusterConfig
from repro.cluster.apiserver import APIServer
from repro.cluster.controllers import (
    Deployment,
    DeploymentController,
    ReplicaSetController,
)
from repro.cluster.objects import (
    ContainerSpec,
    LabelSelector,
    ObjectMeta,
    Pod,
    PodPhase,
    PodSpec,
)


@pytest.fixture
def stack(env):
    cluster = Cluster(env, ClusterConfig(nodes=2, gpus_per_node=2)).start()
    ReplicaSetController(env, cluster.api).start()
    DeploymentController(env, cluster.api).start()
    return cluster


def make_deploy(name="web", replicas=3):
    return Deployment(
        metadata=ObjectMeta(name=name),
        replicas=replicas,
        selector=LabelSelector({"app": name}),
        template=PodSpec(containers=[ContainerSpec(requests={"cpu": 0.5})]),
        template_labels={"app": name},
    )


def live_pods(cluster, app, revision=None):
    out = []
    for p in cluster.api.pods():
        if p.metadata.labels.get("app") != app:
            continue
        if revision is not None and p.metadata.labels.get("revision") != str(revision):
            continue
        if p.status.phase in (PodPhase.PENDING, PodPhase.RUNNING):
            out.append(p)
    return out


class TestDeployment:
    def test_creates_replicaset_and_pods(self, env, stack):
        stack.api.create(make_deploy(replicas=3))
        env.run(until=10)
        assert len(stack.api.list("ReplicaSet")) == 1
        assert len(live_pods(stack, "web")) == 3

    def test_scale_up_and_down(self, env, stack):
        stack.api.create(make_deploy(replicas=2))
        env.run(until=10)
        stack.api.patch("Deployment", "web", lambda d: setattr(d, "replicas", 4))
        env.run(until=20)
        assert len(live_pods(stack, "web")) == 4
        stack.api.patch("Deployment", "web", lambda d: setattr(d, "replicas", 1))
        env.run(until=30)
        assert len(live_pods(stack, "web")) == 1

    def test_rolling_update_replaces_revision(self, env, stack):
        stack.api.create(make_deploy(replicas=3))
        env.run(until=10)
        stack.api.patch("Deployment", "web", lambda d: setattr(d, "revision", 2))
        env.run(until=40)
        assert len(live_pods(stack, "web", revision=2)) == 3
        assert len(live_pods(stack, "web", revision=1)) == 0
        # old revision's ReplicaSet garbage-collected
        names = [rs.metadata.name for rs in stack.api.list("ReplicaSet")]
        assert names == ["web-rev2"]

    def test_rolling_update_never_drops_below_n_minus_1(self, env, stack):
        stack.api.create(make_deploy(replicas=3))
        env.run(until=10)
        stack.api.patch("Deployment", "web", lambda d: setattr(d, "revision", 2))
        low_water = []

        def monitor():
            while env.now < 40:
                low_water.append(len(live_pods(stack, "web")))
                yield env.timeout(0.5)

        env.process(monitor())
        env.run(until=40)
        assert min(low_water) >= 2  # replicas - 1

    def test_deleting_deployment_cleans_up(self, env, stack):
        stack.api.create(make_deploy(replicas=2))
        env.run(until=10)
        stack.api.delete("Deployment", "web")
        env.run(until=20)
        assert stack.api.list("ReplicaSet") == []
        assert live_pods(stack, "web") == []


class TestStop:
    """``stop()`` closes the owner watches with the informers, and
    ``start()`` subscribes each once again."""

    PREFIXES = ("/registry/Pod/", "/registry/ReplicaSet/", "/registry/Deployment/")

    def test_stopped_controllers_leave_no_subscriber(self, env):
        api = APIServer(env)
        rs = ReplicaSetController(env, api).start()
        deploy = DeploymentController(env, api).start()
        # Pods: the ReplicaSet owner watch. ReplicaSets: the ReplicaSet
        # informer and the Deployment owner watch. Deployments: its informer.
        assert [len(api.etcd.watchers(p)) for p in self.PREFIXES] == [1, 2, 1]
        rs.stop()
        deploy.stop()
        assert [api.etcd.watchers(p) for p in self.PREFIXES] == [[], [], []]
        owned = Pod(metadata=ObjectMeta(name="p", owner_references=["default/web"]))
        api.create(owned)
        assert len(rs.queue) == 0 and len(deploy.queue) == 0
        rs.start()
        deploy.start()
        assert [len(api.etcd.watchers(p)) for p in self.PREFIXES] == [1, 2, 1]
