"""Node lifecycle: heartbeats, NotReady detection, and pod eviction."""

import pytest

from repro.cluster import Cluster, ClusterConfig
from repro.cluster.objects import ContainerSpec, ObjectMeta, Pod, PodPhase, PodSpec


def cpu_pod(name):
    return Pod(
        metadata=ObjectMeta(name=name),
        spec=PodSpec(containers=[ContainerSpec(requests={"cpu": 1})]),
    )


def get_node(cluster, name):
    return cluster.api.get("Node", name, namespace="")


def renewed_at(cluster, name):
    return cluster.api.node_leases[name].renewed_at(cluster.env.now)


class TestHeartbeats:
    def test_kubelet_renews_lease(self, env):
        cluster = Cluster(env, ClusterConfig(nodes=1)).start()
        env.run(until=5.0)
        assert renewed_at(cluster, "node00") == pytest.approx(5.0, abs=1.1)
        assert get_node(cluster, "node00").status.ready

    def test_crashed_kubelet_goes_silent(self, env):
        cluster = Cluster(env, ClusterConfig(nodes=2)).start()
        env.run(until=3.0)
        cluster.nodes[0].crash()
        env.run(until=10.0)
        silent = renewed_at(cluster, "node00")
        live = renewed_at(cluster, "node01")
        assert silent <= 3.0
        assert live == pytest.approx(10.0, abs=1.1)


class TestNotReadyAndEviction:
    def test_stale_lease_marks_not_ready_and_evicts(self, env):
        cluster = Cluster(env, ClusterConfig(nodes=2)).start()
        cluster.submit(cpu_pod("p1"))
        wait = env.process(cluster.wait_for_phase("p1", [PodPhase.RUNNING]))
        env.run(until=wait)
        pod = cluster.api.get("Pod", "p1")
        victim = cluster.node(pod.spec.node_name)
        t_crash = env.now
        victim.crash()

        # lease_duration (4 s) + a monitor tick: NotReady, pod evicted.
        env.run(until=t_crash + 6.0)
        assert not get_node(cluster, victim.name).status.ready
        assert cluster.api.get("Pod", "p1") is None
        assert cluster.node_lifecycle.not_ready_total == 1
        assert cluster.node_lifecycle.evicted_pods_total == 1

    def test_restarted_node_becomes_ready_again(self, env):
        cluster = Cluster(env, ClusterConfig(nodes=2)).start()
        env.run(until=2.0)
        cluster.nodes[0].crash()
        env.run(until=10.0)
        assert not get_node(cluster, "node00").status.ready
        env.process(cluster.nodes[0].restart())
        env.run(until=14.0)
        assert get_node(cluster, "node00").status.ready

    def test_scheduler_avoids_not_ready_node(self, env):
        cluster = Cluster(env, ClusterConfig(nodes=2)).start()
        env.run(until=2.0)
        cluster.nodes[0].crash()
        env.run(until=8.0)
        cluster.submit(cpu_pod("p1"))
        wait = env.process(cluster.wait_for_phase("p1", [PodPhase.RUNNING]))
        env.run(until=wait)
        assert cluster.api.get("Pod", "p1").spec.node_name == "node01"

    def test_quorum_loss_pauses_eviction(self, env):
        """When most leases look stale at once, suspect the control plane:
        mark NotReady but do not mass-evict."""
        cluster = Cluster(env, ClusterConfig(nodes=3)).start()
        cluster.submit(cpu_pod("p1"))
        wait = env.process(cluster.wait_for_phase("p1", [PodPhase.RUNNING]))
        env.run(until=wait)
        for node in cluster.nodes:
            node.crash()
        env.run(until=env.now + 8.0)
        assert all(
            not get_node(cluster, n.name).status.ready for n in cluster.nodes
        )
        assert cluster.node_lifecycle.evicted_pods_total == 0
        assert cluster.api.get("Pod", "p1") is not None

    def test_eviction_resumes_when_quorum_returns(self, env):
        cluster = Cluster(env, ClusterConfig(nodes=3)).start()
        cluster.submit(cpu_pod("p1"))
        wait = env.process(cluster.wait_for_phase("p1", [PodPhase.RUNNING]))
        env.run(until=wait)
        pod = cluster.api.get("Pod", "p1")
        for node in cluster.nodes:
            node.crash()
        env.run(until=env.now + 8.0)
        assert cluster.api.get("Pod", "p1") is not None  # eviction held
        # two of three nodes come back: quorum restored, the third's pods go
        for node in cluster.nodes:
            if node.name != pod.spec.node_name:
                env.process(node.restart())
        env.run(until=env.now + 8.0)
        assert cluster.api.get("Pod", "p1") is None
        assert cluster.node_lifecycle.evicted_pods_total == 1

    def test_node_lifecycle_disabled(self, env):
        """The no-recovery control: a dead node is never marked NotReady
        and nothing is evicted."""
        cluster = Cluster(
            env, ClusterConfig(nodes=2, node_lifecycle=False)
        ).start()
        cluster.submit(cpu_pod("p1"))
        wait = env.process(cluster.wait_for_phase("p1", [PodPhase.RUNNING]))
        env.run(until=wait)
        pod = cluster.api.get("Pod", "p1")
        cluster.node(pod.spec.node_name).crash()
        env.run(until=env.now + 15.0)
        assert cluster.node_lifecycle is None
        assert get_node(cluster, pod.spec.node_name).status.ready
        assert cluster.api.get("Pod", "p1") is not None
