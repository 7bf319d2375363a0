"""Quota admission: reject or queue SharePods that would exceed the
namespace's concurrent GPU quota."""

import pytest

from repro.cluster import Cluster, ClusterConfig
from repro.core import KubeShare
from repro.policy import AdmissionDenied, PolicyConfig
from repro.policy.objects import ANN_QUEUED

from .conftest import train


@pytest.fixture
def stack(env):
    cluster = Cluster(env, ClusterConfig(nodes=2, gpus_per_node=2)).start()
    ks = KubeShare(cluster, contention=PolicyConfig()).start()
    return cluster, ks


def submit(ks, name, request=0.5, namespace="default", workload=None):
    return ks.submit(
        ks.make_sharepod(
            name,
            gpu_request=request,
            gpu_limit=1.0,
            gpu_mem=0.2,
            workload=workload,
            namespace=namespace,
        )
    )


class TestRejectMode:
    def test_over_quota_create_is_refused(self, stack):
        cluster, ks = stack
        ks.policy_layer.create_namespace("t1", gpu_quota=0.5, on_exceeded="reject")
        submit(ks, "a", request=0.5, namespace="t1")
        with pytest.raises(AdmissionDenied):
            submit(ks, "b", request=0.5, namespace="t1")
        assert ks.get("b", namespace="t1") is None  # nothing persisted

    def test_within_quota_admitted(self, stack):
        cluster, ks = stack
        ks.policy_layer.create_namespace("t1", gpu_quota=1.0, on_exceeded="reject")
        submit(ks, "a", request=0.5, namespace="t1")
        submit(ks, "b", request=0.5, namespace="t1")  # exactly at quota

    def test_other_namespaces_unaffected(self, stack):
        cluster, ks = stack
        ks.policy_layer.create_namespace("t1", gpu_quota=0.4, on_exceeded="reject")
        submit(ks, "a", request=0.4, namespace="t1")
        submit(ks, "free", request=0.9)  # default ns has no Namespace object

    def test_terminal_sharepods_do_not_count(self, stack):
        cluster, ks = stack
        env = cluster.env
        ks.policy_layer.create_namespace("t1", gpu_quota=0.5, on_exceeded="reject")
        submit(ks, "a", request=0.5, namespace="t1", workload=train(0.5))
        done = env.process(ks.wait_all_terminal(["a"], namespace="t1"))
        env.run(until=done)
        submit(ks, "b", request=0.5, namespace="t1")  # a is terminal now


class TestQueueMode:
    def test_over_quota_create_is_parked(self, stack):
        cluster, ks = stack
        ks.policy_layer.create_namespace("t1", gpu_quota=0.5, on_exceeded="queue")
        submit(ks, "a", request=0.5, namespace="t1")
        submit(ks, "b", request=0.5, namespace="t1")
        b = ks.get("b", namespace="t1")
        assert ANN_QUEUED in b.metadata.annotations

    def test_parking_leaves_the_callers_object_alone(self, stack):
        """Admission annotates the server's copy, not the submitted object."""
        cluster, ks = stack
        ks.policy_layer.create_namespace("t1", gpu_quota=0.5, on_exceeded="queue")
        submit(ks, "a", request=0.5, namespace="t1")
        b = ks.make_sharepod("b", gpu_request=0.5, gpu_limit=1.0, gpu_mem=0.2, namespace="t1")
        stored = ks.submit(b)
        assert ANN_QUEUED in stored.metadata.annotations
        assert ANN_QUEUED not in b.metadata.annotations

    def test_scheduler_skips_parked_sharepods(self, stack):
        cluster, ks = stack
        ks.policy_layer.create_namespace("t1", gpu_quota=0.5, on_exceeded="queue")
        submit(ks, "a", request=0.5, namespace="t1", workload=train(20.0))
        submit(ks, "b", request=0.5, namespace="t1", workload=train(1.0))
        cluster.env.run(until=3.0)
        b = ks.get("b", namespace="t1")
        assert ANN_QUEUED in b.metadata.annotations
        assert b.spec.gpu_id is None  # never scheduled while parked

    def test_queued_sharepod_released_when_capacity_frees(self, stack):
        cluster, ks = stack
        env = cluster.env
        ks.policy_layer.create_namespace("t1", gpu_quota=0.5, on_exceeded="queue")
        submit(ks, "a", request=0.5, namespace="t1", workload=train(1.0))
        submit(ks, "b", request=0.5, namespace="t1", workload=train(1.0))
        done = env.process(ks.wait_all_terminal(["a", "b"], namespace="t1"))
        env.run(until=done)
        assert ks.get("b", namespace="t1").status.phase.value == "Succeeded"

    def test_unqueue_is_strict_fifo(self, stack):
        cluster, ks = stack
        env = cluster.env
        ks.policy_layer.create_namespace("t1", gpu_quota=1.0, on_exceeded="queue")
        submit(ks, "a", request=1.0, namespace="t1", workload=train(2.0))
        env.run(until=0.5)
        # big queued first, then a small one that WOULD fit once a little
        # capacity frees — it must still wait behind the big job.
        submit(ks, "big", request=1.0, namespace="t1", workload=train(1.0))
        env.run(until=0.6)
        submit(ks, "small", request=0.2, namespace="t1", workload=train(1.0))
        done = env.process(
            ks.wait_all_terminal(["a", "big", "small"], namespace="t1")
        )
        env.run(until=done)
        big = ks.get("big", namespace="t1")
        small = ks.get("small", namespace="t1")
        assert big.status.start_time <= small.status.start_time
