"""The hand-written fast clones must match the deepcopy reference path.

``apiserver._clone`` prefers an object's ``clone()`` method; on the fast
path Pod/Node/SharePod/Lease implement it with explicit field copies
instead of ``copy.deepcopy``. These tests pin the contract: identical
field values, deep independence of every mutable field, and the one
deliberate exception — the workload factory is shared by reference in
both modes (deepcopy nulls it out around the copy for the same reason).
"""

import pytest

from repro.cluster.leaderelection import Lease, LeaseSpec
from repro.cluster.objects import (
    ContainerSpec,
    Node,
    NodeStatus,
    ObjectMeta,
    Pod,
    PodPhase,
    PodSpec,
    PodStatus,
)
from repro.core.sharepod import SharePod, SharePodSpec, SharePodStatus
from repro.perf import fastpath


def _workload(ctx):  # shared-by-reference sentinel
    yield None


def make_pod():
    return Pod(
        metadata=ObjectMeta(
            name="web-0",
            namespace="prod",
            labels={"app": "web"},
            annotations={"note": "x"},
            owner_references=["rs/web"],
        ),
        spec=PodSpec(
            containers=[
                ContainerSpec(name="main", image="img", requests={"cpu": 1.0})
            ],
            node_name="node0",
            node_selector={"zone": "a"},
            workload=_workload,
        ),
        status=PodStatus(
            phase=PodPhase.RUNNING,
            message="ok",
            start_time=1.5,
            container_env={"NVIDIA_VISIBLE_DEVICES": "GPU-0"},
        ),
    )


def make_node():
    return Node(
        metadata=ObjectMeta(name="node0", labels={"zone": "a"}),
        status=NodeStatus(
            capacity={"cpu": 8.0},
            allocatable={"cpu": 6.0},
            ready=True,
            unhealthy_gpus=["GPU-7"],
        ),
    )


def make_sharepod():
    return SharePod(
        metadata=ObjectMeta(name="sp0", labels={"tier": "inference"}),
        spec=SharePodSpec(
            pod_spec=PodSpec(workload=_workload),
            gpu_request=0.3,
            gpu_limit=0.6,
            gpu_mem=0.25,
            gpu_id="vgpu-1",
            node_name="node0",
            sched_affinity="blue",
            restart_policy="reschedule",
        ),
        status=SharePodStatus(
            phase=PodPhase.RUNNING,
            gpu_uuid="GPU-1",
            pod_name="vgpu-holder-1",
            start_time=3.0,
            scheduled_time=2.0,
        ),
    )


def make_lease():
    return Lease(
        metadata=ObjectMeta(name="kubeshare-sched", namespace="kube-system"),
        spec=LeaseSpec(
            holder="replica-0",
            lease_duration=3.0,
            acquire_time=1.0,
            renew_time=9.0,
            epoch=4,
        ),
    )


FACTORIES = [make_pod, make_node, make_sharepod, make_lease]


@pytest.mark.parametrize("make", FACTORIES, ids=lambda f: f.__name__[5:])
def test_fast_clone_equals_deepcopy_clone(make):
    obj = make()
    with fastpath.force(False):
        fast = obj.clone()
    with fastpath.force(True):
        slow = obj.clone()
    # Dataclass repr covers every field recursively, so byte-equal reprs
    # mean field-equal objects (uid included: cloning must never draw a
    # fresh one).
    assert repr(fast) == repr(slow) == repr(obj)
    assert fast is not obj and slow is not obj


@pytest.mark.parametrize("make", FACTORIES, ids=lambda f: f.__name__[5:])
def test_fast_clone_is_deeply_independent(make):
    obj = make()
    with fastpath.force(False):
        dup = obj.clone()
    assert dup.metadata is not obj.metadata
    dup.metadata.labels["mutated"] = "yes"
    dup.metadata.owner_references.append("x")
    assert "mutated" not in obj.metadata.labels
    assert "x" not in obj.metadata.owner_references
    if hasattr(dup, "status"):
        assert dup.status is not obj.status
    if hasattr(dup, "spec"):
        assert dup.spec is not obj.spec


def test_workload_factory_is_shared_by_reference_in_both_modes():
    pod, sp = make_pod(), make_sharepod()
    with fastpath.force(False):
        assert pod.clone().spec.workload is _workload
        assert sp.clone().spec.pod_spec.workload is _workload
    with fastpath.force(True):
        assert pod.clone().spec.workload is _workload
        assert sp.clone().spec.pod_spec.workload is _workload
        # deepcopy nulls the factory only around the copy — the original
        # must get it back even on the reference path.
        assert pod.spec.workload is _workload
        assert sp.spec.pod_spec.workload is _workload
