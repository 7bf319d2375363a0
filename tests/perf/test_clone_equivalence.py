"""The hand-written ``clone()``s must match ``copy.deepcopy``.

``apiserver._clone`` prefers an object's ``clone()`` method, and every
stored kind implements it with explicit field copies instead of
``copy.deepcopy``. These tests pin the contract against a deepcopy
oracle written here: identical field values, no mutable object shared
with the original, and the one deliberate exception — the workload
factory is code, not state, so clone and oracle both share it by
reference.
"""

import copy

import pytest

from repro.cluster.controllers.replicaset import ReplicaSet
from repro.cluster.leaderelection import Lease, LeaseSpec
from repro.cluster.objects import (
    ContainerSpec,
    LabelSelector,
    Node,
    NodeStatus,
    ObjectMeta,
    Pod,
    PodPhase,
    PodSpec,
    PodStatus,
)
from repro.core.sharepod import SharePod, SharePodSpec, SharePodStatus
from repro.obs.kevents import EVENT_WARNING, KubeEvent
from repro.policy.objects import (
    Namespace,
    NamespaceSpec,
    PriorityClass,
    PriorityClassSpec,
)


def _workload(ctx):  # shared-by-reference sentinel
    yield None


def oracle_clone(obj):
    """``copy.deepcopy`` that shares the workload factory, as clones do."""
    return copy.deepcopy(obj, {id(_workload): _workload})


def _template():
    return PodSpec(
        containers=[
            ContainerSpec(
                name="main",
                image="img",
                command=["serve", "--port=80"],
                requests={"cpu": 1.0},
                limits={"cpu": 2.0},
                env={"MODE": "fast"},
            )
        ],
        node_name="node0",
        node_selector={"zone": "a"},
        workload=_workload,
    )


def make_pod():
    return Pod(
        metadata=ObjectMeta(
            name="web-0",
            namespace="prod",
            labels={"app": "web"},
            annotations={"note": "x"},
            owner_references=["rs/web"],
        ),
        spec=_template(),
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


def make_replicaset():
    return ReplicaSet(
        metadata=ObjectMeta(name="web", labels={"app": "web"}),
        replicas=3,
        selector=LabelSelector({"app": "web"}),
        template=_template(),
        template_labels={"app": "web"},
    )


def make_namespace():
    return Namespace(
        metadata=ObjectMeta(name="team-a", labels={"tenant": "a"}),
        spec=NamespaceSpec(gpu_quota=1.5, on_exceeded="reject", sharepod_ttl=60.0),
    )


def make_priorityclass():
    return PriorityClass(
        metadata=ObjectMeta(name="prod"),
        spec=PriorityClassSpec(value=100, preempting=False),
    )


def make_kubeevent():
    return KubeEvent(
        metadata=ObjectMeta(name="sp0.1", namespace="prod"),
        reason="FailedScheduling",
        message="unschedulable",
        type=EVENT_WARNING,
        involved_kind="SharePod",
        involved_namespace="prod",
        involved_name="sp0",
        source="kubeshare-sched",
        count=3,
        first_time=1.0,
        last_time=4.5,
    )


FACTORIES = [
    make_pod,
    make_node,
    make_sharepod,
    make_lease,
    make_replicaset,
    make_namespace,
    make_priorityclass,
    make_kubeevent,
]


def _aliases(orig, dup, path="obj"):
    """Paths at which *dup* shares a mutable object with *orig*."""
    if isinstance(orig, (str, int, float, type(None))) or orig is _workload:
        return []
    if isinstance(orig, tuple):
        pairs = [(f"{path}[{i}]", x, y) for i, (x, y) in enumerate(zip(orig, dup))]
    elif orig is dup:
        return [path]
    elif isinstance(orig, dict):
        pairs = [(f"{path}[{k!r}]", v, dup[k]) for k, v in orig.items()]
    elif isinstance(orig, list):
        pairs = [(f"{path}[{i}]", x, y) for i, (x, y) in enumerate(zip(orig, dup))]
    elif isinstance(orig, set):
        return []  # elements are hashable, hence immutable here
    else:
        pairs = [(f"{path}.{k}", v, getattr(dup, k)) for k, v in vars(orig).items()]
    return [p for sub, x, y in pairs for p in _aliases(x, y, sub)]


@pytest.mark.parametrize("make", FACTORIES, ids=lambda f: f.__name__[5:])
def test_fast_clone_equals_deepcopy_clone(make):
    obj = make()
    dup = obj.clone()
    # Dataclass repr covers every field recursively, so byte-equal reprs
    # mean field-equal objects (uid included: cloning must never draw a
    # fresh one).
    assert repr(dup) == repr(oracle_clone(obj)) == repr(obj)
    assert type(dup) is type(obj) and dup is not obj


@pytest.mark.parametrize("make", FACTORIES, ids=lambda f: f.__name__[5:])
def test_fast_clone_is_deeply_independent(make):
    obj = make()
    assert _aliases(obj, oracle_clone(obj)) == []  # the walker itself
    assert _aliases(obj, obj.clone()) == []
    dup = obj.clone()
    dup.metadata.labels["mutated"] = "yes"
    dup.metadata.owner_references.append("x")
    assert "mutated" not in obj.metadata.labels
    assert "x" not in obj.metadata.owner_references


def test_workload_factory_is_shared_by_reference_in_both_modes():
    """Clone and oracle both keep the factory, and the original keeps it."""
    pod, sp = make_pod(), make_sharepod()
    rs = make_replicaset()
    for clone in (lambda o: o.clone(), oracle_clone):
        assert clone(pod).spec.workload is _workload
        assert clone(sp).spec.pod_spec.workload is _workload
        assert clone(rs).template.workload is _workload
    assert pod.spec.workload is _workload
    assert sp.spec.pod_spec.workload is _workload
