"""Failure injection: device health changes through the plugin framework.

Figure 2a: "Whenever a device state changes or a device disappears, its
device plugin returns the new device list to kubelet", and kubelet
re-advertises node capacity. These tests drive that path end to end.
"""

import pytest

from repro.cluster import Cluster, ClusterConfig
from repro.cluster.deviceplugin import (
    DeviceManager,
    InsufficientDevices,
    NvidiaDevicePlugin,
)
from repro.cluster.objects import (
    GPU_RESOURCE,
    ContainerSpec,
    ObjectMeta,
    Pod,
    PodPhase,
    PodSpec,
)
from repro.core import KubeShare


class TestDeviceManagerHealth:
    def make(self):
        dm = DeviceManager()
        dm.register(NvidiaDevicePlugin(["GPU-a", "GPU-b"]))
        return dm

    def test_unhealthy_device_leaves_free_list(self):
        dm = self.make()
        dm.set_device_health(GPU_RESOURCE, "GPU-a", healthy=False)
        assert dm.free_ids(GPU_RESOURCE) == ["GPU-b"]
        assert dm.capacity()[GPU_RESOURCE] == 1.0
        assert not dm.is_healthy(GPU_RESOURCE, "GPU-a")

    def test_recovery_restores_free_list(self):
        dm = self.make()
        dm.set_device_health(GPU_RESOURCE, "GPU-a", healthy=False)
        dm.set_device_health(GPU_RESOURCE, "GPU-a", healthy=True)
        assert sorted(dm.free_ids(GPU_RESOURCE)) == ["GPU-a", "GPU-b"]
        assert dm.capacity()[GPU_RESOURCE] == 2.0

    def test_unhealthy_while_allocated_withheld_on_release(self):
        dm = self.make()
        resp = dm.allocate("pod1", GPU_RESOURCE, 1)
        held = resp.device_ids[0]
        dm.set_device_health(GPU_RESOURCE, held, healthy=False)
        dm.release_pod("pod1")
        assert held not in dm.free_ids(GPU_RESOURCE)

    def test_unknown_device_rejected(self):
        dm = self.make()
        with pytest.raises(InsufficientDevices):
            dm.set_device_health(GPU_RESOURCE, "GPU-zzz", healthy=False)

    def test_listeners_notified(self):
        dm = self.make()
        events = []
        dm.on_health_change(lambda *a: events.append(a))
        dm.set_device_health(GPU_RESOURCE, "GPU-a", healthy=False)
        assert events == [(GPU_RESOURCE, "GPU-a", False)]

    def test_idempotent_health_updates(self):
        dm = self.make()
        dm.set_device_health(GPU_RESOURCE, "GPU-a", healthy=False)
        dm.set_device_health(GPU_RESOURCE, "GPU-a", healthy=False)
        dm.set_device_health(GPU_RESOURCE, "GPU-a", healthy=True)
        dm.set_device_health(GPU_RESOURCE, "GPU-a", healthy=True)
        assert sorted(dm.free_ids(GPU_RESOURCE)) == ["GPU-a", "GPU-b"]


class TestClusterReactsToHealth:
    def gpu_pod(self, name):
        return Pod(
            metadata=ObjectMeta(name=name),
            spec=PodSpec(
                containers=[ContainerSpec(requests={"cpu": 1, GPU_RESOURCE: 1})],
            ),
        )

    def test_node_capacity_readvertised(self, env):
        cluster = Cluster(env, ClusterConfig(nodes=1, gpus_per_node=2)).start()
        env.run(until=1)
        node = cluster.nodes[0]
        uuid = node.gpus[0].uuid
        node.device_manager.set_device_health(GPU_RESOURCE, uuid, healthy=False)
        env.run(until=2)
        stored = cluster.api.get("Node", "node00", namespace="")
        assert stored.status.capacity[GPU_RESOURCE] == 1.0

    def test_scheduler_respects_shrunk_capacity(self, env):
        cluster = Cluster(env, ClusterConfig(nodes=1, gpus_per_node=1)).start()
        env.run(until=1)
        node = cluster.nodes[0]
        node.device_manager.set_device_health(
            GPU_RESOURCE, node.gpus[0].uuid, healthy=False
        )
        env.run(until=2)
        cluster.submit(self.gpu_pod("wants-gpu"))
        env.run(until=6)
        pod = cluster.api.get("Pod", "wants-gpu")
        assert pod.status.phase is PodPhase.PENDING  # nothing schedulable
        # device recovers: the pod must now get placed
        node.device_manager.set_device_health(
            GPU_RESOURCE, node.gpus[0].uuid, healthy=True
        )
        wait = env.process(cluster.wait_for_phase("wants-gpu", [PodPhase.RUNNING]))
        env.run(until=wait)
        assert cluster.api.get("Pod", "wants-gpu").status.phase is PodPhase.RUNNING

    def test_running_pod_survives_health_loss_until_released(self, env):
        cluster = Cluster(env, ClusterConfig(nodes=1, gpus_per_node=1)).start()
        cluster.submit(self.gpu_pod("holder"))
        wait = env.process(cluster.wait_for_phase("holder", [PodPhase.RUNNING]))
        env.run(until=wait)
        node = cluster.nodes[0]
        node.device_manager.set_device_health(
            GPU_RESOURCE, node.gpus[0].uuid, healthy=False
        )
        env.run(until=env.now + 2)
        assert cluster.api.get("Pod", "holder").status.phase is PodPhase.RUNNING
        # after deletion the broken device must NOT return to the pool
        cluster.api.delete("Pod", "holder")
        env.run(until=env.now + 2)
        assert node.device_manager.free_count(GPU_RESOURCE) == 0


class TestHealthRoundTrip:
    def test_unhealthy_healthy_unhealthy_round_trip(self, env):
        """Full round trip through the kubelet: each flip re-advertises
        capacity and mirrors the sick-device list into node status."""
        cluster = Cluster(env, ClusterConfig(nodes=1, gpus_per_node=2)).start()
        env.run(until=1)
        node = cluster.nodes[0]
        uuid = node.gpus[0].uuid

        def stored():
            return cluster.api.get("Node", "node00", namespace="")

        node.device_manager.set_device_health(GPU_RESOURCE, uuid, healthy=False)
        env.run(until=2)
        assert stored().status.capacity[GPU_RESOURCE] == 1.0
        assert stored().status.unhealthy_gpus == [uuid]

        node.device_manager.set_device_health(GPU_RESOURCE, uuid, healthy=True)
        env.run(until=3)
        assert stored().status.capacity[GPU_RESOURCE] == 2.0
        assert stored().status.unhealthy_gpus == []

        node.device_manager.set_device_health(GPU_RESOURCE, uuid, healthy=False)
        env.run(until=4)
        assert stored().status.capacity[GPU_RESOURCE] == 1.0
        assert stored().status.unhealthy_gpus == [uuid]
        # the flapping device is not handed out while sick
        assert uuid not in node.device_manager.free_ids(GPU_RESOURCE)

    def test_round_trip_restores_schedulability(self, env):
        cluster = Cluster(env, ClusterConfig(nodes=1, gpus_per_node=1)).start()
        env.run(until=1)
        node = cluster.nodes[0]
        uuid = node.gpus[0].uuid
        node.device_manager.set_device_health(GPU_RESOURCE, uuid, healthy=False)
        env.run(until=2)
        node.device_manager.set_device_health(GPU_RESOURCE, uuid, healthy=True)
        env.run(until=3)
        pod = Pod(
            metadata=ObjectMeta(name="after-repair"),
            spec=PodSpec(
                containers=[ContainerSpec(requests={"cpu": 1, GPU_RESOURCE: 1})],
            ),
        )
        cluster.submit(pod)
        wait = env.process(
            cluster.wait_for_phase("after-repair", [PodPhase.RUNNING])
        )
        env.run(until=wait)
        assert cluster.api.get("Pod", "after-repair").status.phase is PodPhase.RUNNING


class TestHealthAcrossOutage:
    @staticmethod
    def train(ctx):
        api = ctx.cuda()
        cu = api.cu_ctx_create()
        try:
            api.cu_mem_alloc(cu, 2 * 2**30)
            yield from api.cu_launch_kernel(cu, 60.0)
        finally:
            api.cu_ctx_destroy(cu)

    def test_health_change_during_outage_lands_after_heal(self, env):
        """The kubelet's Node patch fails inside an apiserver outage and
        nothing repeats the change, so the kubelet patches again on heal:
        the Node then lists the sick GPU, and DevMgr tears the vGPU on it
        down exactly once."""
        cluster = Cluster(env, ClusterConfig(nodes=1, gpus_per_node=2)).start()
        ks = KubeShare(cluster, isolation="token").start()
        ks.submit(ks.make_sharepod(
            "j1", gpu_request=0.5, gpu_limit=1.0, gpu_mem=0.3, workload=self.train,
        ))
        env.run(until=env.process(ks.wait_for_phase("j1", [PodPhase.RUNNING])))
        uuid = ks.get("j1").status.gpu_uuid
        assert len(ks.pool.list()) == 1

        cluster.api.set_outage(3.0)
        heal = cluster.api.down_until
        cluster.nodes[0].device_manager.set_device_health(
            GPU_RESOURCE, uuid, healthy=False
        )
        env.run(until=heal - 0.1)
        assert ks.devmgr.vgpus_torn_down_total == 0  # nothing landed yet

        env.run(until=heal + 10.0)
        node = cluster.api.get("Node", "node00", namespace="")
        assert node.status.unhealthy_gpus == [uuid]
        assert node.status.capacity[GPU_RESOURCE] == 1.0
        assert ks.pool.list() == []
        assert ks.devmgr.vgpus_torn_down_total == 1
