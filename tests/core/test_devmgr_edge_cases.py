"""Edge-case tests for KubeShare-DevMgr and KubeShare-Sched controllers."""

import pytest

from repro.cluster import Cluster, ClusterConfig
from repro.cluster.etcd import WatchEventType
from repro.cluster.objects import PodPhase
from repro.core import HybridPolicy, KubeShare, ReservationPolicy
from repro.core.devmgr import PLACEHOLDER_PREFIX, KubeShareDevMgr
from repro.core.scheduler import build_device_views
from repro.core.sharepod import SharePod, SharePodSpec
from repro.core.vgpu import placeholder_gpuid
from repro.cluster.objects import ObjectMeta
from repro.perf import scenarios
from repro.sim import Environment

TERMINAL = (PodPhase.SUCCEEDED, PodPhase.FAILED)


def train(work):
    def wl(ctx):
        api = ctx.cuda()
        cu = api.cu_ctx_create()
        try:
            yield from api.cu_launch_kernel(cu, work)
        finally:
            api.cu_ctx_destroy(cu)

    return wl


class TestBuildDeviceViews:
    def test_derives_labels_and_residuals(self):
        sp = SharePod(
            metadata=ObjectMeta(name="s1"),
            spec=SharePodSpec(
                gpu_request=0.4, gpu_limit=0.8, gpu_mem=0.3, gpu_id="g1",
                sched_affinity="team", sched_anti_affinity="solo",
                sched_exclusion="tenant",
            ),
        )
        views = build_device_views(["g1"], [sp])
        assert len(views) == 1
        v = views[0]
        assert v.util == pytest.approx(0.6)
        assert v.mem == pytest.approx(0.7)
        assert v.aff == {"team"}
        assert v.anti_aff == {"solo"}
        assert v.excl == "tenant"
        assert not v.idle

    def test_terminal_sharepods_do_not_count(self):
        sp = SharePod(
            metadata=ObjectMeta(name="done"),
            spec=SharePodSpec(gpu_request=0.9, gpu_limit=1.0, gpu_mem=0.9, gpu_id="g1"),
        )
        sp.status.phase = PodPhase.SUCCEEDED
        views = build_device_views(["g1"], [sp])
        assert views[0].idle
        assert views[0].util == pytest.approx(1.0)

    def test_assigned_but_unmaterialized_gpuid_gets_a_view(self):
        sp = SharePod(  # DevMgr has not created the vGPU yet: empty pool
            metadata=ObjectMeta(name="inflight"),
            spec=SharePodSpec(gpu_request=0.5, gpu_limit=1.0, gpu_mem=0.5,
                              gpu_id="vgpu-new"),
        )
        views = build_device_views([], [sp])
        assert [v.gpuid for v in views] == ["vgpu-new"]
        assert views[0].util == pytest.approx(0.5)

    def test_unscheduled_sharepods_ignored(self):
        sp = SharePod(
            metadata=ObjectMeta(name="pending"),
            spec=SharePodSpec(gpu_request=0.5, gpu_limit=1.0, gpu_mem=0.5),
        )
        assert build_device_views([], [sp]) == []


class TestDevMgrLifecycle:
    @pytest.fixture
    def stack(self, env):
        cluster = Cluster(env, ClusterConfig(nodes=1, gpus_per_node=2)).start()
        ks = KubeShare(cluster, isolation="token").start()
        return cluster, ks

    def test_gpuid_uuid_mapping_recorded(self, stack):
        cluster, ks = stack
        ks.submit(ks.make_sharepod(
            "j", gpu_request=0.5, gpu_limit=1.0, gpu_mem=0.5, workload=None
        ))
        wait = cluster.env.process(ks.wait_for_phase("j", [PodPhase.RUNNING]))
        cluster.env.run(until=wait)
        sp = ks.get("j")
        assert ks.pool.gpuid_to_uuid(sp.spec.gpu_id) == sp.status.gpu_uuid

    def test_timings_recorded_for_fig10(self, stack):
        cluster, ks = stack
        ks.submit(ks.make_sharepod(
            "j", gpu_request=0.5, gpu_limit=1.0, gpu_mem=0.5, workload=None
        ))
        wait = cluster.env.process(ks.wait_for_phase("j", [PodPhase.RUNNING]))
        cluster.env.run(until=wait)
        timing = ks.devmgr.timings["default/j"]
        assert (
            timing["sharepod_created"]
            <= timing["vgpu_requested"]
            <= timing["vgpu_ready"]
            <= timing["pod_created"]
            <= timing["pod_running"]
        )

    def test_hybrid_policy_releases_after_ttl(self, env):
        cluster = Cluster(env, ClusterConfig(nodes=1, gpus_per_node=1)).start()
        ks = KubeShare(
            cluster, isolation="token",
            policy=HybridPolicy(max_idle=2, idle_ttl=5.0),
        ).start()
        ks.submit(ks.make_sharepod(
            "j", gpu_request=0.5, gpu_limit=1.0, gpu_mem=0.5,
            workload=train(1.0),
        ))
        done = env.process(ks.wait_all_terminal(["j"]))
        env.run(until=done)
        assert len(ks.pool) == 1  # kept warm initially
        env.run(until=env.now + 6.0)
        assert len(ks.pool) == 0  # TTL expired → released

    def test_ttl_cancelled_by_reuse(self, env):
        cluster = Cluster(env, ClusterConfig(nodes=1, gpus_per_node=1)).start()
        ks = KubeShare(
            cluster, isolation="token",
            policy=HybridPolicy(max_idle=2, idle_ttl=8.0),
        ).start()
        ks.submit(ks.make_sharepod(
            "j1", gpu_request=0.5, gpu_limit=1.0, gpu_mem=0.5,
            workload=train(1.0),
        ))
        done = env.process(ks.wait_all_terminal(["j1"]))
        env.run(until=done)
        # reuse the idle vGPU before the TTL fires
        ks.submit(ks.make_sharepod(
            "j2", gpu_request=0.5, gpu_limit=1.0, gpu_mem=0.5, workload=None
        ))
        wait = env.process(ks.wait_for_phase("j2", [PodPhase.RUNNING]))
        env.run(until=wait)
        env.run(until=env.now + 10.0)
        assert len(ks.pool) == 1  # still alive: the TTL must not kill it

    def test_two_sharepods_same_new_vgpu_single_placeholder(self, stack):
        """Concurrent sharePods packed on one new GPUID must not race into
        creating two placeholders."""
        cluster, ks = stack
        for i in range(3):
            ks.submit(ks.make_sharepod(
                f"j{i}", gpu_request=0.3, gpu_limit=0.6, gpu_mem=0.25,
                workload=None,
            ))
        cluster.env.run(until=10)
        holders = [
            p for p in cluster.api.pods() if p.name.startswith(PLACEHOLDER_PREFIX)
        ]
        assert len(holders) == 1
        assert ks.devmgr.vgpus_created_total == 1
        for i in range(3):
            assert ks.get(f"j{i}").status.phase is PodPhase.RUNNING

    def test_deleting_one_of_two_keeps_vgpu(self, stack):
        cluster, ks = stack
        for i in range(2):
            ks.submit(ks.make_sharepod(
                f"j{i}", gpu_request=0.3, gpu_limit=0.6, gpu_mem=0.25,
                workload=None,
            ))
        cluster.env.run(until=10)
        ks.delete("j0")
        cluster.env.run(until=cluster.env.now + 3)
        assert len(ks.pool) == 1  # j1 still attached
        assert ks.get("j1").status.phase is PodPhase.RUNNING

    def test_sched_wall_times_recorded(self, stack):
        cluster, ks = stack
        ks.submit(ks.make_sharepod(
            "j", gpu_request=0.3, gpu_limit=0.6, gpu_mem=0.3, workload=None
        ))
        cluster.env.run(until=5)
        assert len(ks.sched.algo_wall_times) >= 1
        n, seconds = ks.sched.algo_wall_times[0]
        assert n >= 1 and seconds >= 0.0


class TestPlanIsExact:
    """DevMgr's work queue takes a key only when :meth:`plan` names a
    step for it, and a step is named only if taking it changes something,
    so in these runs every pass has a step to take when it starts."""

    @pytest.mark.parametrize(
        "run", [lambda: scenarios.chaos(11), lambda: scenarios.fig8(seed=7)], ids=["chaos", "fig8"]
    )
    def test_every_pass_starts_with_a_step(self, run, monkeypatch):
        idle = []
        reconcile = KubeShareDevMgr.reconcile

        def checked(self, key):
            if not self.would_act(key):
                idle.append((self.env.now, key))
            return reconcile(self, key)

        monkeypatch.setattr(KubeShareDevMgr, "reconcile", checked)
        run()
        assert idle == []


class TestPrewarm:
    def test_materializes_at_the_placeholders_running_commit(self, env, monkeypatch):
        cluster = Cluster(env, ClusterConfig(nodes=1, gpus_per_node=2)).start()
        ks = KubeShare(cluster, policy=ReservationPolicy(max_idle=None)).start()
        at_running = []

        def on_pod(raw):
            # Subscribed after DevMgr's Pod watch, so it hears each commit
            # after DevMgr did, inside the same write.
            pod = raw.kv.value
            if (
                raw.type is WatchEventType.PUT
                and pod.name.startswith(PLACEHOLDER_PREFIX)
                and pod.status.phase is PodPhase.RUNNING
            ):
                vgpu = ks.pool.get(placeholder_gpuid(pod.name))
                at_running.append((vgpu.gpuid, vgpu.uuid))

        cluster.api.watch("Pod", deliver=on_pod)
        started = []
        spawn = Environment.process
        with monkeypatch.context() as patch:
            patch.setattr(
                Environment,
                "process",
                lambda self, gen, name=None: started.append(name or gen.__name__)
                or spawn(self, gen, name),
            )
            gpuids = ks.devmgr.prewarm(2)
        assert started == []  # nothing polls for the placeholders
        assert all(not ks.pool.get(g).materialized for g in gpuids)

        env.run(until=10.0)
        assert sorted(g for g, _ in at_running) == sorted(gpuids)
        for gpuid, uuid in at_running:
            assert uuid is not None and uuid == ks.pool.get(gpuid).uuid
