"""The lifetime reaper: TTL enforcement, terminated GC, orphan collection."""

from repro.cluster import Cluster, ClusterConfig
from repro.cluster.objects import ObjectMeta, Pod
from repro.core import KubeShare
from repro.core.vgpu import PLACEHOLDER_PREFIX
from repro.policy import PolicyConfig, ReaperConfig
from repro.policy.objects import ANN_TTL
from repro.policy.reaper import LifetimeReaper

from .conftest import make_sharepod, train


def stack(env, reaper_cfg):
    cluster = Cluster(env, ClusterConfig(nodes=1, gpus_per_node=2)).start()
    ks = KubeShare(cluster, contention=PolicyConfig(reaper=reaper_cfg)).start()
    return cluster, ks


class TestLifetimeTTL:
    def test_default_ttl_reaps_running_sharepod(self, env):
        cluster, ks = stack(
            env,
            ReaperConfig(default_ttl=2.0, orphan_ttl=None, sweep_interval=0.25),
        )
        ks.submit(
            ks.make_sharepod(
                "long", gpu_request=0.5, gpu_limit=1.0, gpu_mem=0.2,
                workload=train(60.0),
            )
        )
        env.run(until=5.0)
        assert ks.get("long") is None
        assert ks.policy_layer.reaper.reaped_total >= 1

    def test_annotation_ttl_overrides_default(self, env):
        cluster, ks = stack(
            env,
            ReaperConfig(default_ttl=60.0, orphan_ttl=None, sweep_interval=0.25),
        )
        ks.submit(
            ks.make_sharepod(
                "short", gpu_request=0.5, gpu_limit=1.0, gpu_mem=0.2,
                workload=train(60.0), annotations={ANN_TTL: "1.0"},
            )
        )
        env.run(until=4.0)
        assert ks.get("short") is None

    def test_namespace_ttl_applies(self, env):
        cluster, ks = stack(
            env,
            ReaperConfig(default_ttl=None, orphan_ttl=None, sweep_interval=0.25),
        )
        ks.policy_layer.create_namespace("t1", sharepod_ttl=1.5)
        ks.submit(
            ks.make_sharepod(
                "tenant-job", gpu_request=0.5, gpu_limit=1.0, gpu_mem=0.2,
                workload=train(60.0), namespace="t1",
            )
        )
        env.run(until=4.0)
        assert ks.get("tenant-job", namespace="t1") is None

    def test_no_ttl_anywhere_means_immortal(self, env):
        cluster, ks = stack(
            env,
            ReaperConfig(default_ttl=None, orphan_ttl=None, sweep_interval=0.25),
        )
        ks.submit(
            ks.make_sharepod(
                "forever", gpu_request=0.5, gpu_limit=1.0, gpu_mem=0.2,
                workload=train(60.0),
            )
        )
        env.run(until=10.0)
        assert ks.get("forever") is not None

    def test_excluded_namespace_never_reaped(self, env):
        cluster, ks = stack(
            env,
            ReaperConfig(
                default_ttl=1.0,
                orphan_ttl=None,
                sweep_interval=0.25,
                excluded_namespaces=("kube-system",),
            ),
        )
        ks.submit(
            ks.make_sharepod(
                "system-job", gpu_request=0.5, gpu_limit=1.0, gpu_mem=0.2,
                workload=train(60.0), namespace="kube-system",
            )
        )
        env.run(until=5.0)
        assert ks.get("system-job", namespace="kube-system") is not None


class TestTerminatedGC:
    def test_terminal_sharepods_linger_then_go(self, env):
        cluster, ks = stack(
            env,
            ReaperConfig(
                default_ttl=None,
                terminated_ttl=3.0,
                orphan_ttl=None,
                sweep_interval=0.25,
            ),
        )
        ks.submit(
            ks.make_sharepod(
                "quick", gpu_request=0.5, gpu_limit=1.0, gpu_mem=0.2,
                workload=train(0.5),
            )
        )
        done = env.process(ks.wait_all_terminal(["quick"]))
        env.run(until=done)
        finished_at = ks.get("quick").status.finish_time
        env.run(until=finished_at + 2.0)
        assert ks.get("quick") is not None  # post-mortem window
        env.run(until=finished_at + 5.0)
        assert ks.get("quick") is None


class TestOrphanCollection:
    def test_unreferenced_placeholder_collected_after_grace(self, env):
        cluster = Cluster(env, ClusterConfig(nodes=1, gpus_per_node=1)).start()
        cluster.api.register_crd("SharePod")
        reaper = LifetimeReaper(
            env,
            cluster.api,
            ReaperConfig(orphan_ttl=1.0, sweep_interval=0.25),
        ).start()
        cluster.api.create(
            Pod(metadata=ObjectMeta(name=PLACEHOLDER_PREFIX + "GPUID-orphan"))
        )
        env.run(until=0.5)
        assert cluster.api.get("Pod", PLACEHOLDER_PREFIX + "GPUID-orphan") is not None
        env.run(until=3.0)
        assert cluster.api.get("Pod", PLACEHOLDER_PREFIX + "GPUID-orphan") is None
        assert reaper.orphans_reaped_total == 1

    def test_referenced_placeholder_protected(self, env):
        cluster = Cluster(env, ClusterConfig(nodes=1, gpus_per_node=1)).start()
        cluster.api.register_crd("SharePod")
        reaper = LifetimeReaper(
            env,
            cluster.api,
            ReaperConfig(orphan_ttl=1.0, sweep_interval=0.25),
        ).start()
        owner = make_sharepod("owner", gpu_id="GPUID-live")
        cluster.api.create(owner)
        cluster.api.create(
            Pod(metadata=ObjectMeta(name=PLACEHOLDER_PREFIX + "GPUID-live"))
        )
        env.run(until=5.0)
        assert cluster.api.get("Pod", PLACEHOLDER_PREFIX + "GPUID-live") is not None
        assert reaper.orphans_reaped_total == 0

    def test_ha_rebuild_clears_grace_tracking(self, env):
        cluster = Cluster(env, ClusterConfig(nodes=1, gpus_per_node=1)).start()
        cluster.api.register_crd("SharePod")
        reaper = LifetimeReaper(
            env, cluster.api, ReaperConfig(orphan_ttl=10.0, sweep_interval=0.25)
        ).start()
        cluster.api.create(
            Pod(metadata=ObjectMeta(name=PLACEHOLDER_PREFIX + "GPUID-x"))
        )
        env.run(until=1.0)
        assert reaper._orphan_since  # grace window under way
        reaper.rebuild_state()
        assert reaper._orphan_since == {}
