"""Artifact round-trips (``export_all`` / CLI ``export``) and the
``cluster="..."`` labeling of federation metric families."""

import json
import os

import pytest

from repro.analysis.resets import reset_all
from repro.cluster import Cluster, ClusterConfig
from repro.core import KubeShare
from repro.federation import Federation, FederationConfig
from repro.obs import ObsHub, disable, enable
from repro.obs import artifact as artifact_mod
from repro.obs.cli import main as cli_main
from repro.obs.promfmt import prometheus_text
from repro.sim import Environment
from repro.workloads.jobs import InferenceJob, TrainingJob


@pytest.fixture
def observed_hub():
    """A small observed single-cluster run, still enabled (not snapshot)."""
    reset_all()
    env = Environment()
    cluster = Cluster(env, ClusterConfig(nodes=2, gpus_per_node=2)).start()
    hub = enable(
        ObsHub(env, label="roundtrip")
        .attach_cluster(cluster)
        .start_sampler()
        .start_slo()
    )
    ks = KubeShare(cluster, isolation="token").start()
    hub.attach_kubeshare(ks)
    for i in range(2):
        job = InferenceJob.from_demand(f"job{i}", demand=0.3, duration=100.0)
        ks.submit(
            ks.make_sharepod(
                f"sp{i}",
                gpu_request=0.3,
                gpu_limit=0.5,
                gpu_mem=0.3,
                workload=job.workload(),
            )
        )
    env.run(until=20.0)
    yield hub
    disable()


class TestExportRoundTrip:
    def test_export_all_artifact_loads_back_identically(self, observed_hub, tmp_path):
        paths = artifact_mod.export_all(observed_hub.snapshot(), str(tmp_path), "roundtrip")
        art_path = paths[0]
        assert art_path.endswith("roundtrip.json")
        loaded = artifact_mod.load(art_path)
        snap = observed_hub.snapshot()
        for key in ("label", "counters", "series", "histograms", "slo"):
            assert loaded[key] == snap[key], key
        assert len(loaded["spans"]) == len(snap["spans"])

    def test_prometheus_text_identical_live_and_from_artifact(
        self, observed_hub, tmp_path
    ):
        live = prometheus_text(observed_hub.metrics)
        art_path = observed_hub.save(str(tmp_path / "art.json"))
        art = artifact_mod.load(art_path)
        out = tmp_path / "exported"
        artifact_mod.export_all(art, str(out), "rt")
        assert (out / "rt.prom").read_text() == live
        # Histogram families survive the trip.
        assert "# TYPE repro_sharepod_schedule_seconds histogram" in live
        assert 'repro_sharepod_schedule_seconds_bucket{le="+Inf"} 2' in live

    def test_cli_export_writes_same_files_as_export_all(
        self, observed_hub, tmp_path, capsys
    ):
        direct = tmp_path / "direct"
        via_cli = tmp_path / "cli"
        direct_paths = artifact_mod.export_all(
            observed_hub.snapshot(), str(direct), "roundtrip"
        )
        art_path = observed_hub.save(str(tmp_path / "art.json"))
        rc = cli_main(
            ["export", "--artifact", art_path, "--dir", str(via_cli), "--label",
             "roundtrip"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "wrote" in out
        # No profiler armed -> no .folded from either path.
        direct_names = sorted(os.path.basename(p) for p in direct_paths)
        cli_names = sorted(os.listdir(via_cli))
        assert cli_names == direct_names
        for name in cli_names:
            if name.endswith((".prom", ".events.txt", ".slo.json")):
                assert (via_cli / name).read_text() == (direct / name).read_text()

    def test_cli_report_and_slo_render_from_artifact(
        self, observed_hub, tmp_path, capsys
    ):
        art_path = observed_hub.save(str(tmp_path / "art.json"))
        assert cli_main(["report", "--artifact", art_path]) == 0
        report = capsys.readouterr().out
        assert "repro_sharepod_schedule_seconds" in report
        assert "p99" in report
        assert cli_main(["slo", "--artifact", art_path]) == 0
        slo_out = capsys.readouterr().out
        assert "sharepod-schedule-latency" in slo_out
        assert "MET" in slo_out

    def test_cli_explain_timeline_lists_devmgr_pod_create(self, capsys):
        """DevMgr creates the pod inside its reconcile pass, so the write
        carries the SharePod's trace id and joins its journey. Its work
        queue takes the key only for a pass that can act, so the no-op
        passes on the SharePod's echoes are not run (145 spans, not 148)."""
        assert cli_main(["explain", "burst3"]) == 0
        timeline = capsys.readouterr().out.split("— Timeline", 1)[1]
        assert timeline.startswith(" (145 spans)")
        assert "43.942s · apiserver                create Pod" in timeline


class TestFederationLabels:
    @pytest.fixture
    def fed_hub(self):
        reset_all()
        env = Environment()
        fed = Federation(
            env,
            FederationConfig(
                members=("alpha", "beta"),
                nodes_per_cluster=1,
                gpus_per_node=1,
                replicas=1,
            ),
        ).start()
        hub = enable(
            ObsHub(env, label="fed").attach_federation(fed).start_sampler()
        )
        for i in range(2):
            job = TrainingJob(f"job{i}", steps=20, step_work=0.05)
            fed.submit(
                f"job{i}",
                gpu_request=0.6,
                gpu_limit=1.0,
                gpu_mem=0.3,
                workload_factory=job.workload,
            )
        env.run(until=15.0)
        yield hub
        disable()

    def test_member_series_carry_cluster_labels(self, fed_hub):
        series = fed_hub.metrics.series
        for member in ("alpha", "beta"):
            assert f'repro_etcd_revision{{cluster="{member}"}}' in series
            assert (
                f'repro_workqueue_depth{{queue="kube-scheduler",cluster="{member}"}}'
                in series
            )
        # The unlabeled single-cluster spelling must NOT appear alongside.
        assert "repro_etcd_revision" not in series

    def test_cluster_labels_reach_prometheus_exposition(self, fed_hub):
        text = prometheus_text(fed_hub.metrics)
        assert 'repro_etcd_revision{cluster="alpha"}' in text
        assert 'repro_etcd_revision{cluster="beta"}' in text
        assert text.count("# TYPE repro_etcd_revision gauge") == 1

    def test_federation_placement_latency_histogram_fills(self, fed_hub):
        hist = fed_hub.metrics.histogram("repro_federation_place_seconds")
        assert hist.count >= 2
        assert hist.percentile(0.5) >= 0.0

    def test_labeled_families_survive_export_roundtrip(self, fed_hub, tmp_path):
        live = prometheus_text(fed_hub.metrics)
        art_path = fed_hub.save(str(tmp_path / "fed.json"))
        art = artifact_mod.load(art_path)
        artifact_mod.export_all(art, str(tmp_path), "fed")
        assert (tmp_path / "fed.prom").read_text() == live
        with open(art_path) as fh:
            raw = json.load(fh)
        assert any('cluster="alpha"' in name for name in raw["series"])
