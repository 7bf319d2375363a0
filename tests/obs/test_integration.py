"""End-to-end observability: the full SharePod journey is captured, and
arming the hub does not perturb the schedule (identical-seed replay)."""

import os

import pytest

from repro.analysis.resets import reset_all
from repro.cluster import Cluster, ClusterConfig
from repro.cluster.objects import PodPhase
from repro.core import KubeShare
from repro.obs import ObsHub, disable, enable
from repro.obs.artifact import export_all
from repro.sim import Environment
from repro.workloads.jobs import InferenceJob

HORIZON = 30.0
N_PODS = 3


def run_scenario(observed: bool):
    """One deterministic small run; returns (outcome dict, hub or None)."""
    reset_all()
    env = Environment()
    cluster = Cluster(env, ClusterConfig(nodes=2, gpus_per_node=2)).start()
    hub = None
    if observed:
        # Every subsystem armed at once — histograms, SLO evaluator, and
        # the wall-clock profiler — so the replay test below witnesses
        # the full stack leaving the schedule untouched.
        hub = enable(
            ObsHub(env, label="obs-it")
            .attach_cluster(cluster)
            .start_sampler()
            .start_slo()
            .start_profiler()
        )
    ks = KubeShare(cluster, isolation="token").start()
    if hub is not None:
        hub.attach_kubeshare(ks)
    for i in range(N_PODS):
        job = InferenceJob.from_demand(f"job{i}", demand=0.3, duration=200.0)
        ks.submit(
            ks.make_sharepod(
                f"sp{i}",
                gpu_request=0.3,
                gpu_limit=0.5,
                gpu_mem=0.3,
                workload=job.workload(),
            )
        )
    env.run(until=HORIZON)
    outcome = {
        "placement": {
            f"sp{i}": (
                ks.get(f"sp{i}").status.phase,
                ks.get(f"sp{i}").spec.gpu_id,
                ks.get(f"sp{i}").status.pod_name,
            )
            for i in range(N_PODS)
        },
        "pod_uids": sorted(p.metadata.uid for p in cluster.api.list("Pod")),
    }
    disable()
    return outcome, hub


@pytest.fixture
def observed_run():
    outcome, hub = run_scenario(observed=True)
    return outcome, hub


class TestJourneyCapture:
    def test_sharepods_run_and_roots_close_ok(self, observed_run):
        outcome, hub = observed_run
        for name, (phase, gpu_id, pod_name) in outcome["placement"].items():
            assert phase is PodPhase.RUNNING, f"{name}: {phase}"
            assert gpu_id is not None and pod_name is not None
        for key, root in hub.roots.items():
            assert root.end is not None and root.status == "ok", key

    def test_spans_cover_every_layer(self, observed_run):
        _, hub = observed_run
        names = {s.name for s in hub.tracer.spans}
        tracks = {s.track for s in hub.tracer.spans}
        assert "reconcile" in names
        assert "container.start" in names
        assert "token.grant" in names
        assert "cuLaunchKernel" in names
        assert "create SharePod" in names  # apiserver instants
        assert "apiserver" in tracks
        assert any(t.startswith("kubelet:") for t in tracks)
        assert any(t.startswith("app:") for t in tracks)
        assert hub.tracer.dropped == 0

    def test_journey_is_stitched_by_trace_id(self, observed_run):
        _, hub = observed_run
        story = hub.tracer.for_trace("default/sp0")
        tracks = {s.track for s in story}
        # The one trace crosses the apiserver, the scheduler/devmgr
        # controllers, the kubelet, and the in-container app track.
        assert len(tracks) >= 4

    def test_control_plane_writes_are_children_of_their_pass(self, observed_run):
        """A write made inside a reconcile pass is that pass's child, so
        DevMgr's pod creations join the SharePod's journey."""
        _, hub = observed_run
        by_id = {s.span_id: s for s in hub.tracer.spans}
        writes = [
            s for s in hub.tracer.spans if s.name in ("update SharePod", "create Pod")
        ]
        assert {f"default/sp{i}" for i in range(N_PODS)} <= {
            s.attrs["object"] for s in writes
        }
        for write in writes:
            parent = by_id[write.parent_id]
            assert parent.name == "reconcile"
            assert write.trace_id == parent.attrs["key"]
        creates = [s for s in writes if s.name == "create Pod"]
        assert {by_id[s.parent_id].track for s in creates} == {"kubeshare-devmgr"}
        assert {s.trace_id for s in creates} == set(hub.roots)

    def test_events_tell_the_placement_story(self, observed_run):
        _, hub = observed_run
        reasons = {e.reason for e in hub.events.ledger}
        assert {"Scheduled", "Bound", "Started", "VGPUCreated"} <= reasons
        # Write-through: the events are also listable via the apiserver.
        stored = hub.events.api.list("Event")
        assert len(stored) == len(hub.events.ledger)
        assert hub.events.pending_writes == 0

    def test_decisions_recorded_per_sharepod(self, observed_run):
        _, hub = observed_run
        for i in range(N_PODS):
            recs = hub.decisions.for_sharepod(f"sp{i}")
            assert recs, f"sp{i} has no decision record"
            assert all(not r.rejected for r in recs)
            assert recs[-1].chosen is not None

    def test_sampler_populates_metric_families(self, observed_run):
        _, hub = observed_run
        series = hub.metrics.series
        assert len(series["repro_etcd_revision"]) > 0
        assert any(n.startswith("repro_gpu_quota_occupancy{") for n in series)
        assert any(n.startswith("repro_workqueue_depth{") for n in series)
        counters = hub.metrics.counters
        assert any(n.startswith("repro_token_grants_total{") for n in counters)
        assert any(n.startswith("repro_api_writes_total{") for n in counters)

    def test_histograms_capture_hot_seam_latencies(self, observed_run):
        _, hub = observed_run
        hists = hub.metrics.histograms
        assert hub.metrics.histogram("repro_sharepod_schedule_seconds").count == N_PODS
        assert hub.metrics.histogram("repro_sharepod_journey_seconds").count == N_PODS
        assert hub.metrics.histogram("repro_algo1_pass_seconds").count >= N_PODS
        assert hub.metrics.histogram("repro_token_wait_seconds").count > 0
        assert any(
            n.startswith("repro_reconcile_duration_seconds{") for n in hists
        )
        # Journey >= schedule latency for the same pods, and percentiles
        # are ordered.
        journey = hub.metrics.histogram("repro_sharepod_journey_seconds")
        sched = hub.metrics.histogram("repro_sharepod_schedule_seconds")
        assert journey.percentile(0.5) >= sched.percentile(0.5)
        assert sched.percentile(0.99) >= sched.percentile(0.5)

    def test_slo_attainment_healthy_run_no_alerts(self, observed_run):
        _, hub = observed_run
        report = hub.slo.to_dict()
        assert report["alerts"] == []
        by_name = {s["name"]: s for s in report["slos"]}
        assert by_name["sharepod-schedule-latency"]["attainment"] == 1.0
        assert by_name["sharepod-journey-latency"]["attainment"] == 1.0

    def test_profiler_attributes_host_time(self, observed_run):
        _, hub = observed_run
        prof = hub.profiler
        assert prof.dispatches > 0
        assert prof.total_seconds > 0
        assert prof.attributed_fraction() >= 0.9
        lines = prof.folded_lines()
        assert lines
        for line in lines:
            stack, _, count = line.rpartition(" ")
            assert stack and int(count) > 0

    def test_export_all_writes_all_artifacts(self, observed_run, tmp_path):
        _, hub = observed_run
        art = hub.snapshot()
        art["profile"] = hub.profiler.to_dict()
        paths = export_all(art, str(tmp_path), hub.label)
        assert [os.path.basename(p) for p in paths] == [
            "obs-it.json",
            "obs-it.trace.json",
            "obs-it.events.txt",
            "obs-it.prom",
            "obs-it.slo.json",
            "obs-it.folded",
        ]
        for p in paths:
            assert os.path.getsize(p) > 0


class TestDeterminism:
    def test_observed_run_replays_identically(self):
        plain, _ = run_scenario(observed=False)
        observed, _ = run_scenario(observed=True)
        assert plain["placement"] == observed["placement"]
        assert plain["pod_uids"] == observed["pod_uids"]
