"""Federation disaster recovery: a whole cluster dies mid-burst.

The capstone for the federated control plane. Three member clusters
(alpha, beta, gamma — 2 nodes x 2 GPUs each) absorb a steady arrival
stream of training SharePods routed by the global placer. At t=30 s the
chaos engine partitions gamma from the federation for 4 s — long enough
for Suspect, not Dead: gamma's local workloads must keep completing
untouched (static stability). At t=50 s beta goes permanently dark
(apiserver + nodes); the health prober degrades it Healthy → Suspect →
Dead, and the placer evacuates every beta-owned record onto the
survivors through the generation fence — exactly once each.

Pass criteria: aggregate completion throughput in the post-outage window
recovers to ≥ 90 % of the pre-fault window, no record ever holds two
live copies at its current generation, gamma's partition reschedules
nothing, and the identical seed replays the identical run.
"""

import pytest

from repro.analysis.race import install as race_install
from repro.analysis.resets import reset_all
from repro.chaos import ChaosEngine, FaultKind
from repro.federation import Federation, FederationConfig
from repro.obs import ObsHub, disable as obs_disable, enable as obs_enable
from repro.sim import Environment
from repro.workloads.jobs import TrainingJob

pytestmark = pytest.mark.benchmark(group="federation")

SEED = 17
MEMBERS = ("alpha", "beta", "gamma")
ARRIVAL_GAP = 1.2
JOB_STEPS = 120          # x 0.05 s/step = 6 s of full-device work
GPU_REQUEST = 0.45
BURST_AT = 18.0          # spill load onto all three clusters pre-partition
BURST_COUNT = 16
BURST_GAP = 0.5
PARTITION_AT = 30.0
PARTITION_FOR = 4.0
OUTAGE_AT = 50.0
HORIZON = 100.0
LAST_ARRIVAL = 80.0      # tail arrivals still complete within the horizon
PRE_WINDOW = (10.0, 30.0)
POST_WINDOW = (70.0, 100.0)
RECOVERY_FLOOR = 0.9


def make_config() -> FederationConfig:
    return FederationConfig(
        members=MEMBERS,
        nodes_per_cluster=2,
        gpus_per_node=2,
        replicas=2,
        probe_interval=0.5,
        probe_timeout=0.25,
        suspect_after=2,
        dead_after=8.0,
    )


def run_scenario() -> dict:
    # Fresh-process counters (GPUID, UID, ...) so placements replay
    # bit-for-bit regardless of what ran earlier in this process.
    reset_all()
    env = Environment()
    fed = Federation(env, make_config()).start()
    # One race detector per member: each cluster has its own etcd.
    detectors = [race_install(fed.members[name].cluster) for name in sorted(fed.members)]
    hub = ObsHub(env, label="federation-dr").attach_federation(fed)
    obs_enable(hub.start_sampler().start_slo())

    submitted = []

    def arrivals():
        i = 0
        while env.now <= LAST_ARRIVAL:
            name = f"job{i:03d}"
            job = TrainingJob(name, steps=JOB_STEPS, step_work=0.05)
            fed.submit(
                name,
                gpu_request=GPU_REQUEST,
                gpu_limit=1.0,
                gpu_mem=0.3,
                workload_factory=job.workload,
            )
            submitted.append((env.now, name))
            i += 1
            yield env.timeout(ARRIVAL_GAP)

    env.process(arrivals(), name="arrival-stream")

    def burst():
        # Best-fit packs the steady stream onto as few clusters as fit; a
        # submission burst pushes aggregate demand past their capacity so
        # gamma is carrying real load when its partition hits.
        yield env.timeout(BURST_AT)
        for i in range(BURST_COUNT):
            name = f"burst{i:02d}"
            job = TrainingJob(name, steps=JOB_STEPS, step_work=0.05)
            fed.submit(
                name,
                gpu_request=GPU_REQUEST,
                gpu_limit=1.0,
                gpu_mem=0.3,
                workload_factory=job.workload,
            )
            submitted.append((env.now, name))
            yield env.timeout(BURST_GAP)

    env.process(burst(), name="burst-stream")

    engine = ChaosEngine(
        fed.members["alpha"].cluster, seed=SEED
    ).register_federation(fed)
    engine.federation_partition(at=PARTITION_AT, duration=PARTITION_FOR, target="gamma")
    engine.cluster_outage(at=OUTAGE_AT, target="beta")
    engine.start()

    # Monitors: completion counts over time (throughput windows) and the
    # no-double-placement invariant, sampled every second of virtual time.
    completions = []
    double_placements = []

    def monitor():
        while True:
            completions.append((env.now, len(fed.completed_records())))
            for name, copies in sorted(fed.live_copies().items()):
                record = fed.registry.get(name)
                if record is None:
                    continue
                current = [c for c in copies if c[2] == record.spec.generation]
                if len(current) > 1:
                    double_placements.append((env.now, name, current))
            yield env.timeout(1.0)

    env.process(monitor(), name="dr-monitor")

    gamma_owned_at_partition = {}

    def snapshot_gamma():
        yield env.timeout(PARTITION_AT)
        for record in fed.registry.assigned_to("gamma"):
            gamma_owned_at_partition[record.metadata.name] = record.spec.generation

    env.process(snapshot_gamma(), name="gamma-snapshot")

    env.run(until=HORIZON)
    for detector in detectors:
        detector.check()  # fails loudly on any recorded violation
    obs = hub.snapshot()
    obs_disable()

    def window_rate(lo, hi):
        at = {t: n for t, n in completions}
        start = max((n for t, n in completions if t <= lo), default=0)
        end = max((n for t, n in completions if t <= hi), default=0)
        del at
        return (end - start) / (hi - lo)

    return {
        "obs": obs,
        "submitted": len(submitted),
        "completed": fed.completed_records(),
        "completions": completions,
        "pre_rate": window_rate(*PRE_WINDOW),
        "post_rate": window_rate(*POST_WINDOW),
        "double_placements": double_placements,
        "rescheduled": fed.placer.rescheduled_total,
        "fence_rejections": fed.placer.fence_rejections_total,
        "revoked_stale": fed.placer.revoked_stale_total,
        "transitions": list(fed.prober.transitions),
        "chaos_log": [(t, f.kind, v, o) for t, f, v, o in engine.log],
        "gamma_owned": gamma_owned_at_partition,
        "records": sorted(
            (r.metadata.name, r.spec.cluster, r.spec.generation, r.status.phase)
            for r in fed.registry.list()
        ),
        "final_health": {k: v.value for k, v in fed.prober.state.items()},
    }


def _table(r) -> str:
    lines = [
        "Federation DR — gamma partitioned 4 s at t=30, beta killed at t=50 "
        f"(seed {SEED})",
        f"{'submitted / completed':34s} {r['submitted']:>6d} / {len(r['completed']):d}",
        f"{'pre-fault throughput (jobs/s)':34s} {r['pre_rate']:>8.3f}",
        f"{'post-outage throughput (jobs/s)':34s} {r['post_rate']:>8.3f}",
        f"{'recovery ratio':34s} {r['post_rate'] / max(r['pre_rate'], 1e-9):>8.3f}",
        f"{'evacuated from beta':34s} {r['rescheduled']:>8d}",
        f"{'stale copies revoked':34s} {r['revoked_stale']:>8d}",
        f"{'fence rejections':34s} {r['fence_rejections']:>8d}",
        f"{'double placements observed':34s} {len(r['double_placements']):>8d}",
    ]
    for t, member, old, new in r["transitions"]:
        lines.append(f"  t={t:6.2f}  {member:6s} {old} -> {new}")
    return "\n".join(lines)


def test_throughput_recovers_after_cluster_loss(report, benchmark, export_obs):
    r = benchmark.pedantic(run_scenario, rounds=1, iterations=1)
    export_obs(r["obs"])
    report(_table(r))

    # Both faults actually fired against their intended members.
    outcomes = {(f[1], f[2]) for f in r["chaos_log"]}
    assert (FaultKind.FEDERATION_PARTITION, "gamma") in outcomes
    assert (FaultKind.CLUSTER_OUTAGE, "beta") in outcomes

    # gamma: Suspect-depth excursion only, healed, nothing rescheduled
    # off it — its partition-time workloads completed at generation 1.
    gamma_path = [(o, n) for _, m, o, n in r["transitions"] if m == "gamma"]
    assert gamma_path == [("Healthy", "Suspect"), ("Suspect", "Healthy")]
    assert r["gamma_owned"], "no records were on gamma when it partitioned"
    by_name = {name: (cluster, gen, phase) for name, cluster, gen, phase in r["records"]}
    for name, gen_at_partition in r["gamma_owned"].items():
        cluster, gen, phase = by_name[name]
        assert cluster == "gamma" and gen == gen_at_partition
        assert phase == "Completed"

    # beta: went Dead, its records evacuated exactly once each.
    beta_path = [(o, n) for _, m, o, n in r["transitions"] if m == "beta"]
    assert beta_path == [("Healthy", "Suspect"), ("Suspect", "Dead")]
    assert r["rescheduled"] >= 1
    for name, cluster, gen, phase in r["records"]:
        assert cluster != "beta" or gen == 1 and phase in ("Completed", "Failed"), (
            f"{name} still assigned to dead beta: gen={gen} phase={phase}"
        )

    # Exactly-once: no record ever held two live copies at its current
    # generation, at any sampled instant.
    assert r["double_placements"] == []

    # Aggregate throughput recovered to >= 90 % of the pre-fault window.
    assert r["pre_rate"] > 0
    ratio = r["post_rate"] / r["pre_rate"]
    assert ratio >= RECOVERY_FLOOR, (
        f"post-outage throughput {r['post_rate']:.3f} jobs/s is only "
        f"{ratio:.2f}x the pre-fault {r['pre_rate']:.3f} jobs/s"
    )


def test_federation_dr_is_deterministic():
    first = run_scenario()
    second = run_scenario()
    assert first["records"] == second["records"]
    assert first["completions"] == second["completions"]
    assert first["transitions"] == second["transitions"]
    assert first["chaos_log"] == second["chaos_log"]
    assert first["rescheduled"] == second["rescheduled"]
    assert first["completed"] == second["completed"]
