"""Multi-tenant contention: quotas, preemption SLO, chaos resilience.

The capstone for the policy layer. A 4-node / 8-GPU cluster hosts three
tenant namespaces with GPU quotas, each saturated with long low-priority
jobs (plus one over-quota job per tenant that admission parks in the
queue) and a best-effort scavenger riding spare capacity. At t=20 s the
chaos engine fires a PREEMPTION_STORM: six high-priority SharePods
arrive over three seconds into a cluster with zero free capacity.

With preemption enabled every storm pod must be running within the SLO
bound — the planner picks minimal victim sets (the best-effort scavenger
first), DevMgr drains them through the graceful revocation window, and
the victims requeue with backoff and recover after the burst. The
control run disables preemption: the storm starves behind 300-second
batch jobs and the SLO collapses.

The crash variant kills the active DevMgr leader mid-drain. Because the
whole eviction state machine lives in SharePod annotations, the promoted
standby resumes every in-flight drain from the apiserver: the storm
still completes, no SharePod is left carrying eviction state, no
``vgpu-holder-*`` placeholder is orphaned, and no GPU is double-bound.
Identical seeds replay the identical eviction set and decision log.
"""

import json

import pytest

from repro.analysis.race import install as race_install
from repro.cluster import Cluster, ClusterConfig
from repro.cluster.objects import PodPhase
from repro.chaos import ChaosEngine
from repro.core import (
    KubeShare,
    PLACEHOLDER_PREFIX,
    placeholder_gpuid,
    reset_gpuid_counter,
)
from repro.obs import ObsHub, disable as obs_disable, enable as obs_enable
from repro.policy import PolicyConfig, ReaperConfig
from repro.policy.objects import ANN_EVICT, ANN_QUEUED
from repro.sim import Environment

pytestmark = pytest.mark.benchmark(group="chaos")

SEED = 29
NODES, GPUS_PER_NODE = 4, 2  # 8 physical GPUs
#: (count of 0.5-GPU batch jobs, quota) per tenant; tenant-c also runs a
#: small 0.2 job so one vGPU keeps spare capacity for the scavenger.
TENANTS = {"tenant-a": (5, 2.5), "tenant-b": (5, 2.5), "tenant-c": (4, 2.2)}
# gpu_mem 0.3: InferenceJob's 4 GiB weights need 0.3 of a 16 GiB device.
LOW_REQ, LOW_MEM, LOW_DURATION = 0.5, 0.3, 300.0
SMALL_REQ = 0.2
SCAV_REQ, SCAV_DURATION = 0.4, 30.0
STORM_AT, STORM_COUNT, STORM_WINDOW = 20.0, 6, 3.0
STORM_REQ, STORM_DURATION = 0.5, 8.0
CRASH_AT = 22.0  # mid-drain for the first storm victims
HORIZON = 70.0
SLO_BOUND = 10.0  # submit → running, seconds
EPS = 1e-6

_TERMINAL = (PodPhase.SUCCEEDED, PodPhase.FAILED)


def run_scenario(preemption: bool = True, crash: bool = False) -> dict:
    from repro.workloads.jobs import InferenceJob

    reset_gpuid_counter()
    env = Environment()
    cluster = Cluster(
        env, ClusterConfig(nodes=NODES, gpus_per_node=GPUS_PER_NODE)
    ).start()
    detector = race_install(cluster)
    cfg = PolicyConfig(
        drain_window=1.5,
        requeue_base=0.5,
        requeue_cap=4.0,
        preemption=preemption,
        reaper=ReaperConfig(
            default_ttl=None,
            terminated_ttl=None,  # keep finished storm pods for the SLO math
            orphan_ttl=5.0,
            sweep_interval=1.0,
        ),
    )
    ks = KubeShare(cluster, isolation="token", contention=cfg, replicas=2).start()
    label = f"contention-{'crash' if crash else ('ha' if preemption else 'ctl')}"
    hub = ObsHub(env, label=label).attach_cluster(cluster).attach_kubeshare(ks)
    obs_enable(hub.start_sampler().start_slo())

    pl = ks.policy_layer
    pl.create_priority_class("high", 100)
    lows, extras = [], []
    for tenant, (n_low, quota) in TENANTS.items():
        pl.create_namespace(tenant, gpu_quota=quota, on_exceeded="queue")
        for i in range(n_low):
            name = f"{tenant.split('-')[1]}-low{i}"
            job = InferenceJob.from_demand(name, demand=LOW_REQ, duration=LOW_DURATION)
            ks.submit(ks.make_sharepod(
                name, gpu_request=LOW_REQ, gpu_limit=1.0, gpu_mem=LOW_MEM,
                workload=job.workload(), namespace=tenant,
            ))
            lows.append((tenant, name))
    # tenant-c's small job opens the one vGPU with harvestable spare.
    job = InferenceJob.from_demand("c-small", demand=SMALL_REQ, duration=LOW_DURATION)
    ks.submit(ks.make_sharepod(
        "c-small", gpu_request=SMALL_REQ, gpu_limit=0.6, gpu_mem=LOW_MEM,
        workload=job.workload(), namespace="tenant-c",
    ))
    lows.append(("tenant-c", "c-small"))
    # one over-quota job per tenant: admission parks it in the queue.
    for tenant in TENANTS:
        name = f"{tenant.split('-')[1]}-extra"
        job = InferenceJob.from_demand(name, demand=LOW_REQ, duration=LOW_DURATION)
        ks.submit(ks.make_sharepod(
            name, gpu_request=LOW_REQ, gpu_limit=1.0, gpu_mem=LOW_MEM,
            workload=job.workload(), namespace=tenant,
        ))
        extras.append((tenant, name))
    # the best-effort scavenger harvests the spare slice next to c-small.
    job = InferenceJob.from_demand("scav", demand=SCAV_REQ, duration=SCAV_DURATION)
    ks.submit(ks.make_sharepod(
        "scav", gpu_request=SCAV_REQ, gpu_limit=0.8, gpu_mem=LOW_MEM,
        workload=job.workload(), best_effort=True,
    ))

    engine = ChaosEngine(cluster, kubeshare=ks, seed=SEED)
    engine.register_controllers(
        ks.sched_group, ks.devmgr_group, pl.quota_group, pl.reaper_group
    )
    engine.preemption_storm(
        at=STORM_AT,
        count=STORM_COUNT,
        window=STORM_WINDOW,
        priority_class="high",
        gpu_request=STORM_REQ,
        gpu_mem=LOW_MEM,
        job_duration=STORM_DURATION,
    )
    if crash:
        engine.controller_crash(at=CRASH_AT, target="kubeshare-devmgr")
    engine.start()

    env.run(until=HORIZON)
    detector.check()  # fails loudly on any recorded violation

    # -- storm SLO: submit time (chaos log) → first RUNNING ------------------
    submits = {
        target.split("/", 1)[1]: t
        for t, fault, target, outcome in engine.log
        if fault is None and outcome == "submitted"
    }
    latencies, storm_phases = {}, {}
    for name, t_submit in submits.items():
        sp = ks.get(name)
        started = sp.status.start_time if sp is not None else None
        latencies[name] = None if started is None else started - t_submit
        storm_phases[name] = sp.status.phase.value if sp is not None else "gone"
    met = sum(1 for lat in latencies.values() if lat is not None and lat <= SLO_BOUND)
    attainment = met / STORM_COUNT

    # -- policy decision log and the eviction set ----------------------------
    policy_records = [
        r for r in hub.decisions.to_dicts() if r["placement"] == "policy"
    ]
    preempt_records = [r for r in policy_records if r["rule"] == "policy:preempt"]
    evicted_keys = sorted(
        v for r in preempt_records for v in r["request"].get("victims", [])
    )
    plan_sizes = [len(r["request"].get("victims", [])) for r in preempt_records]

    # -- invariants: bindings, placeholders, leftover eviction state ---------
    sharepods = cluster.api.list("SharePod")
    holder_uuids, placeholder_ids = {}, set()
    for pod in cluster.api.list("Pod"):
        if pod.name.startswith(PLACEHOLDER_PREFIX):
            placeholder_ids.add(placeholder_gpuid(pod.name))
            if pod.status.phase is PodPhase.RUNNING:
                uuid = pod.status.container_env.get("NVIDIA_VISIBLE_DEVICES")
                holder_uuids.setdefault(uuid, []).append(pod.name)
    load, bound_ids = {}, set()
    for sp in sharepods:
        if sp.spec.gpu_id is not None and sp.status.phase not in _TERMINAL:
            bound_ids.add(sp.spec.gpu_id)
            load[sp.spec.gpu_id] = load.get(sp.spec.gpu_id, 0.0) + sp.spec.gpu_request
    pool = ks.pool
    pool_ids = {v.gpuid for v in pool.list()} if pool is not None else set()
    orphans = sorted(placeholder_ids - bound_ids - pool_ids)
    evict_leftovers = sorted(
        sp.metadata.key for sp in sharepods if ANN_EVICT in sp.metadata.annotations
    )

    # -- quota state ---------------------------------------------------------
    queued = {}
    for tenant, name in extras:
        sp = ks.get(name, namespace=tenant)
        queued[f"{tenant}/{name}"] = (
            sp is not None and ANN_QUEUED in sp.metadata.annotations,
            None if sp is None else sp.spec.gpu_id,
        )
    accountant = pl.accountant
    max_concurrent = {
        tenant: accountant.max_concurrent(tenant, env.now)
        for tenant in TENANTS
    }

    scav = ks.get("scav")
    reaper = pl.reaper
    obs = hub.snapshot()
    obs_disable()

    return {
        "obs": obs,
        "attainment": attainment,
        "latencies": latencies,
        "storm_phases": storm_phases,
        "evicted_keys": evicted_keys,
        "plan_sizes": plan_sizes,
        "policy_log": json.dumps(policy_records, sort_keys=True),
        "chaos_log": [
            (t, fault.kind if fault is not None else None, target, outcome)
            for t, fault, target, outcome in engine.log
        ],
        "scav_phase": None if scav is None else scav.status.phase.value,
        "scav_bound": scav is not None and scav.spec.gpu_id is not None,
        "queued": queued,
        "max_concurrent": max_concurrent,
        "holder_uuids": holder_uuids,
        "load": load,
        "orphans": orphans,
        "evict_leftovers": evict_leftovers,
        "promotions": list(ks.devmgr_group.promotions),
        "placement": {
            sp.metadata.key: (sp.status.phase.value, sp.spec.gpu_id)
            for sp in sharepods
        },
        "orphans_reaped": reaper.orphans_reaped_total if reaper is not None else 0,
    }


def _fmt_latency(lat) -> str:
    return "stuck" if lat is None else f"{lat:.2f}s"


def _table(ha: dict, ctl: dict) -> str:
    med = sorted(lat for lat in ha["latencies"].values() if lat is not None)
    lines = [
        "Multi-tenant contention — 6-pod high-priority storm at t=20 s into a "
        "saturated 8-GPU cluster (seed 29)",
        f"{'':34s} {'preemption':>12s} {'control':>12s}",
        f"{'storm SLO attainment (<=10 s)':34s}"
        f" {ha['attainment']:>11.0%} {ctl['attainment']:>11.0%}",
        f"{'storm pods running/done at t=70':34s}"
        f" {sum(1 for p in ha['storm_phases'].values() if p in ('Running', 'Succeeded')):>12d}"
        f" {sum(1 for p in ctl['storm_phases'].values() if p in ('Running', 'Succeeded')):>12d}",
        f"{'median storm placement latency':34s}"
        f" {_fmt_latency(med[len(med) // 2] if med else None):>12s}"
        f" {'—':>12s}",
        f"{'SharePods evicted (minimal sets)':34s}"
        f" {len(ha['evicted_keys']):>12d} {len(ctl['evicted_keys']):>12d}",
        f"{'over-quota jobs still parked':34s}"
        f" {sum(1 for q, _ in ha['queued'].values() if q):>12d}"
        f" {sum(1 for q, _ in ctl['queued'].values() if q):>12d}",
    ]
    for tenant, (_, quota) in TENANTS.items():
        lines.append(
            f"{'peak bound GPUs, ' + tenant:34s}"
            f" {ha['max_concurrent'][tenant]:>12.2f}"
            f" {ctl['max_concurrent'][tenant]:>12.2f}"
            f"   (quota {quota})"
        )
    return "\n".join(lines)


def test_preemption_meets_slo_against_control(report, benchmark, export_obs):
    ha = benchmark.pedantic(
        run_scenario, kwargs={"preemption": True}, rounds=1, iterations=1
    )
    ctl = run_scenario(preemption=False)
    export_obs(ha["obs"])
    export_obs(ctl["obs"])
    report(_table(ha, ctl))

    # SLO: >=90% of the storm running within the bound; the control run
    # (no preemption) starves behind the 300-second batch jobs.
    assert ha["attainment"] >= 0.9
    assert ctl["attainment"] <= 0.5
    assert ctl["attainment"] < ha["attainment"]
    assert not ctl["evicted_keys"]

    # Minimal victim sets: in this geometry one eviction always suffices,
    # so every preemption plan must mark exactly one victim — and the
    # best-effort scavenger (lowest priority) is revoked first.
    assert ha["plan_sizes"] and all(n == 1 for n in ha["plan_sizes"])
    assert "default/scav" in ha["evicted_keys"]
    # ...and it recovers after the burst: re-bound and running (or done).
    assert ha["scav_phase"] in ("Running", "Succeeded")
    assert ha["scav_bound"] or ha["scav_phase"] == "Succeeded"

    # Quota: every over-quota job is still parked (its tenant's batch jobs
    # never finished), and no tenant's peak bound request sum beat its quota.
    for key, (is_queued, gpu_id) in ha["queued"].items():
        assert is_queued, f"{key} escaped the quota queue"
        assert gpu_id is None, f"{key} bound while quota-parked"
    for tenant, (_, quota) in TENANTS.items():
        assert ha["max_concurrent"][tenant] <= quota + EPS

    # Steady-state hygiene even in the happy path: no leftover eviction
    # state, no orphaned placeholder, no double-bound GPU.
    assert not ha["evict_leftovers"]
    assert not ha["orphans"]
    for uuid, holders in ha["holder_uuids"].items():
        assert len(holders) == 1, f"GPU {uuid} double-bound: {holders}"
    for gpu_id, total in ha["load"].items():
        assert total <= 1.0 + EPS, f"vGPU {gpu_id} overcommitted: {total}"


def test_devmgr_crash_mid_preemption_leaves_no_orphans(report, export_obs):
    out = run_scenario(preemption=True, crash=True)
    export_obs(out["obs"])

    # The crash hit the active DevMgr leader and a standby took over.
    crashes = [
        (t, target, outcome)
        for t, kind, target, outcome in out["chaos_log"]
        if kind is not None and kind.value == "controller_crash"
    ]
    assert crashes and crashes[0][2] == "crashed"
    assert len(out["promotions"]) == 2

    # The promoted leader resumed every in-flight drain from annotations:
    # the storm completed and nothing is stuck carrying eviction state.
    assert out["storm_phases"] and all(
        phase == "Succeeded" for phase in out["storm_phases"].values()
    ), out["storm_phases"]
    assert not out["evict_leftovers"], out["evict_leftovers"]

    # Zero orphaned vgpu-holder-* placeholders, zero double-bindings.
    assert not out["orphans"], out["orphans"]
    for uuid, holders in out["holder_uuids"].items():
        assert len(holders) == 1, f"GPU {uuid} double-bound: {holders}"
    for gpu_id, total in out["load"].items():
        assert total <= 1.0 + EPS, f"vGPU {gpu_id} overcommitted: {total}"

    # Quota enforcement survived the failover too.
    for key, (is_queued, gpu_id) in out["queued"].items():
        assert is_queued and gpu_id is None, f"{key} escaped during failover"

    report(
        "DevMgr leader crashed at t=22 s mid-drain; standby promoted at "
        f"t={out['promotions'][1][0]:.2f} s, {len(out['evicted_keys'])} "
        f"eviction(s) completed, {out['orphans_reaped']} orphan(s) reaped, "
        "0 placeholders orphaned, 0 GPUs double-bound"
    )


def test_identical_seed_replays_identical_eviction_set():
    first = run_scenario(preemption=True, crash=True)
    second = run_scenario(preemption=True, crash=True)
    # The victim planner is pure and the sim is deterministic: identical
    # seeds replay the identical eviction set, byte-identical decision
    # log, identical chaos schedule, and identical final placement.
    assert first["evicted_keys"] == second["evicted_keys"]
    assert first["policy_log"] == second["policy_log"]
    assert first["chaos_log"] == second["chaos_log"]
    assert first["placement"] == second["placement"]
