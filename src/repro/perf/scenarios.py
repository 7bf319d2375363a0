"""Canonical end-to-end scenarios: the one place each is defined.

The benchmark (``bench/``), the golden digests (``tests/perf``), the
parallel sweep (:mod:`repro.perf.sweep`) and the obs CLI
(``python -m repro.obs``) all run these functions. Four workloads
exercise the stack end to end:

* :func:`fig8` — the paper's throughput experiment (Figure 8a at a heavy
  frequency factor) through both Native Kubernetes and KubeShare: the
  full stack, dominated by the sim kernel and the GPU compute engine.
* :func:`chaos` — the node-crash recovery capstone: heartbeats, node
  lifecycle, eviction, DevMgr teardown and rescheduling (control plane +
  GPU engine under churn).
* :func:`failover` — the HA leader-failover capstone: leases, fencing,
  promotion, and a scheduling burst through the cached device-view index
  (control-plane heavy).
* :func:`trace_replay` — a Borg/Alibaba-shaped synthetic trace (diurnal
  arrivals, heavy-tailed durations, mixed demands) serialized through
  the JSON-lines trace engine and replayed through KubeShare via the
  batched arrival-flow scheduler (workload engine + full stack).

Every scenario resets process-global state (:func:`reset_all`), runs at a
fixed seed, and returns a plain dict::

    {"summary": <JSON-serializable, deterministic>,
     "events":  <total simulation events processed>,
     "sim_time": <virtual seconds simulated>,
     "obs":     <ObsHub snapshot dict, or None>}

``summary``, ``events`` and (when requested via *obs_label*) ``obs`` are
the behaviour contract: an identical-seed run produces byte-identical
values, and ``tests/perf/test_scenario_goldens.py`` pins their SHA-256
digests and exact event counts. With an *obs_label*, ``chaos`` and
``failover`` also take ``profile=True``, which arms the wall-clock
profiler and attaches its host-time report to ``obs["profile"]`` (never
part of a golden). They also take ``race=True``, which arms the dynamic
race detector (:mod:`repro.analysis.race`) for the whole run and raises
:class:`~repro.analysis.race.RaceViolation` on any violation, and one
control knob each for the capstones' control runs (``recovery`` and
``replicas``).
"""

from __future__ import annotations

from typing import Any, Dict, Optional

__all__ = ["fig8", "chaos", "failover", "trace_replay", "SCENARIOS"]


def _install_obs(env, cluster, ks, label: Optional[str], profile: bool = False):
    if label is None:
        return None
    from ..obs.runtime import ObsHub, enable

    hub = ObsHub(env, label=label).attach_cluster(cluster)
    hub.attach_kubeshare(ks)
    hub.start_sampler()
    # Histograms + SLO burn rates are part of the snapshot the golden
    # digests pin, so the evaluator runs here too — a stronger witness
    # that both stay purely virtual-time.
    hub.start_slo()
    if profile:
        hub.start_profiler()
    return enable(hub)


def _install_race(cluster, race: bool):
    """The race detector for the whole run, or ``None``. It raises at the
    offending write, but a controller survives a raising reconcile, so
    the scenario also calls ``check()`` once the run is over."""
    if not race:
        return None
    from ..analysis.race import install

    return install(cluster)


def _finish_obs(hub) -> Optional[Dict[str, Any]]:
    """Snapshot and disarm; the host-time profile, when armed, rides on
    the returned dict but never enters the snapshot itself."""
    if hub is None:
        return None
    from ..obs.runtime import disable

    snap = hub.snapshot()
    if hub.profiler is not None:
        snap["profile"] = hub.profiler.to_dict()
    disable()
    return snap


def fig8(
    n_jobs: int = 120,
    factor: float = 9.0,
    nodes: int = 8,
    gpus_per_node: int = 4,
    seed: int = 7,
    obs_label: Optional[str] = None,
) -> Dict[str, Any]:
    """One heavy Figure 8a point through both systems (full stack)."""
    from ..analysis.resets import reset_all
    from ..experiments.common import run_inference_workload
    from ..experiments.fig8 import BASE_JOBS_PER_MINUTE, JOB_DURATION, SYSTEMS
    from ..workloads.generator import WorkloadGenerator

    reset_all()
    del obs_label  # fig8 has no chaos/control-plane artifacts worth capturing
    events = 0
    sim_time = 0.0
    summary: Dict[str, Any] = {}
    for system_cls in SYSTEMS:
        workload = WorkloadGenerator(seed).inference_workload(
            n_jobs=n_jobs,
            jobs_per_minute=BASE_JOBS_PER_MINUTE * factor,
            demand_mean=0.3,
            demand_std=0.1,
            duration=JOB_DURATION,
        )
        result = run_inference_workload(
            system_cls, workload, nodes=nodes, gpus_per_node=gpus_per_node
        )
        env = result.extras["cluster"].env
        events += env.events_processed
        sim_time += env.now
        summary[result.system] = {
            "throughput_jobs_per_min": result.throughput_jobs_per_min,
            "makespan": result.makespan,
            "failed": result.failed_jobs,
        }
    return {"summary": summary, "events": events, "sim_time": sim_time, "obs": None}


def chaos(
    seed: int = 11,
    obs_label: Optional[str] = None,
    profile: bool = False,
    recovery: bool = True,
    race: bool = False,
) -> Dict[str, Any]:
    """Node-crash recovery (the chaos capstone).

    *seed* feeds the chaos engine's fault-injection RNG, so a sweep over
    seeds explores different crash victims with the same workload.
    ``recovery=False`` is the capstone's control run: the same fault with
    the node-lifecycle controller off, so nothing notices the dead node.
    """
    from ..analysis.resets import reset_all
    from ..chaos import ChaosEngine
    from ..cluster import Cluster, ClusterConfig
    from ..core import KubeShare
    from ..sim import Environment
    from ..workloads.jobs import InferenceJob

    reset_all()
    env = Environment()
    cluster = Cluster(
        env, ClusterConfig(nodes=4, gpus_per_node=2, node_lifecycle=recovery)
    ).start()
    detector = _install_race(cluster, race)
    ks = KubeShare(cluster, isolation="token").start()
    hub = _install_obs(env, cluster, ks, obs_label, profile)

    stats = []
    names = []
    for i in range(6):
        job = InferenceJob.from_demand(f"job{i}", demand=0.35, duration=400.0)
        workload = job.workload()
        stats.append(workload.stats)
        names.append(f"sp{i}")
        ks.submit(
            ks.make_sharepod(
                f"sp{i}",
                gpu_request=0.35,
                gpu_limit=0.6,
                gpu_mem=0.3,
                workload=workload,
                restart_policy="reschedule",
            )
        )

    engine = ChaosEngine(cluster, kubeshare=ks, seed=seed)
    engine.node_crash(at=45.0)
    engine.start()

    def total_work() -> float:
        return sum(s.work_done for s in stats)

    def rate(t0: float, t1: float) -> float:
        if env.now < t0:
            env.run(until=t0)
        w0 = total_work()
        env.run(until=t1)
        return (total_work() - w0) / (t1 - t0)

    pre_rate = rate(25.0, 40.0)
    post_rate = rate(70.0, 85.0)

    summary = {
        "pre_rate": pre_rate,
        "post_rate": post_rate,
        "chaos_log": [(t, f.kind.value, v, o) for t, f, v, o in engine.log],
        "placed": {
            n: (ks.get(n).status.phase.value, ks.get(n).spec.node_name)
            for n in names
        },
        "rescheduled": ks.devmgr.sharepods_rescheduled_total,
        "torn_down": ks.devmgr.vgpus_torn_down_total,
    }
    obs = _finish_obs(hub)
    if detector is not None:
        detector.check()
    return {
        "summary": summary,
        "events": env.events_processed,
        "sim_time": env.now,
        "obs": obs,
    }


def failover(
    seed: int = 13,
    obs_label: Optional[str] = None,
    profile: bool = False,
    replicas: int = 2,
    race: bool = False,
) -> Dict[str, Any]:
    """HA leader failover mid-burst (the leader-election capstone).

    *seed* feeds the chaos engine's fault-injection RNG (see
    :func:`chaos`). ``replicas=1`` is the capstone's control run: an
    elected group of one, so no standby and the control plane halts when
    its leader dies.
    """
    from ..analysis.resets import reset_all
    from ..chaos import ChaosEngine
    from ..cluster import Cluster, ClusterConfig
    from ..core import KubeShare
    from ..sim import Environment
    from ..workloads.jobs import InferenceJob

    reset_all()
    env = Environment()
    cluster = Cluster(env, ClusterConfig(nodes=4, gpus_per_node=2)).start()
    detector = _install_race(cluster, race)
    ks = KubeShare(cluster, isolation="token", replicas=replicas).start()
    hub = _install_obs(env, cluster, ks, obs_label, profile)

    steady = [f"steady{i}" for i in range(4)]
    burst = [f"burst{i}" for i in range(8)]
    for name in steady:
        job = InferenceJob.from_demand(name, demand=0.35, duration=400.0)
        ks.submit(
            ks.make_sharepod(
                name,
                gpu_request=0.35,
                gpu_limit=0.6,
                gpu_mem=0.3,
                workload=job.workload(),
            )
        )

    def submitter():
        for name in burst:
            job = InferenceJob.from_demand(name, demand=0.2, duration=200.0)
            ks.submit(
                ks.make_sharepod(
                    name,
                    gpu_request=0.2,
                    gpu_limit=0.4,
                    gpu_mem=0.3,
                    workload=job.workload(),
                )
            )
            yield env.timeout(1.25)

    def start_burst():
        yield env.timeout(40.0)
        env.process(submitter(), name="burst-submitter")

    env.process(start_burst(), name="burst-starter")

    engine = ChaosEngine(cluster, kubeshare=ks, seed=seed)
    engine.register_controllers(ks.sched_group, ks.devmgr_group)
    engine.controller_crash(at=45.0, target="kubeshare-devmgr")
    engine.start()

    env.run(until=70.0)

    summary = {
        "chaos_log": [(t, f.kind.value, v, o) for t, f, v, o in engine.log],
        "promotions": list(ks.devmgr_group.promotions),
        "sched_promotions": list(ks.sched_group.promotions),
        "placement": {
            n: (
                ks.get(n).status.phase.value,
                ks.get(n).spec.gpu_id,
                ks.get(n).status.pod_name,
            )
            for n in steady + burst
        },
        "pod_names": sorted(p.name for p in cluster.api.list("Pod")),
    }
    obs = _finish_obs(hub)
    if detector is not None:
        detector.check()
    return {
        "summary": summary,
        "events": env.events_processed,
        "sim_time": env.now,
        "obs": obs,
    }


def trace_replay(
    seed: int = 23,
    horizon: float = 360.0,
    mean_rate: float = 0.35,
    nodes: int = 8,
    gpus_per_node: int = 4,
    obs_label: Optional[str] = None,
) -> Dict[str, Any]:
    """Replay a canned Borg-shaped trace through KubeShare (full stack).

    The trace is generated at a fixed seed, round-tripped through the
    JSON-lines serializer (the replay always runs from the *canned* form,
    never the in-memory objects), and driven by the batched arrival-flow
    scheduler. The summary pins the trace bytes by digest, so a sampler
    or serializer change cannot slip through as a "perf" delta.
    """
    import hashlib

    from ..analysis.resets import reset_all
    from ..baselines.kubeshare_sys import KubeShareSystem
    from ..experiments.common import run_inference_workload
    from ..workloads.generator import InferenceWorkload
    from ..workloads.trace import dumps_trace, loads_trace, synthetic_borg_trace

    reset_all()
    del obs_label  # like fig8: no chaos/control-plane artifacts to capture
    canned = dumps_trace(synthetic_borg_trace(
        seed=seed,
        horizon=horizon,
        mean_rate=mean_rate,
        diurnal_amplitude=0.6,
        period=horizon / 2.0,
        max_duration=180.0,
    ))
    jobs = loads_trace(canned)
    workload = InferenceWorkload(
        jobs=jobs, jobs_per_minute=mean_rate * 60.0,
        demand_mean=0.0, demand_std=0.0, seed=seed,
    )
    result = run_inference_workload(
        KubeShareSystem, workload, nodes=nodes, gpus_per_node=gpus_per_node
    )
    env = result.extras["cluster"].env
    summary = {
        "trace_sha256": hashlib.sha256(canned.encode()).hexdigest(),
        "n_jobs": len(jobs),
        "throughput_jobs_per_min": result.throughput_jobs_per_min,
        "makespan": result.makespan,
        "failed": result.failed_jobs,
    }
    return {
        "summary": summary,
        "events": env.events_processed,
        "sim_time": env.now,
        "obs": None,
    }


#: name → scenario callable.
SCENARIOS = {
    "fig8": fig8,
    "chaos": chaos,
    "failover": failover,
    "trace_replay": trace_replay,
}
