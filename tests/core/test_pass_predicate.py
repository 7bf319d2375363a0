"""A controller pass is queued only when it can act.

KubeShare-DevMgr and KubeShare-Sched each answer one predicate,
``would_act(key)``, which their work queues consult at every enqueue and
again when a key dirtied mid-pass would re-enter. The oracle runs
canonical scenarios, plus a small preemption storm for the policy
layer's drains and a fault mix for stopped controllers, outages and
request latency, twice: with the predicate live, and with it patched to
answer ``True`` always, which queues every key the way a controller
without one does. The runs must agree on the summary, the simulated
time, and every pass that wrote, waited or failed, logged as (start
time, controller, key, etcd revisions it wrote, yields, error). Only
passes that do nothing may go, and the live run must dispatch fewer
kernel events.
"""

import pytest

from repro.analysis.resets import reset_all
from repro.chaos import ChaosEngine, FaultKind
from repro.cluster import Cluster, ClusterConfig
from repro.cluster.etcd import Etcd
from repro.cluster.objects import GPU_RESOURCE, ContainerSpec, ObjectMeta, Pod, PodPhase, PodSpec
from repro.core import KubeShare
from repro.core.devmgr import KubeShareDevMgr
from repro.core.scheduler import KubeShareSched
from repro.perf import scenarios
from repro.policy import PolicyConfig
from repro.sim import Environment
from repro.workloads import TrainingJob
from repro.workloads.jobs import InferenceJob

CONTROLLERS = (KubeShareDevMgr, KubeShareSched)


class PassLog:
    """Every pass of the KubeShare controllers, recorded when it starts
    (so a pass still in flight when the run ends counts the same however
    late its generator is closed)."""

    def __init__(self, monkeypatch):
        #: [start time, controller, key, revisions written, yields, error].
        self._all = []
        #: worker process -> the record of its open pass.
        self._open = {}
        for cls in CONTROLLERS:
            monkeypatch.setattr(cls, "reconcile", self._logged(cls.reconcile))
        notify = Etcd._notify

        def attributed(etcd, event):
            entry = self._open.get(etcd._env.active_process)
            if entry is not None:
                entry[3].append(event.kv.mod_revision)
            notify(etcd, event)

        monkeypatch.setattr(Etcd, "_notify", attributed)

    @property
    def passes(self):
        """The passes that wrote, yielded or failed, in start order."""
        return [
            (t, name, key, tuple(revs), n, err)
            for t, name, key, revs, n, err in self._all
            if revs or n or err
        ]

    def _logged(self, reconcile):
        log = self

        def logged(self, key):
            proc = self.env.active_process
            entry = log._open[proc] = [self.env.now, self.name, key, [], 0, None]
            log._all.append(entry)
            inner = reconcile(self, key)
            try:
                target = next(inner)
                while True:
                    entry[4] += 1
                    try:
                        value = yield target
                    except BaseException as exc:  # noqa: BLE001 - forwarded to the pass
                        target = inner.throw(exc)
                    else:
                        target = inner.send(value)
            except StopIteration:
                pass
            except Exception as err:
                entry[5] = repr(err)
                raise
            finally:
                del log._open[proc]

        return logged


def run_logged(run, monkeypatch, predicate):
    with monkeypatch.context() as m:
        if not predicate:
            for cls in CONTROLLERS:
                m.setattr(cls, "would_act", lambda self, key: True)
        log = PassLog(m)
        out = run()
        return out, log.passes


def storm():
    """Low-priority jobs fill four GPUs, then high-priority arrivals evict
    some of them through DevMgr's drain: eviction annotations, forced
    teardowns and backoff requeues."""
    reset_all()
    env = Environment()
    cluster = Cluster(env, ClusterConfig(nodes=2, gpus_per_node=2)).start()
    ks = KubeShare(cluster, contention=PolicyConfig(drain_window=1.0)).start()
    ks.policy_layer.create_priority_class("high", 100)
    for i in range(8):
        job = InferenceJob.from_demand(f"low{i}", demand=0.5, duration=60.0)
        ks.submit(ks.make_sharepod(
            f"low{i}", gpu_request=0.5, gpu_limit=1.0, gpu_mem=0.3, workload=job.workload(),
        ))
    engine = ChaosEngine(cluster, kubeshare=ks, seed=5)
    engine.preemption_storm(at=10.0, count=3, window=2.0, gpu_request=0.5, job_duration=5.0)
    engine.start()
    env.run(until=40.0)
    summary = {
        "log": [(t, f and f.kind.value, v, o) for t, f, v, o in engine.log],
        "evicted": ks.devmgr.sharepods_evicted_total,
        "phases": {sp.metadata.key: sp.status.phase.value for sp in cluster.api.list("SharePod")},
    }
    return {"summary": summary, "events": env.events_processed, "sim_time": env.now}


def faults():
    """Leader-elected KubeShare under a seeded fault mix: node, GPU,
    container and token-daemon faults, apiserver outages and request
    latency, a paused DevMgr and Sched, then a crashed DevMgr leader.
    Passes that fail on an outage are in the log, so a queue that skipped
    them would show."""
    reset_all()
    env = Environment()
    cluster = Cluster(env, ClusterConfig(nodes=3, gpus_per_node=2)).start()
    api = cluster.api
    ks = KubeShare(cluster, isolation="token", replicas=2).start()

    def submitter():
        for i in range(14):
            job = InferenceJob.from_demand(f"j{i}", demand=0.3, duration=25.0 + 5 * (i % 4))
            sp = ks.make_sharepod(
                f"j{i}", gpu_request=0.3, gpu_limit=0.6, gpu_mem=0.3,
                workload=job.workload(), restart_policy="reschedule",
            )
            while not api.available:
                yield env.timeout(api.down_until - env.now)
            ks.submit(sp)
            yield env.timeout(2.5)

    env.process(submitter(), name="submitter")
    engine = ChaosEngine(cluster, kubeshare=ks, seed=1)
    engine.register_controllers(ks.sched_group, ks.devmgr_group)
    engine.controller_pause(at=13.0, duration=1.5, target="kubeshare-devmgr")
    engine.controller_pause(at=21.0, duration=1.0, target="kubeshare-sched")
    engine.controller_crash(at=31.0, target="kubeshare-devmgr")
    engine.random_faults(
        horizon=60.0, rate=1 / 8.0, start=5.0,
        kinds=[
            FaultKind.NODE_CRASH, FaultKind.GPU_FAILURE, FaultKind.CONTAINER_CRASH,
            FaultKind.APISERVER_OUTAGE, FaultKind.APISERVER_LATENCY, FaultKind.BACKEND_RESTART,
        ],
    )
    engine.start()
    env.run(until=80.0)
    summary = {
        "log": [(t, f and f.kind.value, v, o) for t, f, v, o in engine.log],
        "sharepods": sorted(
            (sp.metadata.key, sp.status.phase.value, sp.spec.gpu_id, sp.status.start_time)
            for sp in api.list("SharePod")
        ),
        "revision": cluster.etcd.revision,
    }
    return {"summary": summary, "events": env.events_processed, "sim_time": env.now}


SCENARIOS = {
    "fig8": lambda: scenarios.fig8(n_jobs=40, seed=7),
    "chaos": lambda: scenarios.chaos(11),
    "failover": lambda: scenarios.failover(13),
    "trace_replay": lambda: scenarios.trace_replay(0, horizon=120.0),
    "storm": storm,
    "faults": faults,
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_the_predicate_skips_only_passes_that_do_nothing(name, monkeypatch):
    live, live_passes = run_logged(SCENARIOS[name], monkeypatch, predicate=True)
    every, every_passes = run_logged(SCENARIOS[name], monkeypatch, predicate=False)
    assert live["summary"] == every["summary"]
    assert live["sim_time"] == every["sim_time"]
    assert live_passes == every_passes
    assert {controller for _, controller, *_ in live_passes} == {
        "kubeshare-devmgr",
        "kubeshare-sched",
    }
    assert live["events"] < every["events"]


def test_storm_drains_through_devmgr():
    assert storm()["summary"]["evicted"] > 0


def spy(monkeypatch, cls):
    """The key of every pass *cls* runs, in order."""
    keys = []
    reconcile = cls.reconcile

    def counted(self, key):
        keys.append(key)
        return reconcile(self, key)

    monkeypatch.setattr(cls, "reconcile", counted)
    return keys


def sharepod(ks, name, steps):
    job = TrainingJob(name, steps=steps, step_work=0.05)
    return ks.make_sharepod(
        name, gpu_request=0.4, gpu_limit=0.6, gpu_mem=0.3, workload=job.workload()
    )


def test_a_sharepod_on_a_materialized_vgpu_costs_devmgr_three_passes(env, monkeypatch):
    passes = spy(monkeypatch, KubeShareDevMgr)
    cluster = Cluster(env, ClusterConfig(nodes=1, gpus_per_node=1)).start()
    ks = KubeShare(cluster).start()
    ks.submit(sharepod(ks, "host", steps=10_000))
    env.run(until=5.0)
    assert ks.get("host").status.phase is PodPhase.RUNNING
    passes.clear()
    ks.submit(sharepod(ks, "guest", steps=20))
    env.run(until=env.process(ks.wait_all_terminal(["guest"])))
    env.run(until=env.now + 1.0)
    guest = ks.get("guest")
    assert guest.status.phase is PodPhase.SUCCEEDED
    assert guest.spec.gpu_id == ks.get("host").spec.gpu_id
    # Sched's GPUID (attach, create the real pod), the Running mirror and
    # the Succeeded mirror. Gone: the pass on the GPUID-less create, and
    # the echoes of DevMgr's own three SharePod patches.
    assert passes == ["default/guest"] * 3


def test_sched_runs_no_pass_for_a_key_bound_while_its_pass_was_in_flight(
    env, monkeypatch
):
    passes = spy(monkeypatch, KubeShareSched)
    cluster = Cluster(env, ClusterConfig(nodes=1, gpus_per_node=1)).start()
    ks = KubeShare(cluster).start()
    ks.submit(sharepod(ks, "doomed", steps=20))
    ks.submit(sharepod(ks, "bound", steps=20))
    env.run(until=ks.sched.op_latency / 2)
    # Both passes wait out the scheduling round-trip. A deletion frees
    # capacity and wakes every waiting SharePod, so the key whose pass is
    # in flight is marked dirty; that pass then binds it.
    ks.delete("doomed")
    env.run(until=1.0)
    assert ks.get("bound").spec.gpu_id is not None
    assert passes.count("default/bound") == 1


def test_a_sharepod_failed_from_outside_is_still_detached(env):
    """No DevMgr pass of its own made it terminal, so the SharePod is
    still bound when its terminal commit asks the predicate."""
    cluster = Cluster(env, ClusterConfig(nodes=1, gpus_per_node=1)).start()
    ks = KubeShare(cluster).start()
    ks.submit(sharepod(ks, "victim", steps=10_000))
    env.run(until=5.0)
    gpuid = ks.get("victim").spec.gpu_id
    assert ks.pool.get(gpuid).attached == {"default/victim"}

    def fail(sp):
        sp.status.phase = PodPhase.FAILED

    cluster.api.patch("SharePod", "victim", fail)
    env.run(until=6.0)
    # On-demand pooling releases the vGPU its last SharePod left.
    assert ks.pool.get(gpuid) is None
    assert cluster.api.get("Pod", f"vgpu-holder-{gpuid}") is None


def test_a_placeholder_deleted_before_it_materializes_is_recreated(env):
    """The Pod watch forgets a deleted placeholder's phase, so the DELETE
    requeues the attached SharePod, whose pass finds it gone."""
    cluster = Cluster(env, ClusterConfig(nodes=1, gpus_per_node=1)).start()
    blocker = Pod(
        metadata=ObjectMeta(name="blocker"),
        spec=PodSpec(containers=[ContainerSpec(requests={GPU_RESOURCE: 1})]),
    )
    cluster.api.create(blocker)
    ks = KubeShare(cluster).start()
    ks.submit(sharepod(ks, "waiting", steps=20))
    env.run(until=2.0)
    gpuid = ks.get("waiting").spec.gpu_id
    holder = f"vgpu-holder-{gpuid}"
    assert cluster.api.get("Pod", holder).status.phase is PodPhase.PENDING
    cluster.api.delete("Pod", holder)
    env.run(until=4.0)
    assert cluster.api.get("Pod", holder) is not None
    assert any("disappeared" in err for _, _, err in ks.devmgr.reconcile_errors)
    cluster.api.delete("Pod", "blocker")
    env.run(until=10.0)
    assert ks.get("waiting").status.phase is PodPhase.SUCCEEDED
