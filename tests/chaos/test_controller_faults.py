"""Controller-replica faults: seeded, replayable chaos schedules.

CONTROLLER_CRASH kills a leader (standby takes over), CONTROLLER_RESTART
boots it back as a standby, CONTROLLER_PAUSE freezes a leader and lets it
resume with a stale lease epoch. Same seed + same schedule must produce
an identical fault log and identical promotion history.
"""


from repro.chaos import ChaosEngine, FaultKind
from repro.cluster import Cluster, ClusterConfig
from repro.cluster.leaderelection import ReplicaState
from repro.core import HAKubeShare
from repro.cluster.objects import PodPhase
from repro.sim import Environment
from repro.workloads import TrainingJob


def build(seed=3):
    env = Environment()
    cluster = Cluster(env, ClusterConfig(nodes=2, gpus_per_node=2)).start()
    ks = HAKubeShare(
        cluster,
        replicas=2,
        lease_duration=1.0,
        renew_interval=0.2,
        retry_interval=0.2,
    ).start()
    engine = ChaosEngine(cluster, kubeshare=ks, seed=seed)
    engine.register_controllers(ks.sched_group, ks.devmgr_group)
    return env, ks, engine


class TestControllerFaults:
    def test_crash_hits_the_leader_and_standby_takes_over(self):
        env, ks, engine = build()
        engine.controller_crash(at=5.0, target="kubeshare-devmgr")
        engine.start()
        env.run(until=5.0 + ks.devmgr_group.failover_bound + 0.01)
        [(t, fault, victim, outcome)] = engine.log
        assert fault.kind is FaultKind.CONTROLLER_CRASH
        assert outcome == "crashed"
        crashed = ks.devmgr_group.replica(victim)
        assert crashed.state is ReplicaState.CRASHED
        # The victim was the then-leader; another replica now leads.
        assert ks.devmgr_group.promotions[0][1] == victim
        leader = ks.devmgr_group.leader
        assert leader is not None and leader is not crashed
        assert len(ks.devmgr_group.promotions) == 2

    def test_restart_rejoins_crashed_replica_as_standby(self):
        env, ks, engine = build()
        engine.controller_crash(at=5.0, target="kubeshare-devmgr")
        engine.controller_restart(at=12.0, target="kubeshare-devmgr")
        engine.start()
        env.run(until=20.0)
        crash_victim = engine.log[0][2]
        restarted = engine.log[1][2]
        assert restarted == crash_victim
        assert engine.log[1][3] == "restarted as standby"
        replica = ks.devmgr_group.replica(restarted)
        assert replica.state is ReplicaState.STANDBY
        # It stands by — no third promotion just because it came back.
        assert len(ks.devmgr_group.promotions) == 2

    def test_pause_targets_a_leader_and_it_resumes(self):
        env, ks, engine = build()
        engine.controller_pause(at=5.0, duration=3.0, target="kubeshare-sched")
        engine.start()
        env.run(until=6.0)
        [(t, fault, victim, outcome)] = engine.log
        assert fault.kind is FaultKind.CONTROLLER_PAUSE
        assert outcome == "paused for 3.00s"
        replica = ks.sched_group.replica(victim)
        assert replica.state is ReplicaState.PAUSED
        env.run(until=15.0)
        # Deposed while frozen; resumed, noticed, and stood down.
        assert replica.state is ReplicaState.STANDBY
        assert len(ks.sched_group.promotions) == 2

    def test_short_pause_loses_no_sharepod(self):
        """A leader paused for less than its lease resumes leading with
        restarted workers; every SharePod submitted afterwards runs."""
        env = Environment()
        cluster = Cluster(env, ClusterConfig(nodes=2, gpus_per_node=2)).start()
        ks = HAKubeShare(cluster, replicas=2).start()
        engine = ChaosEngine(cluster, kubeshare=ks, seed=3)
        engine.register_controllers(ks.sched_group, ks.devmgr_group)
        engine.controller_pause(at=5.0, duration=0.5, target="kubeshare-sched")
        engine.start()
        names = [f"sp{i}" for i in range(8)]

        def submit():
            yield env.timeout(7.0)
            for name in names:
                job = TrainingJob(name, steps=10_000, step_work=0.05)
                ks.submit(ks.make_sharepod(
                    name, gpu_request=0.4, gpu_limit=0.5, gpu_mem=0.3,
                    workload=job.workload(),
                ))

        env.process(submit())
        env.run(until=40.0)
        [(_, _, victim, outcome)] = engine.log
        assert outcome == "paused for 0.50s"
        assert ks.sched_group.leader is ks.sched_group.replica(victim)
        assert len(ks.sched_group.promotions) == 1
        assert {ks.get(n).status.phase for n in names} == {PodPhase.RUNNING}

    def test_untargeted_faults_prefer_leaders(self):
        env, ks, engine = build()
        engine.controller_crash(at=5.0)  # no target: any registered group
        engine.start()
        env.run(until=6.0)
        [(t, fault, victim, outcome)] = engine.log
        assert outcome == "crashed"
        # The seeded pick is always a leader when one exists.
        group = ks.sched_group if victim.startswith("kubeshare-sched") else ks.devmgr_group
        assert group.promotions[0][1] == victim

    def test_faults_without_candidates_are_noops(self):
        env, ks, engine = build()
        engine.controller_restart(at=5.0)  # nothing crashed yet
        engine.start()
        env.run(until=6.0)
        [(t, fault, victim, outcome)] = engine.log
        assert victim is None
        assert outcome.startswith("no-op")


class TestReplayability:
    def run_once(self, seed):
        env, ks, engine = build(seed=seed)
        engine.controller_crash(at=5.0)
        engine.controller_restart(at=12.0)
        engine.controller_pause(at=20.0, duration=2.0)
        engine.start()
        env.run(until=30.0)
        log = [(t, f.kind, victim, outcome) for t, f, victim, outcome in engine.log]
        promotions = {
            "sched": ks.sched_group.promotions,
            "devmgr": ks.devmgr_group.promotions,
        }
        return log, promotions

    def test_same_seed_same_log_and_promotions(self):
        first = self.run_once(seed=9)
        second = self.run_once(seed=9)
        assert first == second

    def test_log_records_every_fault(self):
        log, promotions = self.run_once(seed=9)
        assert [kind for _, kind, _, _ in log] == [
            FaultKind.CONTROLLER_CRASH,
            FaultKind.CONTROLLER_RESTART,
            FaultKind.CONTROLLER_PAUSE,
        ]
        # Crash forced a failover in the victim's group.
        victim = log[0][2]
        group = "sched" if victim.startswith("kubeshare-sched") else "devmgr"
        assert len(promotions[group]) >= 2
