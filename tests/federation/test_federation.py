"""End-to-end federation semantics: two-tier placement, static stability
under partition, exactly-once evacuation from a dead cluster, and the
stale-copy reconciliation that runs when a cluster returns.
"""

import pytest

from repro.chaos import ChaosEngine
from repro.federation import (
    ANN_GENERATION,
    ANN_RECORD,
    ClusterHealth,
    Federation,
    FederationConfig,
    StaleGeneration,
)
from repro.sim import Environment
from repro.workloads.jobs import TrainingJob


def small_config(**kw):
    kw.setdefault("members", ("alpha", "beta"))
    kw.setdefault("nodes_per_cluster", 1)
    kw.setdefault("gpus_per_node", 2)
    kw.setdefault("replicas", 1)
    kw.setdefault("probe_interval", 0.5)
    kw.setdefault("probe_timeout", 0.2)
    kw.setdefault("suspect_after", 2)
    kw.setdefault("dead_after", 4.0)
    return FederationConfig(**kw)


def submit_job(fed, name, steps=40, gpu_request=0.45):
    job = TrainingJob(name, steps=steps, step_work=0.05)
    return fed.submit(
        name,
        gpu_request=gpu_request,
        gpu_limit=1.0,
        gpu_mem=0.3,
        workload_factory=job.workload,
    )


def current_generation_copies(fed):
    """record name → [(cluster, generation)] of live copies at the
    record's *current* generation — the double-placement invariant says
    every list here has length ≤ 1."""
    out = {}
    for name, copies in fed.live_copies().items():
        record = fed.registry.get(name)
        if record is None:
            continue
        out[name] = [
            (cluster, gen)
            for cluster, _, gen in copies
            if gen == record.spec.generation
        ]
    return out


class TestPlacement:
    def test_jobs_place_run_and_fold_back(self):
        fed = Federation(Environment(), small_config()).start()
        for i in range(4):
            submit_job(fed, f"job{i}")
        fed.env.run(until=40.0)
        assert fed.placer.placed_total == 4
        assert fed.completed_records() == ["job0", "job1", "job2", "job3"]
        assert fed.live_copies() == {}

    def test_member_scheduler_owns_gpu_choice(self):
        """The federation never writes a gpu_id — the member's own
        Algorithm 1 scheduler assigns the vGPU after the copy lands."""
        fed = Federation(Environment(), small_config()).start()
        submit_job(fed, "job0")
        fed.env.run(until=10.0)
        copies = [
            sp
            for member in fed.members.values()
            for sp in member.api.list("SharePod")
            if sp.metadata.annotations.get(ANN_RECORD) == "job0"
        ]
        assert len(copies) == 1
        assert copies[0].spec.gpu_id is not None  # assigned by the member
        assert copies[0].metadata.annotations[ANN_GENERATION] == "1"

    def test_overload_defers_until_capacity_frees(self):
        config = small_config(members=("alpha",), gpus_per_node=1)
        fed = Federation(Environment(), config).start()
        # 0.6 each on a single 1.0-util GPU: the second must wait its turn.
        submit_job(fed, "first", steps=30, gpu_request=0.6)
        submit_job(fed, "second", steps=30, gpu_request=0.6)
        fed.env.run(until=60.0)
        assert fed.placer.deferred_total >= 1
        assert fed.completed_records() == ["first", "second"]

    def test_suspect_cluster_receives_no_new_work(self):
        fed = Federation(Environment(), small_config()).start()
        fed.env.run(until=2.0)
        fed.members["alpha"].partition(3.0)
        fed.env.run(until=4.5)
        assert fed.prober.state["alpha"] is ClusterHealth.SUSPECT
        submit_job(fed, "job0")
        fed.env.run(until=30.0)
        copies = fed.live_copies().get("job0", [])
        placed_on = {c for c, _, _ in copies}
        assert "alpha" not in placed_on
        assert fed.registry.get("job0").spec.cluster == "beta"


    def test_restarted_placer_places_new_records(self):
        """A placer stopped while it waits on its queue gives up its get,
        so the restarted placer receives the next record."""
        fed = Federation(Environment(), small_config()).start()
        fed.env.run(until=1.0)
        fed.placer.stop()
        fed.placer.start()
        submit_job(fed, "j1")
        fed.env.run(until=20.0)
        assert fed.registry.get("j1").spec.cluster == "alpha"
        assert fed.completed_records() == ["j1"]
        assert len(fed.placer.queue) == 0


class TestStaticStability:
    def test_partitioned_cluster_keeps_serving_local_work(self):
        """A partition cuts the federation link only: jobs already running
        on the member finish undisturbed, and nothing is rescheduled."""
        fed = Federation(Environment(), small_config()).start()
        submit_job(fed, "job0", steps=100)
        fed.env.run(until=3.0)
        owner = fed.registry.get("job0").spec.cluster
        fed.members[owner].partition(3.0)  # Suspect-depth, heals before dead
        fed.env.run(until=60.0)
        assert fed.placer.rescheduled_total == 0
        assert fed.registry.get("job0").spec.cluster == owner
        assert fed.registry.get("job0").spec.generation == 1
        assert fed.completed_records() == ["job0"]


class TestEvacuation:
    def test_dead_cluster_workloads_reschedule_exactly_once(self):
        fed = Federation(Environment(), small_config()).start()
        for i in range(3):
            submit_job(fed, f"job{i}", steps=200)
        fed.env.run(until=3.0)
        owners = {n: fed.registry.get(n).spec.cluster for n in ("job0", "job1", "job2")}
        victim = "alpha" if list(owners.values()).count("alpha") else "beta"
        moved = [n for n, c in owners.items() if c == victim]
        fed.members[victim].outage()
        fed.env.run(until=120.0)
        assert fed.placer.rescheduled_total == len(moved)
        assert fed.placer.fence_rejections_total == 0
        for name in moved:
            record = fed.registry.get(name)
            assert record.spec.cluster != victim
            assert record.spec.generation == 2
        assert fed.completed_records() == ["job0", "job1", "job2"]
        # No record ever holds two live copies at its current generation.
        for copies in current_generation_copies(fed).values():
            assert len(copies) <= 1

    def test_concurrent_evacuators_fence_to_one_winner(self):
        """Two evacuation sweeps racing over the same dead cluster: the
        generation CAS lets exactly one (re)placement through per record."""
        fed = Federation(Environment(), small_config()).start()
        submit_job(fed, "job0", steps=200)
        fed.env.run(until=3.0)
        victim = fed.registry.get("job0").spec.cluster
        fed.members[victim].outage()
        fed.env.run(until=10.0)
        assert fed.prober.state[victim] is ClusterHealth.DEAD
        # A second, duplicate Dead notification — as a healed-then-dead
        # flap would produce.
        fed.placer.on_cluster_dead(victim)
        fed.env.run(until=120.0)
        total_placements = fed.placer.rescheduled_total
        rejected = fed.placer.fence_rejections_total
        assert total_placements == 1  # one winner
        assert fed.registry.get("job0").spec.generation == 2
        assert fed.completed_records() == ["job0"]
        assert rejected <= 1  # the loser lost the CAS, silently

    def test_direct_stale_advance_is_rejected(self):
        fed = Federation(Environment(), small_config()).start()
        submit_job(fed, "job0")
        fed.env.run(until=3.0)
        with pytest.raises(StaleGeneration):
            fed.registry.advance("job0", "beta", expect_generation=0)


class TestHealMidReschedule:
    def test_partition_healing_after_evacuation_cannot_double_place(self):
        """The ISSUE's headline race: a cluster partitioned long enough to
        be declared Dead keeps running its copies (it never crashed); the
        placer evacuates; then the partition heals. The stale-generation
        copies on the returning cluster are fenced off and deleted, each
        record completes exactly once, and no record ever has two live
        copies at its current generation."""
        fed = Federation(Environment(), small_config()).start()
        for i in range(2):
            submit_job(fed, f"job{i}", steps=400)
        fed.env.run(until=3.0)
        owners = {n: fed.registry.get(n).spec.cluster for n in ("job0", "job1")}
        victim = "alpha" if list(owners.values()).count("alpha") else "beta"
        moved = [n for n, c in owners.items() if c == victim]
        # Partition past dead_after, healing shortly after the evacuation
        # sweep begins.
        fed.members[victim].partition(8.0)
        fed.env.run(until=30.0)
        assert fed.prober.state[victim] is ClusterHealth.HEALTHY
        # Evacuated once each; the healed side was fenced off and revoked.
        assert fed.placer.rescheduled_total == len(moved)
        assert fed.placer.revoked_stale_total == len(moved)
        for name in moved:
            assert fed.registry.get(name).spec.cluster != victim
        for copies in current_generation_copies(fed).values():
            assert len(copies) <= 1
        fed.env.run(until=150.0)
        assert fed.completed_records() == ["job0", "job1"]
        # The stale copies' outcomes never overwrote the records (each
        # record completed at its current generation, exactly once).
        for name in moved:
            assert fed.registry.get(name).spec.generation == 2


class TestChaosIntegration:
    def test_cluster_outage_fault_kind(self):
        fed = Federation(Environment(), small_config()).start()
        engine = ChaosEngine(
            fed.members["alpha"].cluster, seed=3
        ).register_federation(fed)
        engine.cluster_outage(at=2.0, target="alpha")
        engine.start()
        fed.env.run(until=12.0)
        assert fed.prober.state["alpha"] is ClusterHealth.DEAD
        (_, fault, target, outcome), = engine.log
        assert target == "alpha"
        assert "dark permanently" in outcome

    def test_federation_partition_fault_kind(self):
        fed = Federation(Environment(), small_config()).start()
        engine = ChaosEngine(
            fed.members["alpha"].cluster, seed=3
        ).register_federation(fed)
        engine.federation_partition(at=2.0, duration=2.0, target="beta")
        engine.start()
        fed.env.run(until=5.0)
        assert fed.prober.state["beta"] is ClusterHealth.SUSPECT
        fed.env.run(until=12.0)
        assert fed.prober.state["beta"] is ClusterHealth.HEALTHY

    def test_unregistered_federation_is_noop(self):
        fed = Federation(Environment(), small_config()).start()
        engine = ChaosEngine(fed.members["alpha"].cluster, seed=3)
        engine.cluster_outage(at=1.0)
        engine.start()
        fed.env.run(until=10.0)
        (_, _, _, outcome), = engine.log
        assert outcome.startswith("no-op")
        assert fed.prober.state["alpha"] is ClusterHealth.HEALTHY

    def test_seeded_member_pick_is_deterministic(self):
        def victims():
            fed = Federation(Environment(), small_config()).start()
            engine = ChaosEngine(
                fed.members["alpha"].cluster, seed=11
            ).register_federation(fed)
            engine.federation_partition(at=1.0, duration=1.0)
            engine.start()
            fed.env.run(until=3.0)
            return [t for _, _, t, _ in engine.log]

        assert victims() == victims()


class TestDeterminism:
    def test_identical_seeds_replay_identically(self):
        from repro.analysis.resets import reset_all

        def run():
            reset_all()  # fresh-process counters for an exact replay
            fed = Federation(Environment(), small_config()).start()
            for i in range(3):
                submit_job(fed, f"job{i}", steps=100)
            fed.env.run(until=5.0)
            fed.members["alpha"].outage()
            fed.env.run(until=90.0)
            return {
                "completed": fed.completed_records(),
                "rescheduled": fed.placer.rescheduled_total,
                "transitions": fed.prober.transitions,
                "records": [
                    (r.metadata.name, r.spec.cluster, r.spec.generation)
                    for r in fed.registry.list()
                ],
            }

        assert run() == run()
