"""Chaos recovery: throughput must return after losing a node mid-run.

The capstone for the failure-recovery machinery, run on the canonical
scenario :func:`repro.perf.scenarios.chaos`. A 4-node / 8-GPU cluster
serves six steady inference SharePods; at t=45 s the chaos engine crashes
the node hosting the most containers (deterministic, seeded). With the
recovery stack enabled (node leases → node-lifecycle controller →
eviction → DevMgr teardown → Algorithm 1 rescheduling) cluster throughput
returns to ≥90% of steady state within a bounded virtual-time window. The
control run repeats the *same* fault schedule with the recovery machinery
disabled (``recovery=False``) and demonstrably does not recover.

Both runs arm the race detector, observability and the profiler; every
assertion reads the scenario's summary and obs snapshot.
"""

import pytest

from repro.chaos import FaultKind
from repro.cluster.objects import PodPhase
from repro.perf import scenarios

pytestmark = pytest.mark.benchmark(group="chaos")

SEED = 11
FAULT_AT = 45.0
#: displaced SharePods must be RUNNING again within this many virtual
#: seconds of the crash (lease 4 s + eviction + reschedule + pod start).
RESCHEDULE_BOUND = 20.0
#: end of the scenario's post-fault throughput window.
POST_END = 85.0


def run_scenario(recovery: bool) -> dict:
    label = "chaos-recovery" if recovery else "chaos-control"
    return scenarios.chaos(
        SEED, obs_label=label, profile=True, recovery=recovery, race=True
    )


def involved(out, reason: str) -> set:
    return {e["involved_name"] for e in out["obs"]["events"] if e["reason"] == reason}


def displaced(out) -> dict:
    """SharePods whose container ran on the crashed node before the
    crash -> the (time, node) of each of their container starts after it."""
    summary = out["summary"]
    [(_, _, victim, _)] = summary["chaos_log"]
    starts = sorted(
        (e["first_time"], e["involved_name"], e["source"].split(":", 1)[1])
        for e in out["obs"]["events"]
        if e["reason"] == "Started" and e["involved_name"] in summary["placed"]
    )
    homes = {name: node for t, name, node in starts if t < FAULT_AT}
    moved = {name: [] for name, node in homes.items() if node == victim}
    for t, name, node in starts:
        if t > FAULT_AT and name in moved:
            moved[name].append((t, node))
    return moved


def _table(rec, ctl) -> str:
    rec_sum, ctl_sum = rec["summary"], ctl["summary"]
    lines = [
        "Chaos recovery — node crash at t=45 s (seed 11, busiest node)",
        f"{'':22s} {'recovery':>10s} {'no recovery':>12s}",
        f"{'steady rate (w/s)':22s} {rec_sum['pre_rate']:>10.3f} {ctl_sum['pre_rate']:>12.3f}",
        f"{'post-fault rate':22s} {rec_sum['post_rate']:>10.3f} {ctl_sum['post_rate']:>12.3f}",
        f"{'recovered fraction':22s} {rec_sum['post_rate'] / rec_sum['pre_rate']:>10.2f}"
        f" {ctl_sum['post_rate'] / ctl_sum['pre_rate']:>12.2f}",
        f"{'displaced SharePods':22s} {len(displaced(rec)):>10d} {len(displaced(ctl)):>12d}",
        f"{'rescheduled':22s} {rec_sum['rescheduled']:>10d} {ctl_sum['rescheduled']:>12d}",
    ]
    return "\n".join(lines)


def test_throughput_recovers_after_node_crash(report, benchmark, export_obs):
    rec = benchmark.pedantic(run_scenario, args=(True,), rounds=1, iterations=1)
    ctl = run_scenario(recovery=False)
    export_obs(rec["obs"])
    export_obs(ctl["obs"])
    report(_table(rec, ctl))
    summary = rec["summary"]

    # The fault fired and actually hit a busy node.
    [(_, kind, victim, outcome)] = summary["chaos_log"]
    assert kind == FaultKind.NODE_CRASH.value and outcome == "crashed"
    moved = displaced(rec)
    assert moved, "the crash must displace at least one SharePod"
    assert victim in involved(rec, "NodeNotReady")

    # Every displaced SharePod is rescheduled and its container started
    # on a surviving node within the bounded window after the crash, and
    # it is still RUNNING there at the end.
    rescheduled = involved(rec, "Rescheduled")
    for name, starts in moved.items():
        assert name in rescheduled, f"{name} never rescheduled"
        assert starts, f"{name} not recovered"
        t_start, node = starts[0]
        assert node != victim, f"{name} restarted on the dead node"
        assert t_start - FAULT_AT <= RESCHEDULE_BOUND, f"{name} started at {t_start}"
        phase, node = summary["placed"][name]
        assert phase == PodPhase.RUNNING.value, f"{name} not running: {phase}"
        assert node != victim, f"{name} still on the dead node"
    assert summary["rescheduled"] >= len(moved)
    assert summary["torn_down"] >= 1

    # Throughput back to ≥90% of steady state.
    assert summary["post_rate"] >= 0.9 * summary["pre_rate"]

    # The node loss burns through the schedule-latency error budget:
    # exactly one page-severity fast-burn alert fires and resolves once
    # the displaced SharePods are rescheduled.
    pages = [a for a in rec["obs"]["slo"]["alerts"] if a["severity"] == "page"]
    assert len(pages) == 1, f"expected exactly one page alert, got {pages}"
    [page] = pages
    assert page["slo"] == "sharepod-schedule-latency"
    assert page["fired_at"] >= FAULT_AT
    assert page["state"] == "resolved", "page alert must resolve after recovery"
    assert page["resolved_at"] <= POST_END

    # Same fault, no recovery machinery: the displaced work never comes
    # back, and cluster throughput stays depressed.
    assert displaced(ctl)
    assert ctl["summary"]["rescheduled"] == 0
    assert ctl["summary"]["post_rate"] < 0.75 * ctl["summary"]["pre_rate"]
