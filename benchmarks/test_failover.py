"""HA failover: kill the active DevMgr mid-burst, the standby takes over.

The capstone for the leader-elected control plane, run on the canonical
scenario :func:`repro.perf.scenarios.failover`. A 4-node / 8-GPU cluster
runs KubeShare with two replicas of each controller; four steady
inference SharePods are joined by an eight-SharePod submission burst
starting at t=40 s, and at t=45 s the chaos engine kills the active
DevMgr replica. The hot standby must acquire the lease and finish the
burst: every SharePod scheduled and running, and the new leader's first
reconcile within the lease-expiry failover bound. The control run
repeats the same schedule with a single replica — the control plane
halts and the tail of the burst is never bound.

Both runs arm the race detector, which checks at every write that no
vGPU is double-bound or over-committed, plus observability and the
profiler; every assertion reads the scenario's summary and obs snapshot.
The goldens in ``tests/perf`` pin that the same seed replays the same
promotions and placement.
"""

import pytest

from repro.chaos import FaultKind
from repro.cluster.objects import PodPhase
from repro.perf import scenarios

pytestmark = pytest.mark.benchmark(group="chaos")

SEED = 13
FAULT_AT = 45.0
#: worst-case promotion delay: lease duration 3.0 + renew interval 0.5 +
#: retry interval 0.5, ``HAControllerGroup.failover_bound`` at its defaults.
FAILOVER_BOUND = 4.0

_RUNNING = PodPhase.RUNNING.value
_PENDING = PodPhase.PENDING.value


def run_scenario(replicas: int) -> dict:
    return scenarios.failover(
        SEED, obs_label=f"failover-r{replicas}", profile=True, replicas=replicas, race=True
    )


def first_reconcile_after_crash(out):
    spans = out["obs"]["spans"]
    starts = [s["start"] for s in spans if s["track"] == "kubeshare-devmgr"
              and s["name"] == "reconcile" and s["start"] > FAULT_AT]
    return min(starts, default=None)


def _count(out, phase: str) -> int:
    return sum(1 for p, _, _ in out["summary"]["placement"].values() if p == phase)


def _table(ha, ctl) -> str:
    promotions = ha["summary"]["promotions"]
    t_promo = promotions[1][0] if len(promotions) > 1 else float("nan")
    lines = [
        "HA failover — DevMgr leader killed at t=45 s mid-burst (seed 13)",
        f"{'':28s} {'2 replicas':>12s} {'1 replica':>12s}",
        f"{'promotions':28s} {len(promotions):>12d} {len(ctl['summary']['promotions']):>12d}",
        f"{'standby promoted at (s)':28s} {t_promo:>12.2f} {'—':>12s}",
        f"{'failover bound (s)':28s} {FAILOVER_BOUND:>12.2f} {FAILOVER_BOUND:>12.2f}",
        f"{'running SharePods at t=70':28s}"
        f" {_count(ha, _RUNNING):>12d} {_count(ctl, _RUNNING):>12d}",
        f"{'stuck PENDING at t=70':28s} {0:>12d} {_count(ctl, _PENDING):>12d}",
    ]
    return "\n".join(lines)


def test_standby_takes_over_and_finishes_the_burst(report, benchmark, export_obs):
    ha = benchmark.pedantic(run_scenario, args=(2,), rounds=1, iterations=1)
    ctl = run_scenario(replicas=1)
    export_obs(ha["obs"])
    export_obs(ctl["obs"])
    report(_table(ha, ctl))
    summary = ha["summary"]

    # The fault fired and killed the then-active DevMgr leader.
    [(_, kind, victim, outcome)] = summary["chaos_log"]
    assert kind == FaultKind.CONTROLLER_CRASH.value and outcome == "crashed"
    assert summary["promotions"][0][1] == victim

    # The standby was promoted within the lease-expiry failover bound...
    assert len(summary["promotions"]) == 2
    t_promo, successor, epoch = summary["promotions"][1]
    assert successor != victim
    assert epoch == 2
    assert t_promo - FAULT_AT <= FAILOVER_BOUND
    # ...and reconciled promptly after rebuilding state from the apiserver.
    first_reconcile_at = first_reconcile_after_crash(ha)
    assert first_reconcile_at is not None
    assert first_reconcile_at - FAULT_AT <= FAILOVER_BOUND + 0.5

    # Zero lost SharePods: everything submitted — including the part of
    # the burst that landed during the failover window — is scheduled,
    # bound, and running.
    for name, (phase, gpu_id, pod_name) in summary["placement"].items():
        assert phase == _RUNNING, f"{name}: {phase}"
        assert gpu_id is not None, f"{name} never scheduled"
        assert pod_name in summary["pod_names"], f"{name} has no pod"

    # A clean failover stays inside the error budget: the standby takes
    # over fast enough that no page-severity burn alert ever fires
    # (contrast with the chaos capstone, where node loss must page).
    pages = [a for a in ha["obs"]["slo"]["alerts"] if a["severity"] == "page"]
    assert not pages, f"failover should not page: {pages}"

    # Control: with a single replica the control plane halts — no second
    # promotion, and the tail of the burst is never bound to a pod.
    assert len(ctl["summary"]["promotions"]) == 1
    placement = ctl["summary"]["placement"]
    stuck = [
        name
        for name, (phase, _, pod_name) in placement.items()
        if phase == _PENDING and pod_name is None
    ]
    assert stuck, "single-replica control run unexpectedly recovered"
    assert all(name.startswith("burst") for name in stuck)
    # The data plane is untouched: steady SharePods keep running.
    for name, (phase, _, _) in placement.items():
        if name.startswith("steady"):
            assert phase == _RUNNING, f"{name}: {phase}"
