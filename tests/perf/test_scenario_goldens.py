"""Golden digests: the canonical scenarios' behaviour, byte for byte.

Each scenario is pinned three ways, all hardware-independent:

* the SHA-256 of its summary serialized as canonical JSON (sorted keys,
  no whitespace);
* its exact kernel event count (``env.events_processed``) — a lost
  coalescing or an extra wake shows up here even when the summary holds;
* for ``chaos`` and ``failover`` run with obs on (label ``"golden"``),
  the SHA-256 of the canonical-JSON ObsHub snapshot — spans, events,
  decision log, counters, every sampled series — and of the Chrome trace
  rendered from its spans. The trace digest does not depend on the label.
  These runs also arm the race detector, which must neither fire nor
  move a digest.

A change that moves any of these changes what the simulation computes,
and must say why in the history below. To refresh on purpose, print the
current values with ``PYTHONPATH=src python -m tests.perf.test_scenario_goldens``
and paste them in.

History of deliberate changes:

* ``fig8``: node leases stopped writing the Node on every renewal, so
  kube-scheduler no longer re-attempts every unschedulable pod once per
  heartbeat (it retries on Node PUTs, and heartbeats were Node PUTs).
  Only the native-Kubernetes half moved: makespan 170.333 -> 169.587 s,
  throughput 42.270 -> 42.456 jobs/min. KubeShare's half is unchanged.
  ``chaos``, ``failover`` and ``trace_replay`` kept their digests.
* event counts of all four, and both obs-snapshot digests: two kinds of
  kernel event that nobody acted on are gone. Each kubelet's Pod watch
  is scoped to its node (``spec.nodeName``) and filtered at the source,
  so other nodes' Pod events no longer wake it only to be dropped; and
  controllers resync after an apiserver outage from the outage hook
  instead of a 0.5 s poll. Events: chaos 25,686 -> 25,254, failover
  20,940 -> 20,551, trace_replay 15,641 -> 11,032, fig8 35,402 ->
  28,098; obs on, chaos 25,858 -> 25,426 and failover 21,082 -> 20,693.
  The obs snapshots moved only in their ``repro_sim_events_total``
  series. All four summary digests and both Chrome-trace digests held.
* event counts of all four, and both obs-snapshot digests: GPU-layer
  kernel events now carry only modelled work. When an allocation
  changes, the device re-times each running session's finish timer in
  place instead of firing a shared change event that woke every running
  session to do it; and the token backend's handoff, quota expiry and
  retry are timer callbacks instead of a process per grant, with the
  expiry tombstoned whenever the token ends early. Events: chaos 25,254
  -> 18,512, failover 20,551 -> 15,380, trace_replay 11,032 -> 9,086,
  fig8 28,098 -> 24,918; obs on, chaos 25,426 -> 18,684 and failover
  20,693 -> 15,522. The obs snapshots moved only in their
  ``repro_sim_events_total`` series. All four summary digests and both
  Chrome-trace digests held.
* event counts of all four, and both obs-snapshot and Chrome-trace
  digests: a subroutine is not a process. A controller worker runs its
  reconcile pass, a kubelet runs the runtime's container start and stop,
  and the experiment drivers run ``wait_all``, inside the caller's own
  process instead of spawning a child only to wait for it. Each such
  child cost an ``Initialize`` and an exit event. Events: chaos 18,512
  -> 18,352, failover 15,380 -> 15,140, trace_replay 9,086 -> 7,076,
  fig8 24,918 -> 22,094; obs on, chaos 18,684 -> 18,524 and failover
  15,522 -> 15,282. The traces moved because a pass's ``reconcile``
  span is now on the stack of the process that makes the pass's writes:
  an apiserver write inside a pass is its child (and DevMgr's ``create
  Pod`` writes carry the SharePod's trace id); and a kubelet's
  ``update Pod`` to Running now precedes, in the same instant, the new
  container's first kernel launch (DESIGN §10.4). The obs snapshots
  moved only in ``repro_sim_events_total`` and in those span edges and
  orders. All four summary digests held.
* ``fig8`` and ``trace_replay`` event counts, and the ``trace_replay``
  summary digest: paced fluid servers. Under fluid isolation an
  inference server launches every request before its last batch as one
  paced launch, which the GPU engine serves in place as the requests
  arrive, instead of waking once per batch for its arrivals and once for
  its launch; the batch loop still serves the last batch. Events: fig8
  22,094 -> 19,101, trace_replay 7,076 -> 5,124. The ``fig8`` summary
  digest held. The ``trace_replay`` digest moved by one float: makespan
  527.6374602809567 -> 527.6374602809568 and throughput_jobs_per_min
  11.940016534545087 -> 11.940016534545085 (the last job's finish
  moved by one ulp). ``chaos`` and ``failover``, token isolation, kept
  every digest and count.
* ``chaos`` and ``failover`` event counts, and both obs-snapshot
  digests: a token hold is one engine session. Under token isolation the
  device library runs a launch as one session to the end of the quota or
  of the launch, instead of cutting it into 20 ms sessions inside one
  hold, each a process resume and a finish timer. Events: chaos 18,352
  -> 11,614, failover 15,140 -> 9,889; obs on, chaos 18,524 -> 11,786
  and failover 15,282 -> 10,031. The obs snapshots moved in
  ``repro_sim_events_total`` and in float tails only (relative at most
  about 1e-12), where a sum of 20 ms chunks and one session's time
  round differently: the quota-occupancy series, the token-wait
  windows and quantiles, and span start and end times. Counters,
  events, decisions and histogram bucket counts are identical. All four
  summary digests, both Chrome-trace digests, and every ``fig8`` and
  ``trace_replay`` value held. Fig 6, not pinned here, moved for the
  same cause: its job A ran 330 s of work as 16,501 chunks, whose
  ``remaining -= chunk`` subtractions left 5.016e-11 s of work at
  t = 724.958 s with 1.1e-13 s of token left, so A queued again for the
  residue and finished at 725.061 s; as 3,300 sessions it leaves none
  and finishes at 724.958 s (6,580 grants instead of 6,581).
* event counts of all four, and both obs-snapshot digests: a pod is one
  process. The kubelet's pod process allocates the devices, starts the
  container, runs the workload and writes its exit, where a pod used to
  be a ``startpod`` process, a ``container`` supervisor and its
  ``workload`` child, plus a ``teardown`` process on deletion; each of
  those cost an ``Initialize`` and an exit event, and a stop or kill
  went through the supervisor. Events: chaos 11,614 -> 11,586, failover
  9,889 -> 9,861, trace_replay 5,124 -> 4,539, fig8 19,101 -> 17,709;
  obs on, chaos 11,786 -> 11,758 and failover 10,031 -> 10,003. The obs
  snapshots moved only in their ``repro_sim_events_total`` series. All
  four summary digests and both Chrome-trace digests held.
* event counts of all four, and both obs-snapshot and Chrome-trace
  digests: a watch is a call. Informers, kubelets, the kube-scheduler's
  Pod and Node watches, DevMgr's Pod watch and the ReplicaSet and
  Deployment owner watches take each etcd event inside the commit,
  through a fan-out indexed by prefix and node, where each delivered
  event used to be a kernel event that only resumed the subscriber's
  process at the same instant. Events: chaos 11,586 -> 11,417, failover
  9,861 -> 9,617, trace_replay 4,539 -> 2,403, fig8 17,709 -> 14,166;
  obs on, chaos 11,758 -> 11,589 and failover 10,003 -> 9,759. The
  traces moved because spans are recorded in a different order and 4
  (chaos) and 13 (failover) zero-length DevMgr ``reconcile`` spans are
  gone: a key enqueued inside the commit is still pending when the next
  event for it arrives, so the work queue coalesces the no-op pass. The
  obs snapshots moved in those spans, in ``repro_sim_events_total``,
  DevMgr's reconcile-duration histogram, the informer-lag series and
  histogram (removed with this change: an informer that sees each commit
  inside the write trails only other kinds' commits), and three
  ``repro_workqueue_depth`` samples (t = 40 and 45 in failover, where a
  sampler tick shares the instant with a commit: 1 instead of 0).
  Events, decisions, counters and SLO are identical. All four summary
  digests held.
* event counts of all four, and both obs-snapshot and Chrome-trace
  digests: a pass is queued only when it can act, and a process exit
  nobody awaits is not an event. KubeShare-DevMgr's and
  KubeShare-Sched's work queues take a key only if the controller's
  predicate says a pass would act now (at every enqueue, and when a key
  dirtied mid-pass would re-enter), where they used to run passes that
  wrote nothing, waited for nothing and changed no memory; and a
  process that returns or is killed with no waiter is processed at
  once, where its exit used to be dispatched to nobody. Events: chaos
  11,417 -> 11,383, failover 9,617 -> 9,556, trace_replay 2,403 ->
  1,855, fig8 14,166 -> 13,379; obs on, chaos 11,589 -> 11,555 and
  failover 9,759 -> 9,698. The traces moved because 30 (chaos) and 40
  (failover) zero-length DevMgr ``reconcile`` spans are gone; keyed by
  their fields and their parent's, the other spans are the same
  multiset. The obs snapshots moved in those spans, in
  ``repro_sim_events_total``, in DevMgr's reconcile-duration histogram
  (its zero-length bucket) and, in failover, in one DevMgr
  ``repro_workqueue_depth`` sample (t = 40: 0 instead of 1, the queued
  key was one of the skipped passes). Events, decisions, counters and
  SLO are identical. All four summary digests held.
* ``fig8`` and ``trace_replay`` event counts: a wait is a watch. The
  experiment drivers' ``wait_all`` settles each job inside the commit
  that makes it terminal, heard by a watch, where it used to reread
  every pending job on a 0.5 s timer; each run's wait now costs one
  event instead of one per tick, and ends at the last terminal commit.
  Events: fig8 13,379 -> 13,058, trace_replay 1,855 -> 1,516. Every
  summary, obs-snapshot and Chrome-trace digest held, and so did the
  ``chaos`` and ``failover`` event counts, obs off and on: no scenario
  here has an apiserver outage, so the controllers' post-outage resync,
  deleted with the same change, never ran in them.
* ``chaos`` event count, obs-snapshot and Chrome-trace digests: DevMgr's
  plan is exact. KubeShare-DevMgr's pass predicate is now the plan its
  pass acts on, which names a step only if taking it changes something;
  the old predicate counted a real pod its Pod watch no longer held as a
  change. At t = 48.5 the node-crash recovery deletes the real pods of
  ``sp2`` and ``sp3`` before it clears their placement, and each
  DELETE queued a DevMgr pass that then found no GPUID and did nothing;
  neither is queued now. Events: chaos 11,383 -> 11,381; obs on, 11,555
  -> 11,553. The obs snapshot moved in those two zero-length DevMgr
  ``reconcile`` spans, in DevMgr's reconcile-duration histogram (its
  zero-length bucket, 18 -> 16) and in ``repro_sim_events_total``;
  events, decisions, counters and SLO are identical. Every summary
  digest and all other goldens held.
"""

import functools
import hashlib
import json

import pytest

from repro.obs.tracing import chrome_trace_json
from repro.perf import scenarios

#: name -> (run, summary digest, kernel events).
GOLDENS = {
    "chaos": (
        lambda: scenarios.chaos(11),
        "3e18d3ce7e94bc3c2582524f18bb0bf0ff1ea19402b01314d5268ad0bdf39c57",
        11_381,
    ),
    "failover": (
        lambda: scenarios.failover(13),
        "3e9519439c478d5e731beb080cb664bc734848972cfe878449e36e3eafeeec98",
        9_556,
    ),
    "trace_replay": (
        scenarios.trace_replay,
        "6d6d94cbca8f11e5643596251accfd23b9d6e23f4e41927d62dc204bfb68d6ff",
        1_516,
    ),
    "fig8": (
        lambda: scenarios.fig8(seed=7),
        "94fb2f1b0d3d5b074cbdaa0a38be172c0e37ed82a41cc65c824f2e5c608a4f5a",
        13_058,
    ),
}

OBS_LABEL = "golden"

#: name -> (run with obs on, obs snapshot digest, Chrome trace digest,
#: kernel events). The summary digest is the obs-off one in GOLDENS.
OBS_GOLDENS = {
    "chaos": (
        lambda: scenarios.chaos(11, obs_label=OBS_LABEL, race=True),
        "5342e27e3e61fc67f67dcf119bb66efb3f69a859013392720fe3d1ac917d5249",
        "c036d941af7d77ece4751ac56f671c41e23a0cbb43b2de47537fe78f6bce6158",
        11_553,
    ),
    "failover": (
        lambda: scenarios.failover(13, obs_label=OBS_LABEL, race=True),
        "ed60f7dff5a9375029b6e393f0cee0890506978f2800aa7f845d689f50296217",
        "6006faa769d16b0c35cbf5ae06662630feee6ed862eedd0d612e7070e7817b1d",
        9_698,
    ),
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def summary_digest(summary) -> str:
    return _sha256(json.dumps(summary, sort_keys=True, separators=(",", ":"), default=str))


def trace_digest(obs) -> str:
    return _sha256(chrome_trace_json(obs["spans"]))


# Each scenario runs once per test process; its tests share the result.
@functools.lru_cache(maxsize=None)
def _run(name: str):
    return GOLDENS[name][0]()


@functools.lru_cache(maxsize=None)
def _run_obs(name: str):
    return OBS_GOLDENS[name][0]()


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_scenario_summary_matches_golden(name):
    assert summary_digest(_run(name)["summary"]) == GOLDENS[name][1]


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_scenario_event_count_matches_golden(name):
    assert _run(name)["events"] == GOLDENS[name][2]


@pytest.mark.parametrize("name", sorted(OBS_GOLDENS))
def test_obs_snapshot_matches_golden(name):
    out = _run_obs(name)
    _, obs_golden, _, events = OBS_GOLDENS[name]
    # Observing must not change what is observed.
    assert summary_digest(out["summary"]) == GOLDENS[name][1]
    assert summary_digest(out["obs"]) == obs_golden
    assert out["events"] == events


@pytest.mark.parametrize("name", sorted(OBS_GOLDENS))
def test_chrome_trace_matches_golden(name):
    assert trace_digest(_run_obs(name)["obs"]) == OBS_GOLDENS[name][2]


if __name__ == "__main__":
    for name in sorted(GOLDENS):
        out = _run(name)
        print(f"{name}: summary {summary_digest(out['summary'])}, events {out['events']}")
    for name in sorted(OBS_GOLDENS):
        out = _run_obs(name)
        print(
            f"{name} (obs on): obs {summary_digest(out['obs'])}, "
            f"trace {trace_digest(out['obs'])}, events {out['events']}"
        )
