"""Golden digests: the canonical scenarios' summaries, byte for byte.

Each entry is the SHA-256 of a scenario's summary serialized as canonical
JSON (sorted keys, no whitespace). A change that moves a digest changes
what the simulation computes, and must say why.

History of deliberate changes:

* ``fig8``: node leases stopped writing the Node on every renewal, so
  kube-scheduler no longer re-attempts every unschedulable pod once per
  heartbeat (it retries on Node PUTs, and heartbeats were Node PUTs).
  Only the native-Kubernetes half moved: makespan 170.333 -> 169.587 s,
  throughput 42.270 -> 42.456 jobs/min. KubeShare's half is unchanged.
  ``chaos``, ``failover`` and ``trace_replay`` kept their digests.
"""

import hashlib
import json

import pytest

from repro.perf import scenarios

GOLDENS = {
    "chaos": (lambda: scenarios.chaos(11), "3e18d3ce7e94bc3c2582524f18bb0bf0ff1ea19402b01314d5268ad0bdf39c57"),
    "failover": (lambda: scenarios.failover(13), "3e9519439c478d5e731beb080cb664bc734848972cfe878449e36e3eafeeec98"),
    "trace_replay": (scenarios.trace_replay, "10829719e62322dd5b6786a7dafb7746580d91315e01e86bbc39eb72617e224d"),
    "fig8": (lambda: scenarios.fig8(seed=7), "94fb2f1b0d3d5b074cbdaa0a38be172c0e37ed82a41cc65c824f2e5c608a4f5a"),
}


def summary_digest(summary) -> str:
    canon = json.dumps(summary, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(canon.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_scenario_summary_matches_golden(name):
    run, golden = GOLDENS[name]
    assert summary_digest(run()["summary"]) == golden
