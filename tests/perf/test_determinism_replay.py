"""Identical-seed replay: two runs of a scenario agree byte for byte.

Guards against nondeterminism introduced anywhere in the stack
(iteration over an unordered container, id()-keyed ordering leaks, ...):
the chaos capstone runs twice in one process with full observability
attached, and the summary, the complete ObsHub snapshot (spans, events,
decision log, counters, every sampled series) and the kernel event count
must all match. ``test_scenario_goldens.py`` pins the same artifacts
across processes and commits.
"""

import json

from repro.perf.scenarios import chaos


def _dump(value):
    return json.dumps(value, sort_keys=True, default=str)


def test_fast_mode_replay_is_stable():
    first = chaos(obs_label="replay-stability")
    second = chaos(obs_label="replay-stability")
    assert _dump(first["summary"]) == _dump(second["summary"])
    assert _dump(first["obs"]) == _dump(second["obs"])
    assert first["events"] == second["events"]
