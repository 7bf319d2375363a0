"""Checks on the benchmark itself.

Run with ``PYTHONPATH=src python -m pytest bench -q`` (about a minute).
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

from bench import ROOT
from bench.__main__ import RUN_SECONDS
from bench.metrics import END_TO_END, FAILED_FRAC, PER_LAYER, for_workload, result_metrics, summarize
from bench.run import Runner
from bench.suite import compare
from bench.trace import LAYER_OF_PROCESS, SPANS, LayerTrace, traced
from bench.workloads import WORKLOADS
from repro.sim import environment as sim_environment

#: every seam the trace patches, as it was before any traced run.
ORIGINALS = [(owner, attr, vars(owner)[attr]) for owner, attr, *_ in SPANS]

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _assert_seams_restored():
    assert sim_environment._PROFILE is None
    for owner, attr, original in ORIGINALS:
        assert vars(owner)[attr] is original, f"{owner}.{attr} still wrapped"


@pytest.fixture(scope="module")
def runs():
    """One untraced then one traced run of each workload at its canonical seed."""
    out = {}
    for name, workload in WORKLOADS.items():
        runner = Runner(workload, workload.seed)
        plain = runner.run(workload.call)
        trace = LayerTrace()
        with_trace = runner.run(workload.call, trace)
        out[name] = (runner, plain, with_trace, trace)
    return out


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_process_maps_to_a_layer(runs, name):
    trace = runs[name][3]
    assert set(trace.by_process) <= set(LAYER_OF_PROCESS), set(trace.by_process) - set(LAYER_OF_PROCESS)
    assert trace.dispatches["unmapped"] == 0
    assert "unmapped" not in trace.self_s


def test_traced_runs_restore_every_seam(runs):
    _assert_seams_restored()


def test_seams_restored_when_the_run_raises():
    with pytest.raises(RuntimeError):
        with traced(LayerTrace()):
            raise RuntimeError("scenario failed")
    _assert_seams_restored()


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_digest_equals_untraced(runs, name):
    runner, plain, with_trace, trace = runs[name]
    assert plain is not None and with_trace is not None
    assert runner.failed == 0
    assert list(runner.digests.values()) == [2]
    layers = trace.metrics(with_trace.out["events"], with_trace.wall_s, plain.wall_s, with_trace.scale)
    assert layers["trace.attributed"] >= 0.9
    assert [m.name for m in PER_LAYER] == list(layers)


def _result(wall_scale: float = 1.0, walls=(0.250, 0.252, 0.249, 0.251, 0.250)):
    metrics = {m.name: {"unit": m.unit, **summarize([1.0, 1.0, 1.0])} for m in for_workload("chaos")}
    metrics["wall_s"] = {"unit": "s", **summarize([wall_scale * w for w in walls])}
    metrics[FAILED_FRAC.name] = {"unit": FAILED_FRAC.unit, **summarize([0.0])}
    return {"seconds": 1, "workloads": {"chaos": {"metrics": metrics, "layers": {}}}}


def test_compare_flags_a_wall_regression_past_the_bound_and_passes_identical_results(tmp_path, capsys):
    bound = next(m.bound for m in END_TO_END if m.name == "wall_s")
    base, slower, slow = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "c.json"
    base.write_text(json.dumps(_result()))
    slower.write_text(json.dumps(_result(wall_scale=1 + bound / 2)))
    slow.write_text(json.dumps(_result(wall_scale=1 + bound * 1.25)))
    assert compare(str(base), str(base)) == 0
    assert capsys.readouterr().out.rstrip().endswith("0 regression(s), 0 unresolved")
    assert compare(str(base), str(slower)) == 0
    assert re.search(r"wall_s .* ok", capsys.readouterr().out)
    assert compare(str(base), str(slow)) == 1
    assert re.search(r"wall_s .* regression", capsys.readouterr().out)


def test_compare_reports_a_noisy_result_as_unresolved(tmp_path, capsys):
    base, noisy = tmp_path / "a.json", tmp_path / "b.json"
    base.write_text(json.dumps(_result()))
    noisy.write_text(json.dumps(_result(walls=(0.15, 0.2, 0.25, 0.3, 0.35))))
    assert compare(str(base), str(noisy)) == 0
    assert re.search(r"wall_s .* unresolved", capsys.readouterr().out)


def test_benchmark_json_matches_the_metric_table():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "-m", "bench"]
    assert spec["paths"] == ["bench"]
    assert spec["run_seconds"] == RUN_SECONDS
    assert spec["workloads"] == [{"name": w.name, "why": w.why} for w in WORKLOADS.values()]
    assert spec["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound} for m in result_metrics(False)
    ]
    assert spec["per_layer"] == [{"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER]
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in spec[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names + [m.name for m in END_TO_END]), names
    assert "setup_s" in [m["name"] for m in spec["end_to_end"]]


def _bench(*args, cwd=ROOT, env=None):
    return subprocess.run(
        [sys.executable, "-m", "bench", *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_match_benchmark_json(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = _bench("--workload", "chaos", "--seed", "12", "--seconds", "0.5", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    wanted = spec["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    assert all(result["metrics"][m["name"]]["unit"] == m["unit"] for m in wanted)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = _bench("--workload", "fig8", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path, env=env)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
