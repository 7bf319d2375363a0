"""One workload in one interpreter, one thread, one client.

A run calls the workload's scenario once; the next run starts when it
returns. The untraced mode does one untimed warm-up run, then timed runs
back to back for the time budget, then the set-up probes. The traced mode
does one warm-up run, then pairs of one traced and one untraced run, in
alternating order, for the same budget.

Host timings are scaled to a reference speed. On a shared machine other
tenants slow the same code by up to 1.8x for seconds at a time. So a
fixed stdlib-only loop is timed right before and right after every run
and probe, and the run's host seconds are multiplied by
:data:`CALIBRATION_REF_S` over the mean of those two readings. The loop
runs none of the program's code, so a change to the program cannot move
it.

Every run's canonical summary is hashed. All runs of a seed, traced or
not, must give the first run's digest and pass the workload's checks;
a run that does not, or that raises, counts as failed and the others go on.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import subprocess
import sys
import traceback
from collections import Counter, defaultdict
from contextlib import nullcontext
from dataclasses import dataclass
from time import monotonic, perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from . import SRC
from .metrics import PER_LAYER, for_workload, format_table, result_metrics, summarize
from .trace import LayerTrace, traced
from .workloads import Workload

__all__ = ["Bracket", "Run", "Runner", "calibration_s", "digest", "measure", "measure_layers", "main"]

#: fewest runs (or pairs) a budget buys, so quartiles exist.
MIN_RUNS = 3
#: fresh interpreters timed for ``setup_s``.
SETUP_PROBES = 5
#: :func:`calibration_s` on the reference machine (2-core Xeon at 2.1 GHz,
#: CPython 3.11) when nothing else runs: host timings are in its seconds.
CALIBRATION_REF_S = 0.027

# Imports the listed modules and prints the monotonic clock, which the
# parent compares with its own reading taken just before the spawn.
_PROBE = (
    "import importlib, sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "for name in sys.argv[2:]:\n"
    "    importlib.import_module(name)\n"
    "print(time.monotonic())\n"
)


def calibration_s() -> float:
    """Host seconds of a fixed loop of dict updates: the machine's speed now."""
    t0 = perf_counter()
    table: Dict[int, int] = {}
    for i in range(200_000):
        table[i & 1023] = table.get(i & 1023, 0) + i
    return perf_counter() - t0


class Bracket:
    """Times :func:`calibration_s` on entry and exit; ``scale`` then
    converts host seconds spent inside to reference seconds."""

    def __enter__(self) -> "Bracket":
        self._before = calibration_s()
        return self

    def __exit__(self, *exc) -> None:
        self.scale = 2 * CALIBRATION_REF_S / (self._before + calibration_s())


def digest(summary) -> str:
    """SHA-256 of a summary's canonical JSON."""
    canon = json.dumps(summary, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(canon.encode()).hexdigest()


@dataclass
class Run:
    #: seconds at the reference speed, and the factor that scaled them.
    wall_s: float
    scale: float
    out: Dict
    #: the workload's virtual-time results.
    sim: Dict[str, float]


class Runner:
    """Runs one workload at one seed and keeps the correctness ledger."""

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        #: summary digest -> runs that produced it.
        self.digests: Counter = Counter()
        self._first: Optional[str] = None

    def run(self, call: Callable[[int], Dict], trace: Optional[LayerTrace] = None) -> Optional[Run]:
        """One calibrated run, or ``None`` if it failed."""
        self.attempted += 1
        # Earlier runs' garbage holds suspended process generators whose
        # finalizers still call into the program; collect it here, so
        # each run is timed and counted on its own.
        gc.collect()
        try:
            with Bracket() as bracket, traced(trace) if trace is not None else nullcontext():
                t0 = perf_counter()
                out = call(self.seed)
                wall = perf_counter() - t0
            summary_digest = digest(out["summary"])
            sim, problems = self.workload.judge(out["summary"])
        except Exception:
            self.failed += 1
            traceback.print_exc()
            return None
        self.digests[summary_digest] += 1
        self._first = self._first or summary_digest
        if summary_digest != self._first:
            problems.append(f"summary digest {summary_digest[:12]} != first run's {self._first[:12]}")
        if problems:
            self.failed += 1
            print(f"bench: {self.workload.name} seed {self.seed}: {'; '.join(problems)}", file=sys.stderr)
            return None
        return Run(wall * bracket.scale, bracket.scale, out, sim)


def _repeat(seconds: float, rep: Callable[[int], None]) -> None:
    """Call ``rep(0), rep(1), ...`` back to back for about *seconds*, at
    least :data:`MIN_RUNS` times. A call is not started when the previous
    one's duration says it would end past the budget."""
    start = perf_counter()
    last = 0.0
    i = 0
    while i < MIN_RUNS or perf_counter() - start + last <= seconds:
        t0 = perf_counter()
        rep(i)
        last = perf_counter() - t0
        i += 1


def _pair(i: int, first: Callable, second: Callable) -> Tuple:
    """Both calls' results in argument order; *second* runs first on odd *i*."""
    if i % 2:
        b = second()
        return first(), b
    a = first()
    return a, second()


def setup_s(modules: List[str]) -> float:
    """Seconds from spawning a fresh interpreter until it has imported
    *modules*, at the reference speed."""
    with Bracket() as bracket:
        t0 = monotonic()
        probe = subprocess.run(
            [sys.executable, "-c", _PROBE, str(SRC), *modules],
            capture_output=True, text=True, check=True, timeout=120,
        )
    return (float(probe.stdout) - t0) * bracket.scale


def measure(workload: Workload, seed: int, seconds: float) -> Tuple[Runner, Dict[str, List[float]]]:
    """Untraced mode: every end-to-end metric of *workload*."""
    runner = Runner(workload, seed)
    values: Dict[str, List[float]] = defaultdict(list)
    runner.run(workload.call)
    if workload.obs_off is not None:
        runner.run(workload.obs_off)
    # What the workload imported, measured rather than listed.
    modules = sorted(m for m in sys.modules if m == "repro" or m.startswith("repro."))

    def rep(i: int) -> None:
        if workload.obs_off is None:
            on, off = runner.run(workload.call), None
        else:
            on, off = _pair(i, lambda: runner.run(workload.call), lambda: runner.run(workload.obs_off))
        if on is None:
            return
        values["wall_s"].append(on.wall_s)
        values["events_per_sim_s"].append(on.out["events"] / on.out["sim_time"])
        for name, value in on.sim.items():
            values[name].append(value)
        if off is not None:
            values["obs_overhead_x"].append(on.wall_s / off.wall_s)
            values["obs_extra_events"].append(on.out["events"] - off.out["events"])

    _repeat(seconds, rep)
    values["peak_rss_mb"].append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    values["setup_s"] = [setup_s(modules) for _ in range(SETUP_PROBES)]
    return runner, values


def measure_layers(workload: Workload, seed: int, seconds: float) -> Tuple[Runner, Dict[str, List[float]]]:
    """Traced mode: every per-layer metric of *workload*."""
    runner = Runner(workload, seed)
    values: Dict[str, List[float]] = defaultdict(list)
    runner.run(workload.call)

    def rep(i: int) -> None:
        trace = LayerTrace()
        with_trace, plain = _pair(i, lambda: runner.run(workload.call, trace), lambda: runner.run(workload.call))
        if with_trace is None or plain is None:
            return
        layers = trace.metrics(with_trace.out["events"], with_trace.wall_s, plain.wall_s, with_trace.scale)
        for name, value in layers.items():
            values[name].append(value)

    _repeat(seconds, rep)
    return runner, values


def main(workload: Workload, seed: int, seconds: float, trace: bool) -> int:
    """Measure, print the table and the record, and end with the result line."""
    runner, values = (measure_layers if trace else measure)(workload, seed, seconds)
    specs = PER_LAYER if trace else for_workload(workload.name)
    missing = [m.name for m in specs if not values.get(m.name)]
    if missing:
        print(f"bench: {workload.name}: no successful run measured {', '.join(missing)}", file=sys.stderr)
        return 1
    table = {m.name: {"unit": m.unit, **summarize(values[m.name])} for m in specs}
    mode = "traced" if trace else "untraced"
    print(f"{workload.name} seed {seed} ({mode}): {runner.attempted} runs, {runner.failed} failed")
    print(format_table(specs, table))
    record = {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "digests": sorted(runner.digests),
        "metrics": table,
    }
    print("RECORD " + json.dumps(record))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m.name: {"value": table[m.name]["median"], "unit": m.unit} for m in result_metrics(trace)},
    }))
    return 0
