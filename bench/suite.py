"""The whole benchmark, and the comparison of two of its results.

The suite runs each workload in two fresh interpreters, untraced then
traced (:mod:`bench.run`), and merges their records into one result.
:func:`compare` judges a second result against a first, metric by
metric and workload by workload, against each metric's bound.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from typing import Dict, Iterable, Optional, Tuple

from . import ROOT
from .metrics import FAILED_FRAC, PER_LAYER, Metric, for_workload, format_table, summarize

__all__ = ["run_suite", "compare", "judge"]


def _spawn(name: str, seed: int, seconds: float, trace: int) -> Optional[Dict]:
    """One worker interpreter's record, or ``None`` if it did not produce one."""
    command = [
        sys.executable, "-m", "bench", "--workload", name, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    print(f"[bench] {name} seed {seed}, {'traced' if trace else 'untraced'} ...", flush=True)
    proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    for line in proc.stdout.splitlines():
        if line.startswith("RECORD "):
            return json.loads(line[len("RECORD "):])
    print(f"[bench] {name}: worker exited {proc.returncode} without a record", file=sys.stderr)
    return None


def run_suite(names: Iterable[str], seeds: Dict[str, int], seconds: float, out: Optional[str]) -> int:
    """Run *names*, print every metric, write the result to *out*.

    Returns non-zero when any run failed.
    """
    result: Dict = {"seconds": seconds, "workloads": {}}
    for name in names:
        entry: Dict = {"seed": seeds[name], "attempted": 0, "failed": 0, "digests": [], "metrics": {}, "layers": {}}
        for trace in (0, 1):
            record = _spawn(name, seeds[name], seconds, trace)
            if record is None:
                entry["attempted"] += 1
                entry["failed"] += 1
                continue
            entry["attempted"] += record["attempted"]
            entry["failed"] += record["failed"]
            if entry["digests"] and record["digests"] != entry["digests"]:
                # Every run must reproduce the first interpreter's summary.
                entry["failed"] += record["attempted"] - record["failed"]
                print(f"[bench] {name}: digests {record['digests']} != {entry['digests']}", file=sys.stderr)
            entry["digests"] = entry["digests"] or record["digests"]
            entry["layers" if trace else "metrics"] = record["metrics"]
        entry["metrics"][FAILED_FRAC.name] = {
            "unit": FAILED_FRAC.unit,
            **summarize([entry["failed"] / entry["attempted"]]),
            "n": entry["attempted"],
        }
        result["workloads"][name] = entry

    for name, entry in result["workloads"].items():
        print(f"\n== {name} (seed {entry['seed']}): {entry['attempted']} runs, {entry['failed']} failed, "
              f"digest {' '.join(d[:12] for d in entry['digests'])}")
        print("end to end, tracing off:")
        print(format_table((*for_workload(name), FAILED_FRAC), entry["metrics"]))
        print("per layer, traced runs:")
        print(format_table(PER_LAYER, entry["layers"]))
    if out:
        with open(out, "w") as fh:
            json.dump(result, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"\nwrote {out}")
    return 0 if all(e["failed"] == 0 for e in result["workloads"].values()) else 1


def _worse_by(metric: Metric, a: float, b: float) -> float:
    """How much worse *b* reads than *a*, as a share of *a* (negative: better)."""
    if a == b:
        return 0.0
    sign = 1.0 if metric.better == "lower" else -1.0
    if a == 0:
        return math.copysign(math.inf, sign * b)
    return sign * (b - a) / abs(a)


def judge(metric: Metric, a: Dict, b: Dict) -> Tuple[str, float]:
    """(status, change) of result *b* against result *a* for one metric.

    An exact metric is ``same``, ``changed`` (better) or a ``regression``.
    Otherwise *b* is a ``regression`` when its median is worse by more
    than the bound, else ``ok``. When either result's quartile spread is
    wider than the bound, that cannot be told: *b* is ``improved`` if
    every sample beats every sample of *a*, a ``regression`` if every
    sample is worse and the median past the bound, else ``unresolved``.
    """
    change = _worse_by(metric, a["median"], b["median"])
    if metric.exact:
        return ("same" if change == 0 else "regression" if change > 0 else "changed"), change
    spread = max((r["q3"] - r["q1"]) / abs(r["median"]) for r in (a, b))
    if spread <= metric.bound:
        return ("regression" if change > metric.bound else "ok"), change
    pairs = [_worse_by(metric, x, y) for x in a["values"] for y in b["values"]]
    if all(p < 0 for p in pairs):
        return "improved", change
    if all(p > 0 for p in pairs) and change > metric.bound:
        return "regression", change
    return "unresolved", change


def compare(path_a: str, path_b: str) -> int:
    """Print *path_b*'s result against *path_a*'s; non-zero on any regression."""
    with open(path_a) as fh:
        a = json.load(fh)
    with open(path_b) as fh:
        b = json.load(fh)
    counts = {"regression": 0, "unresolved": 0}
    print(f"{'workload':<13} {'metric':<28} {'A median':>12} {'B median':>12} {'worse by':>9} {'bound':>6}  status")
    for name, wa in a["workloads"].items():
        wb = b["workloads"].get(name)
        if wb is None:
            print(f"{name:<13} (missing from {path_b})  regression")
            counts["regression"] += 1
            continue
        for metric in (*for_workload(name), FAILED_FRAC):
            ra, rb = wa["metrics"].get(metric.name), wb["metrics"].get(metric.name)
            if ra is None or rb is None:
                status = "regression"
                print(f"{name:<13} {metric.name:<28} missing from one result  regression")
            else:
                status, change = judge(metric, ra, rb)
                bound = "exact" if metric.exact else f"{metric.bound:.0%}"
                print(f"{name:<13} {metric.name:<28} {ra['median']:>12.6g} {rb['median']:>12.6g} "
                      f"{change:>+9.1%} {bound:>6}  {status}")
            counts[status] = counts.get(status, 0) + 1
        # Per-layer rows explain a change; they carry no bound.
        for metric in PER_LAYER:
            ra, rb = wa["layers"].get(metric.name), wb["layers"].get(metric.name)
            if ra and rb:
                change = _worse_by(metric, ra["median"], rb["median"])
                print(f"{name:<13} {metric.name:<28} {ra['median']:>12.6g} {rb['median']:>12.6g} "
                      f"{change:>+9.1%} {'-':>6}  layer")
    print(f"\n{counts['regression']} regression(s), {counts['unresolved']} unresolved")
    return 1 if counts["regression"] else 0
