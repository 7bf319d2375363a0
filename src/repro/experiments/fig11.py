"""Figure 11: scheduling time of KubeShare-Sched vs number of SharePods.

Algorithm 1 is O(N) in the number of SharePods in the system (device views
are derived from the live SharePod population, then scanned). The paper
measures the end-to-end scheduling time growing linearly, staying under
400 ms at 100 SharePods (their Go controller includes API-server
round-trips). Here we wall-clock *our* implementation — the pure
``build_device_views`` + ``schedule_request`` path — and verify the linear
shape; absolute times are naturally much smaller for an in-process call
(EXPERIMENTS.md records both).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from ..cluster.objects import ObjectMeta
from ..core.scheduler import RequestView, build_device_views, schedule_request
from ..core.sharepod import SharePod, SharePodSpec
from ..metrics.reporting import ascii_table

__all__ = ["Fig11Point", "make_population", "run", "main", "DEFAULT_SIZES"]

DEFAULT_SIZES = (10, 25, 50, 75, 100, 200, 400)


@dataclass(frozen=True)
class Fig11Point:
    n_sharepods: int
    mean_seconds: float
    p99_seconds: float


def make_population(n: int, seed: int = 3, gpus: int = 0) -> tuple:
    """Build *n* scheduled SharePods spread over a realistic vGPU pool.

    Returns the pool's GPUIDs and the SharePods. ``gpus`` caps the pool
    size (0 = grow as needed, ~3 sharePods/vGPU).
    """
    rng = np.random.default_rng(seed)
    sharepods: List[SharePod] = []
    per_gpu = 3
    n_vgpus = max(1, (n + per_gpu - 1) // per_gpu if gpus == 0 else gpus)
    gpuids = [f"vgpu-pop-{i:04d}" for i in range(n_vgpus)]
    labels = ["teamA", "teamB", None, None, None]
    for i in range(n):
        request = float(rng.uniform(0.1, 0.3))
        sp = SharePod(
            metadata=ObjectMeta(name=f"sp-{i:05d}"),
            spec=SharePodSpec(
                gpu_request=request,
                gpu_limit=min(1.0, request + 0.2),
                gpu_mem=float(rng.uniform(0.1, 0.3)),
                gpu_id=gpuids[i % n_vgpus],
                sched_anti_affinity=labels[int(rng.integers(0, len(labels)))],
            ),
        )
        sharepods.append(sp)
    return gpuids, sharepods


def run(
    sizes: Sequence[int] = DEFAULT_SIZES, repeats: int = 50, seed: int = 3
) -> List[Fig11Point]:
    points = []
    request = RequestView(util=0.2, mem=0.2)
    for n in sizes:
        gpuids, sharepods = make_population(n, seed=seed)
        samples = []
        for _ in range(repeats):
            t0 = time.perf_counter()  # noqa: RPR001 - the experiment measures host wall time of the algorithm
            devices = build_device_views(gpuids, sharepods)
            schedule_request(request, devices)
            samples.append(time.perf_counter() - t0)  # noqa: RPR001 - host timing is the measurement
        arr = np.asarray(samples)
        points.append(
            Fig11Point(
                n_sharepods=n,
                mean_seconds=float(arr.mean()),
                p99_seconds=float(np.percentile(arr, 99)),
            )
        )
    return points


def linear_fit_r2(points: Sequence[Fig11Point]) -> float:
    """R² of a linear fit of mean time vs N (the paper's O(N) claim)."""
    x = np.asarray([p.n_sharepods for p in points], dtype=float)
    y = np.asarray([p.mean_seconds for p in points])
    coeffs = np.polyfit(x, y, 1)
    pred = np.polyval(coeffs, x)
    ss_res = float(((y - pred) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    return 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0


def main() -> str:
    points = run()
    table = ascii_table(
        ["#SharePods", "mean sched time (µs)", "p99 (µs)"],
        [(p.n_sharepods, p.mean_seconds * 1e6, p.p99_seconds * 1e6) for p in points],
        title="Figure 11 — Algorithm 1 scheduling time (this implementation)",
    )
    out = table + f"\nlinear-fit R² = {linear_fit_r2(points):.4f}"
    print(out)
    return out


if __name__ == "__main__":  # pragma: no cover
    main()
