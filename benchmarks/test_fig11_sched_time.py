"""Figure 11: scheduling time of KubeShare-Sched vs number of SharePods.

This is the one benchmark measuring genuine wall-clock time of our code:
``build_device_views`` + ``schedule_request`` (Algorithm 1) over a live
SharePod population. The paper measured <400 ms at 100 SharePods for its
Go controller including API round-trips; the in-process implementation is
orders of magnitude faster but must preserve the O(N) shape.
"""

import pytest

from repro.core.scheduler import RequestView, build_device_views, schedule_request
from repro.experiments import fig11
from repro.metrics.reporting import ascii_table

pytestmark = pytest.mark.benchmark(group="fig11")


@pytest.mark.parametrize("n", [10, 50, 100, 400])
def test_fig11_schedule_time(n, benchmark):
    gpuids, sharepods = fig11.make_population(n)
    request = RequestView(util=0.2, mem=0.2)

    def schedule_once():
        devices = build_device_views(gpuids, sharepods)
        return schedule_request(request, devices)

    decision = benchmark(schedule_once)
    assert not decision.rejected


def test_fig11_linear_shape(report, benchmark):
    points = benchmark.pedantic(
        fig11.run,
        kwargs={"sizes": (10, 50, 100, 200, 400), "repeats": 30},
        rounds=1,
        iterations=1,
    )
    report(
        ascii_table(
            ["#SharePods", "mean (µs)", "p99 (µs)"],
            [(p.n_sharepods, p.mean_seconds * 1e6, p.p99_seconds * 1e6) for p in points],
            title="Figure 11 — Algorithm 1 scheduling time (paper: O(N), "
            "<400 ms at 100 SharePods)",
        )
    )
    assert fig11.linear_fit_r2(points) > 0.95
    at_100 = next(p for p in points if p.n_sharepods == 100)
    assert at_100.mean_seconds < 0.4  # comfortably under the paper's bound
