"""Workload-level performance analysis (the paper's §5.1 metrics).

"The main performance matrix of our evaluation is the system throughput
and GPU utilization. The system throughput is the number of completed jobs
per time interval. Since the total jobs is fixed in a workload, the job
throughput is also inversely proportional to the overall execution time
(i.e., makespan) of a workload."
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

from ..workloads.jobs import JobStats

__all__ = [
    "makespan",
    "throughput_jobs_per_minute",
]


def _finished(stats: Iterable[JobStats]) -> List[JobStats]:
    return [s for s in stats if s.finished_at is not None and not s.failed]


def makespan(stats: Sequence[JobStats]) -> float:
    """Time from the first submission to the last completion."""
    done = _finished(stats)
    if not done:
        return 0.0
    start = min(s.submitted_at if s.submitted_at is not None else s.started_at for s in done)
    end = max(s.finished_at for s in done)
    return end - start


def throughput_jobs_per_minute(stats: Sequence[JobStats]) -> float:
    """Completed jobs per minute over the workload's makespan."""
    done = _finished(stats)
    span = makespan(stats)
    if span <= 0:
        return 0.0
    return 60.0 * len(done) / span
