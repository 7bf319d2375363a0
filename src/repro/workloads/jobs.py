"""Deep-learning job models (paper Table 3).

Two job types drive the whole evaluation:

* :class:`TrainingJob` — TensorFlow ResNet-50 style training: a fixed
  volume of kernel work that saturates whatever GPU share it is granted;
  the adjusted parameter is the number of training steps (→ work volume).
* :class:`InferenceJob` — TF-Serving DeepLab-V3 style inference: the model
  sits in device memory and forward passes arrive with client requests, so
  GPU usage is proportional to the request rate (Figure 5); the adjusted
  parameter is the number of requests (→ work volume at a given demand).

Both produce a *workload factory* compatible with
:class:`~repro.cluster.objects.PodSpec` — a function of the container
context that runs the job through the (possibly intercepted) CUDA API and
records its lifecycle into a :class:`JobStats`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Generator, List, Optional

from ..gpu.device import V100_MEMORY

__all__ = ["JobStats", "TrainingJob", "InferenceJob"]


@dataclass
class JobStats:
    """Observed lifecycle of one job (filled in by the workload)."""

    name: str
    submitted_at: Optional[float] = None
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    failed: bool = False
    failure: str = ""
    work_done: float = 0.0
    steps_done: int = 0
    #: (time, cumulative work) checkpoints for throughput curves.
    progress: List[tuple] = field(default_factory=list)

    @property
    def duration(self) -> Optional[float]:
        if self.started_at is None or self.finished_at is None:
            return None
        return self.finished_at - self.started_at

    @property
    def makespan(self) -> Optional[float]:
        if self.submitted_at is None or self.finished_at is None:
            return None
        return self.finished_at - self.submitted_at


@dataclass
class TrainingJob:
    """Model training: fixed work volume, saturating GPU demand.

    ``steps`` × ``step_work`` defines the total kernel work in seconds of
    full-device compute (ResNet-50 on a V100 runs a global step in tens of
    milliseconds; the default mirrors that scale).
    """

    name: str
    steps: int = 1000
    step_work: float = 0.050
    #: device memory the model + activations occupy (bytes).
    model_memory: int = int(0.25 * V100_MEMORY)
    #: progress checkpoint granularity (steps).
    checkpoint_every: int = 100

    @property
    def total_work(self) -> float:
        return self.steps * self.step_work

    def workload(self, stats: Optional[JobStats] = None) -> Callable:
        stats = stats or JobStats(self.name)
        job = self

        def run(ctx) -> Generator:
            stats.started_at = ctx.env.now
            api = ctx.cuda()
            cu = api.cu_ctx_create()
            try:
                api.cu_mem_alloc(cu, job.model_memory)
                for step in range(job.steps):
                    yield from api.cu_launch_kernel(cu, job.step_work)
                    stats.steps_done = step + 1
                    stats.work_done += job.step_work
                    if (step + 1) % job.checkpoint_every == 0:
                        stats.progress.append((ctx.env.now, stats.work_done))
            except Exception as err:
                stats.failed = True
                stats.failure = repr(err)
                raise
            finally:
                if not cu.destroyed:
                    api.cu_ctx_destroy(cu)
                stats.finished_at = ctx.env.now
            return stats

        run.__name__ = f"training:{self.name}"
        run.stats = stats
        return run


@dataclass
class InferenceJob:
    """Model serving: usage proportional to the client request rate.

    ``requests`` forward passes of ``request_work`` GPU-seconds each arrive
    at ``request_rate`` per second, so the job's steady GPU demand is
    ``request_rate * request_work`` and its last request arrives
    ``requests / request_rate`` after it starts.

    The server launches a batch of ``batch_requests`` requests when the
    batch's *first* request arrives, at full appetite; a server that fell
    behind (GPU contention) launches its backlog at once. So a server
    that keeps up finishes ``(requests - last) / request_rate + last *
    work / limit`` after it starts, where ``last`` is the size of its last
    batch and ``work`` is a request's work as the device library bills it:
    a little before its last request arrives (``0.154 * batch_requests /
    request_rate`` earlier with Fig 8's limit of 1.2 × demand and the
    default handoff overhead).

    Under fluid isolation (the library sets ``paced_launches`` on the
    CUDA API) the requests before the last batch are one paced launch,
    which the GPU engine serves as they arrive, bursting to the limit
    while a backlog waits; it ends exactly when the last batch is due,
    and the batch loop serves that batch as above.
    """

    name: str
    requests: int = 2400
    request_rate: float = 20.0
    request_work: float = 0.015
    #: loaded model memory (DeepLab-V3 scale, ~4 GB on a 16 GB card).
    model_memory: int = int(0.25 * V100_MEMORY)
    #: how many requests to coalesce per launch call (keeps event counts
    #: tractable at cluster scale without changing the demand math). Under
    #: fluid isolation it sizes only the last batch.
    batch_requests: int = 5

    @property
    def demand(self) -> float:
        """Steady-state GPU usage fraction (Figure 5's y-axis)."""
        return min(1.0, self.request_rate * self.request_work)

    @property
    def total_work(self) -> float:
        return self.requests * self.request_work

    @classmethod
    def from_demand(
        cls,
        name: str,
        demand: float,
        duration: float = 120.0,
        request_work: float = 0.015,
        model_memory: Optional[int] = None,
        batch_requests: int = 5,
    ) -> "InferenceJob":
        """Build a job with a target *demand* and unthrottled *duration*
        (how Figure 8's workloads are generated)."""
        if not 0.0 < demand <= 1.0:
            raise ValueError(f"demand must be in (0,1], got {demand}")
        rate = demand / request_work
        n_requests = max(1, int(round(rate * duration)))
        kwargs = {}
        if model_memory is not None:
            kwargs["model_memory"] = model_memory
        return cls(
            name=name,
            requests=n_requests,
            request_rate=rate,
            request_work=request_work,
            batch_requests=batch_requests,
            **kwargs,
        )

    def workload(self, stats: Optional[JobStats] = None) -> Callable:
        stats = stats or JobStats(self.name)
        job = self

        def run(ctx) -> Generator:
            stats.started_at = ctx.env.now
            api = ctx.cuda()
            cu = api.cu_ctx_create()
            try:
                api.cu_mem_alloc(cu, job.model_memory)
                served = 0
                start = ctx.env.now
                if api.paced_launches:
                    # Every request before the last batch, as one stream.
                    served = max(0, job.requests - 1) // job.batch_requests * job.batch_requests
                    if served:
                        work = served * job.request_work
                        pace = job.request_rate * job.request_work
                        yield from api.cu_launch_kernel(cu, work, pace=pace)
                        stats.steps_done = served
                        stats.work_done += work
                        stats.progress.append((ctx.env.now, stats.work_done))
                while served < job.requests:
                    batch = min(job.batch_requests, job.requests - served)
                    # Requests arrive from clients at request_rate; a batch
                    # cannot be served before its requests exist. A server
                    # that fell behind (GPU contention) has a backlog and
                    # launches immediately, at full appetite — it does not
                    # idle between bursts the way an unloaded server does.
                    due = start + served / job.request_rate
                    wait = due - ctx.env.now
                    if wait > 0:
                        yield ctx.env.timeout(wait)
                    work = batch * job.request_work
                    yield from api.cu_launch_kernel(cu, work)
                    served += batch
                    stats.steps_done = served
                    stats.work_done += work
                    if served % (job.batch_requests * 10) == 0:
                        stats.progress.append((ctx.env.now, stats.work_done))
            except Exception as err:
                stats.failed = True
                stats.failure = repr(err)
                raise
            finally:
                if not cu.destroyed:
                    api.cu_ctx_destroy(cu)
                stats.finished_at = ctx.env.now
            return stats

        run.__name__ = f"inference:{self.name}"
        run.stats = stats
        return run
