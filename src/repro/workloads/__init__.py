"""Workloads: the deep-learning jobs the paper evaluates with (Table 3)."""

from .flows import FlowScheduler, diurnal_times, poisson_times
from .generator import InferenceWorkload, JobArrival, WorkloadGenerator
from .interference import ANTI_AFFINITY_LABEL, JOB_A, JOB_B, InterferenceProfile
from .jobs import InferenceJob, JobStats, TrainingJob
from .trace import (
    dump_trace,
    dumps_trace,
    load_trace,
    loads_trace,
    synthetic_borg_trace,
)

__all__ = [
    "TrainingJob",
    "InferenceJob",
    "JobStats",
    "WorkloadGenerator",
    "InferenceWorkload",
    "JobArrival",
    "InterferenceProfile",
    "JOB_A",
    "JOB_B",
    "ANTI_AFFINITY_LABEL",
    "dump_trace",
    "load_trace",
    "dumps_trace",
    "loads_trace",
    "synthetic_borg_trace",
    "FlowScheduler",
    "poisson_times",
    "diurnal_times",
]
