"""Metrics: collection, analysis and plain-text reporting."""

from .analysis import makespan, throughput_jobs_per_minute
from .collector import DEFAULT_LATENCY_BOUNDARIES, Histogram, MetricsRegistry, TimeSeries
from .reporting import ascii_table, banner, format_percent, format_series

__all__ = [
    "TimeSeries",
    "Histogram",
    "DEFAULT_LATENCY_BOUNDARIES",
    "MetricsRegistry",
    "makespan",
    "throughput_jobs_per_minute",
    "ascii_table",
    "format_series",
    "format_percent",
    "banner",
]
