"""Benchmark harness configuration.

``pytest benchmarks/ --benchmark-only -s`` regenerates every table and
figure of the paper's evaluation: each bench prints the reproduced
rows/series (so they appear inline with the timing results) and asserts
the paper's qualitative shape. Scales are reduced relative to the paper's
8-node × 90-minute runs where wall time demands it; EXPERIMENTS.md records
the full paper-vs-measured comparison.
"""

import os

import pytest

from repro.analysis.resets import reset_all
from repro.obs.artifact import export_all
from tests.conftest import _stored_values_read_only  # noqa: F401 - autouse: armed for every bench


def emit(text: str) -> None:
    """Print a regenerated table/series block."""
    print("\n" + text)


@pytest.fixture
def report():
    return emit


@pytest.fixture
def export_obs():
    """Write a run's obs snapshot as ``<label>.{json,trace.json,...}``
    under ``REPRO_OBS_DIR`` (default ``obs-artifacts``)."""
    directory = os.environ.get("REPRO_OBS_DIR", "obs-artifacts")
    return lambda art: export_all(art, directory, art["label"])


@pytest.fixture(autouse=True)
def _fresh_process_state():
    """Each bench starts from fresh process-global state (GPUID #1, ...).

    Algorithm 1 breaks placement ties by GPUID ordering, and GPUIDs are
    hashed from a process-global counter — without a reset every scenario
    depends on how many vGPUs earlier tests created, so results shift
    whenever a test is added or reordered. The reset registry
    (:mod:`repro.analysis.resets`) runs every registered hook, so newly
    added global state is covered without editing this fixture."""
    reset_all()
