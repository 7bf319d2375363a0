"""Shared fixtures for the test suite."""

import pytest

from repro.analysis.resets import reset_all
from repro.cluster import Cluster, ClusterConfig
from repro.cluster.etcd import Etcd
from repro.sim import Environment


@pytest.fixture(autouse=True)
def _fresh_process_state():
    """Reset every registered piece of process-global mutable state
    (GPUID/UID/pointer counters, ...) so each test runs as if in a fresh
    process. Modules register their own hooks via
    :func:`repro.analysis.resets.register_reset`; nothing is hand-listed
    here, so new global state can never be silently forgotten."""
    reset_all()


@pytest.fixture(autouse=True)
def _stored_values_read_only(monkeypatch):
    """Fail if any value committed to an :class:`Etcd` changes afterwards.

    The apiserver shares stored objects with every reader, so a caller
    that mutates what it read corrupts the store. Each committed value is
    fingerprinted with ``repr`` at commit (``==`` cannot serve: a
    ``LabelSelector`` compares by identity) and checked again at teardown.
    """
    committed = []
    commit = Etcd._commit

    def fingerprinting_commit(self, key, value, blind):
        committed.append((key, value, repr(value)))
        return commit(self, key, value, blind)

    monkeypatch.setattr(Etcd, "_commit", fingerprinting_commit)
    yield
    changed = sorted({key for key, value, seen in committed if repr(value) != seen})
    assert not changed, f"stored values mutated after commit: {changed}"


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def small_cluster(env):
    """A started 2-node / 2-GPU-per-node cluster (4 GPUs total)."""
    cluster = Cluster(env, ClusterConfig(nodes=2, gpus_per_node=2))
    return cluster.start()


def run_process(env, gen, **kwargs):
    """Run *gen* as a process to completion and return its value."""
    proc = env.process(gen, **kwargs)
    env.run(until=proc)
    return proc.value
