"""Stock higher-level controllers built on the controller framework."""

from .replicaset import ReplicaSet, ReplicaSetController

__all__ = [
    "ReplicaSet",
    "ReplicaSetController",
]
