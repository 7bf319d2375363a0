"""Apiserver admission: enforce namespace GPU quotas at create time.

The apiserver consults registered admission plugins between kind
validation and the etcd write (see ``APIServer.register_admission``).
This plugin implements the tenant contract:

* A SharePod whose namespace has no ``Namespace`` object, or one without
  a quota, is admitted untouched — the plugin is zero-cost for clusters
  that never create policy objects.
* Otherwise the plugin sums ``gpu_request`` over the namespace's live
  (non-terminal, non-queued) SharePods. If the new SharePod fits, it is
  admitted. If not, the namespace's ``on_exceeded`` mode decides:

  - ``"reject"`` — the create fails with :class:`AdmissionDenied`
    (surfaced to the caller like any apiserver error), with a Warning
    Event and a decision-log entry explaining the arithmetic;
  - ``"queue"`` — the SharePod is admitted but *parked*: the plugin
    stamps the ``policy.kubeshare/queued`` annotation, the scheduler
    skips it, and the quota controller unqueues it FIFO as capacity
    frees up.

Admission runs synchronously inside ``create`` under the apiserver's
single-threaded event-loop discipline, so the read-check-annotate
sequence cannot interleave with another create.
"""

from __future__ import annotations

from typing import Any, Optional

from ..cluster.apiserver import UnknownKind
from ..obs import runtime as obs
from .objects import ANN_QUEUED

__all__ = ["AdmissionDenied", "QuotaAdmission", "live_usage"]


class AdmissionDenied(Exception):
    """The admission plugin refused the create."""


_TERMINAL_PHASES = ("succeeded", "failed")


def _is_live(sp: Any) -> bool:
    """Counts against quota: non-terminal and not parked in the queue."""
    phase = getattr(sp.status, "phase", None)
    phase_val = getattr(phase, "value", phase)
    if isinstance(phase_val, str) and phase_val.lower() in _TERMINAL_PHASES:
        return False
    return ANN_QUEUED not in sp.metadata.annotations


def live_usage(api: Any, namespace: str, exclude: Optional[str] = None) -> float:
    """Sum of ``gpu_request`` over the namespace's live SharePods."""
    total = 0.0
    for sp in api.list("SharePod", namespace=namespace):
        if exclude is not None and sp.metadata.name == exclude:
            continue
        if _is_live(sp):
            total += float(sp.spec.gpu_request)
    return total


class QuotaAdmission:
    """The quota admission plugin registered with the apiserver."""

    name = "quota"

    def __init__(self, api: Any):
        self.api = api

    def admit(self, obj: Any) -> None:
        """Check (and possibly annotate) *obj* before it is persisted.

        Raises :class:`AdmissionDenied` to refuse the create; mutating
        *obj* here is safe because it is the apiserver's own copy of the
        caller's object.
        """
        if getattr(obj, "kind", None) != "SharePod":
            return
        try:
            ns = self.api.get("Namespace", obj.metadata.namespace)
        except UnknownKind:
            return  # policy layer not installed on this cluster
        if ns is None:
            return  # no tenant policy for this namespace
        quota = ns.spec.gpu_quota
        if quota is None:
            return
        req = float(obj.spec.gpu_request)
        usage = live_usage(self.api, obj.metadata.namespace)
        if usage + req <= quota + 1e-9:
            return
        subject = f"{obj.metadata.namespace}/{obj.metadata.name}"
        detail = (
            f"namespace {obj.metadata.namespace!r} quota {quota} GPUs: "
            f"in use {usage}, requested {req}"
        )
        if ns.spec.on_exceeded == "reject":
            obs.event(
                "QuotaRejected",
                detail,
                involved_kind="SharePod",
                involved_name=obj.metadata.name,
                involved_namespace=obj.metadata.namespace,
                type="Warning",
                source="admission/quota",
            )
            obs.policy_decision("quota-reject", subject, detail)
            raise AdmissionDenied(detail)
        # mode "queue": admit but park until the quota controller unqueues
        obj.metadata.annotations[ANN_QUEUED] = detail
        obs.event(
            "QuotaQueued",
            detail,
            involved_kind="SharePod",
            involved_name=obj.metadata.name,
            involved_namespace=obj.metadata.namespace,
            type="Warning",
            source="admission/quota",
        )
        obs.policy_decision("quota-queue", subject, detail)
