"""Elastic GPU-share solver.

The paper's token scheduler (§4.5) elastically allocates residual capacity:
every container is guaranteed its ``gpu_request``, may consume up to its
``gpu_limit``, and leftover capacity is spread "more fairly" (the token
goes to the lowest-usage container once everyone is at their minimum).

The steady state of that policy is a *water-filling* allocation with
per-container floors and ceilings. :func:`elastic_shares` computes it in
closed form; the discrete token backend converges to it (verified by the
equivalence tests in ``tests/gpu/test_token_fluid_equivalence.py``), and
the fluid compute engine uses it directly so cluster-scale experiments
don't have to simulate every 100 ms token exchange.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import List, Sequence

import numpy as np

__all__ = ["elastic_shares", "elastic_shares_py", "ShareEntry"]


class ShareEntry:
    """One container's share parameters on a device.

    ``request``
        guaranteed minimum fraction (``gpu_request``), 0..1.
    ``cap``
        the most the container can use right now:
        ``min(gpu_limit, instantaneous demand)``. A container with no
        pending kernels has ``cap == 0``.
    """

    __slots__ = ("request", "cap")

    def __init__(self, request: float, cap: float) -> None:
        if not 0.0 <= request <= 1.0:
            raise ValueError(f"request must be in [0, 1], got {request}")
        if cap < 0.0:
            raise ValueError(f"cap must be >= 0, got {cap}")
        self.request = request
        self.cap = min(cap, 1.0)

    def __repr__(self) -> str:  # pragma: no cover
        return f"ShareEntry(request={self.request}, cap={self.cap})"


def elastic_shares(
    entries: Sequence[ShareEntry], capacity: float = 1.0, tol: float = 1e-9
) -> np.ndarray:
    """Steady-state elastic allocation for containers sharing one GPU.

    Returns an array of granted fractions, one per entry, satisfying:

    * ``alloc_i <= cap_i`` (never beyond limit or demand);
    * ``alloc_i >= min(request_i, cap_i)`` whenever the floors fit — the
      ``gpu_request`` guarantee (a container demanding less than its
      request simply uses less);
    * residual capacity is distributed to equalize usage (water level
      ``L``): ``alloc_i = clip(L, floor_i, cap_i)``;
    * ``sum(alloc) == min(capacity, sum(cap))``.

    If the floors alone exceed *capacity* (an over-committed device, which
    KubeShare-Sched never produces but baseline systems can), floors are
    scaled back proportionally.
    """
    if not entries:
        return np.zeros(0)
    if capacity <= 0:
        raise ValueError("capacity must be > 0")

    caps = np.array([e.cap for e in entries], dtype=float)
    floors = np.minimum(np.array([e.request for e in entries], dtype=float), caps)

    total_cap = caps.sum()
    if total_cap <= capacity + tol:
        # Demand does not saturate the device: everyone runs at demand.
        return caps.copy()

    total_floor = floors.sum()
    if total_floor > capacity + tol:
        # Over-commitment: degrade proportionally to the guarantees.
        return floors * (capacity / total_floor)

    # Water-filling: find level L with sum(clip(L, floors, caps)) == capacity.
    # f(L) is piecewise linear and nondecreasing; solve on the breakpoints.
    points = np.unique(np.concatenate([floors, caps]))
    allocated = np.clip(points[:, None], floors[None, :], caps[None, :]).sum(axis=1)
    # First breakpoint where allocation meets capacity.
    idx = int(np.searchsorted(allocated, capacity, side="left"))
    if idx == 0:
        lo, hi = 0.0, points[0]
        f_lo = floors.sum()
    elif idx >= len(points):
        # capacity > sum(caps): handled above, but guard numerically.
        return caps.copy()
    else:
        lo, hi = points[idx - 1], points[idx]
        f_lo = allocated[idx - 1]
    # Between breakpoints, f is linear with slope = number of entries whose
    # clip is the identity (floors < L < caps).
    slope = np.count_nonzero((floors <= lo + tol) & (caps >= hi - tol))
    if slope == 0:
        level = hi
    else:
        level = lo + (capacity - f_lo) / slope
        level = min(max(level, lo), hi)
    alloc = np.clip(level, floors, caps)
    # Numerical cleanup: rescale the flexible entries so the sum is exact.
    diff = capacity - alloc.sum()
    if abs(diff) > tol:
        flexible = (alloc > floors + tol) & (alloc < caps - tol)
        n = np.count_nonzero(flexible)
        if n:
            alloc[flexible] += diff / n
            alloc = np.clip(alloc, floors, caps)
    return alloc


def elastic_shares_py(
    entries: Sequence[ShareEntry], capacity: float = 1.0, tol: float = 1e-9
) -> List[float]:
    """:func:`elastic_shares`, mirrored in pure Python for small *n*.

    The numpy solver's fixed overhead (array construction, ufunc
    dispatch) dwarfs the arithmetic when a device hosts a handful of
    sessions — the common case everywhere outside synthetic scale runs.
    This mirror performs the *same* IEEE-754 operations in the *same*
    order, so its results are bit-identical to the reference for
    ``len(entries) < 8``: below eight elements numpy's pairwise summation
    degenerates to the sequential left-to-right loop that ``sum()`` /
    ``+=`` perform, ``np.unique`` equals ``sorted(set(...))`` for the
    NaN-free non-negative floats ShareEntry admits, ``np.clip`` is
    ``min(max(x, lo), hi)`` element-wise, and ``np.searchsorted(...,
    side="left")`` is ``bisect_left``.  ``tests/gpu`` fuzzes the two
    against each other.

    Callers with ``n >= 8`` must use the numpy solver (pairwise summation
    changes the rounding above that threshold, and vectorization wins
    anyway).
    """
    if not entries:
        return []
    if capacity <= 0:
        raise ValueError("capacity must be > 0")

    caps = [e.cap for e in entries]
    floors = [r if r < c else c for r, c in zip((e.request for e in entries), caps)]

    total_cap = sum(caps)
    if total_cap <= capacity + tol:
        return list(caps)

    total_floor = sum(floors)
    if total_floor > capacity + tol:
        scale = capacity / total_floor
        return [f * scale for f in floors]

    points = sorted(set(floors) | set(caps))
    allocated = [
        sum(lo if p < lo else (hi if p > hi else p) for lo, hi in zip(floors, caps))
        for p in points
    ]
    idx = bisect_left(allocated, capacity)
    if idx == 0:
        lo, hi = 0.0, points[0]
        f_lo = total_floor
    elif idx >= len(points):
        return list(caps)
    else:
        lo, hi = points[idx - 1], points[idx]
        f_lo = allocated[idx - 1]
    lo_t = lo + tol
    hi_t = hi - tol
    slope = sum(1 for f, c in zip(floors, caps) if f <= lo_t and c >= hi_t)
    if slope == 0:
        level = hi
    else:
        level = lo + (capacity - f_lo) / slope
        level = min(max(level, lo), hi)
    alloc = [f if level < f else (c if level > c else level) for f, c in zip(floors, caps)]
    diff = capacity - sum(alloc)
    if abs(diff) > tol:
        bump = [a > f + tol and a < c - tol for a, f, c in zip(alloc, floors, caps)]
        n = sum(bump)
        if n:
            step = diff / n
            alloc = [
                min(max(a + step, f), c) if b else a
                for a, b, f, c in zip(alloc, bump, floors, caps)
            ]
    return alloc
