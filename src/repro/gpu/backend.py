"""Per-node token backend daemon (paper §4.5).

One backend runs on each host and manages a token per GPU device. A
container may only execute kernels while it holds the device's valid
token; the token carries a fixed time quota, and when it expires the
container must re-acquire. The backend's three tasks, per the paper:

1. track the GPU usage time of each container (sliding-window hold time);
2. schedule the token to one of the queued requests;
3. determine the time quota of the token.

The token-scheduling policy implements the paper's three steps verbatim:

1. **filter** requests from containers whose usage already reached their
   ``gpu_limit``;
2. prefer the container **farthest below its ``gpu_request``** (the
   guarantee step — KubeShare-Sched never over-commits requests, so this
   can always be satisfied);
3. if everyone is at their minimum, grant to the **lowest-usage**
   container, spreading residual capacity fairly.

Each grant costs a fixed ``handoff_overhead`` of idle device time (IPC +
context switch), which is what produces Figure 7's overhead-vs-quota
curve: overhead fraction ≈ handoff / (quota + handoff).

The daemon runs no process of its own. Handoff, grant, quota expiry and
the retry after a denial are timer callbacks, and a token's expiry timer
lives exactly as long as the token: every other way a token ends
(release, the holder unregistering, a daemon restart, a failed device)
tombstones it. Every end but a release calls the token's ``on_end`` hook,
where the holder's device library stops its kernel in flight.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Deque, Dict, Generator, List, Optional, Tuple

from ..obs import runtime as obs
from ..sim import Environment, Event
from .device import DeviceLostError

__all__ = [
    "Token",
    "TokenBackend",
    "TokenBackendUnavailable",
    "ClientRecord",
    "DEFAULT_QUOTA",
    "DEFAULT_WINDOW",
]


class TokenBackendUnavailable(Exception):
    """The per-node token daemon restarted; the request was dropped.

    Retryable: the device library re-registers (the daemon lost all client
    state) and asks again."""

#: The paper's chosen time quota (100 ms, §4.5/§5.2).
DEFAULT_QUOTA = 0.100
#: Sliding window over which usage rates are measured.
DEFAULT_WINDOW = 2.5


@dataclass
class Token:
    """Permission to execute kernels on one device until expiry."""

    device_uuid: str
    client_id: str
    granted_at: float
    quota: float
    valid: bool = True
    #: the holder's hook, called with the token whenever the backend ends
    #: it, except when the holder releases it.
    on_end: Optional[Callable[["Token"], None]] = field(default=None, repr=False)

    def expires_at(self) -> float:
        return self.granted_at + self.quota

    def remaining(self, now: float) -> float:
        if not self.valid:
            return 0.0
        return max(0.0, self.expires_at() - now)


@dataclass
class ClientRecord:
    """Backend-side state for one registered container."""

    client_id: str
    request: float
    limit: float
    #: closed (start, end) token-hold intervals, pruned to the window.
    intervals: Deque[Tuple[float, float]] = field(default_factory=deque)
    hold_start: Optional[float] = None
    #: running sum of the durations of every interval still in the deque
    #: (maintained by :meth:`push_interval` / :meth:`_prune`).
    _dur_sum: float = 0.0
    #: the ``now`` of the last prune — expired intervals are dropped once
    #: per clock advance, not on every read.
    _pruned_at: float = float("-inf")

    def push_interval(self, start: float, end: float) -> None:
        """Record a closed token-hold interval."""
        self.intervals.append((start, end))
        self._dur_sum += end - start

    def _prune(self, horizon: float) -> None:
        intervals = self.intervals
        while intervals and intervals[0][1] <= horizon:
            start, end = intervals.popleft()
            self._dur_sum -= end - start
        if not intervals:
            self._dur_sum = 0.0  # kill any accumulated float residue

    def usage(self, now: float, window: float) -> float:  # hot-path
        """Fraction of the last *window* seconds this client held the token.

        O(1) amortized: a running sum of interval durations plus a single
        adjustment for the (at most one, since intervals are disjoint and
        ordered) interval straddling the window's left edge.
        """
        if window <= 0:
            return 0.0
        horizon = now - window
        if now != self._pruned_at:
            self._prune(horizon)
            self._pruned_at = now
        held = self._dur_sum
        if self.intervals:
            first_start = self.intervals[0][0]
            if first_start < horizon:
                held -= horizon - first_start
        if self.hold_start is not None:
            held += now - max(self.hold_start, horizon)
        return min(1.0, held / window)


class _DeviceState:
    def __init__(self) -> None:
        self.clients: Dict[str, ClientRecord] = {}
        #: FIFO of (client_id, grant event) waiting for the token.
        self.queue: List[Tuple[str, Event]] = []
        self.token: Optional[Token] = None
        #: the quota-expiry timer of ``token``, tombstoned when it ends early.
        self.expiry: Optional[Event] = None
        self.granting = False
        self.retry_scheduled = False
        self.grants_total = 0
        self.handoffs_total = 0


class TokenBackend:
    """The per-node daemon. One instance manages every device on a host."""

    SERVICE_NAME = "kubeshare-backend"

    def __init__(
        self,
        env: Environment,
        quota: float = DEFAULT_QUOTA,
        window: float = DEFAULT_WINDOW,
        handoff_overhead: float = 0.0015,
    ) -> None:
        if quota <= 0:
            raise ValueError("quota must be > 0")
        if window < quota:
            raise ValueError("window must be >= quota")
        self.env = env
        self.quota = quota
        self.window = window
        self.handoff_overhead = handoff_overhead
        self._devices: Dict[str, _DeviceState] = {}
        #: bumped on every daemon restart.
        self.restarts_total = 0
        #: device uuid -> failure reason, for devices declared lost.
        self._dead: Dict[str, str] = {}
        #: Optional duck-typed observer (see repro.analysis.race): told of
        #: every token grant so double-grants can be flagged at the source.
        self.tracker = None

    # -- registration ----------------------------------------------------
    def register(
        self, device_uuid: str, client_id: str, request: float, limit: float
    ) -> ClientRecord:
        """Register a container's (request, limit) for a device."""
        if not 0.0 <= request <= 1.0:
            raise ValueError(f"request must be in [0,1], got {request}")
        if not 0.0 < limit <= 1.0:
            raise ValueError(f"limit must be in (0,1], got {limit}")
        state = self._devices.setdefault(device_uuid, _DeviceState())
        record = ClientRecord(client_id, request, limit)
        state.clients[client_id] = record
        return record

    def registered(self, device_uuid: str, client_id: str) -> bool:
        """Whether *client_id* holds a record on the device (a restart
        and :meth:`fail_device` drop every record)."""
        state = self._devices.get(device_uuid)
        return state is not None and client_id in state.clients

    def unregister(self, device_uuid: str, client_id: str) -> None:
        state = self._devices.get(device_uuid)
        if state is None:
            return
        state.queue = [(c, ev) for c, ev in state.queue if c != client_id]
        record = state.clients.pop(client_id, None)
        if (
            record is not None
            and state.token is not None
            and state.token.client_id == client_id
        ):
            # The holder is gone: close its hold interval and invalidate the
            # token right away, so the device is not dead until quota expiry
            # and the expiry path never touches the popped record.
            self._end_hold(state, record)
            self._end_token(state)
        self._maybe_grant(device_uuid)

    def usage(self, device_uuid: str, client_id: str) -> float:
        """Sliding-window usage rate of a container (device-library metric,
        the per-container series of Figure 6)."""
        state = self._devices.get(device_uuid)
        if state is None or client_id not in state.clients:
            return 0.0
        return state.clients[client_id].usage(self.env.now, self.window)

    def device_uuids(self) -> List[str]:
        """Sorted uuids of every device with backend state (obs sampler)."""
        return sorted(self._devices)

    def window_occupancy(self, device_uuid: str) -> float:
        """Aggregate sliding-window hold fraction across all clients of a
        device — how full its quota window is (obs gauge, read-only)."""
        state = self._devices.get(device_uuid)
        if state is None:
            return 0.0
        now = self.env.now
        total = sum(
            record.usage(now, self.window) for record in state.clients.values()
        )
        return min(1.0, total)

    def stats(self, device_uuid: str) -> Dict[str, int]:
        state = self._devices.setdefault(device_uuid, _DeviceState())
        return {
            "grants": state.grants_total,
            "handoffs": state.handoffs_total,
            "queued": len(state.queue),
        }

    # -- token protocol -----------------------------------------------------
    def acquire(self, device_uuid: str, client_id: str) -> Generator:
        """Process: block until a valid token is granted; returns it."""
        if device_uuid in self._dead:
            raise DeviceLostError(
                f"device {device_uuid} failed: {self._dead[device_uuid]}"
            )
        state = self._devices.setdefault(device_uuid, _DeviceState())
        if client_id not in state.clients:
            raise KeyError(f"client {client_id} not registered on {device_uuid}")
        grant = self.env.event()
        state.queue.append((client_id, grant))
        self._maybe_grant(device_uuid)
        token = yield grant
        return token

    def release(self, token: Token) -> None:
        """Holder voluntarily returns the token before expiry."""
        state = self._devices.get(token.device_uuid)
        if state is None or state.token is not token or not token.valid:
            return
        record = state.clients.get(token.client_id)
        if record is not None:
            self._end_hold(state, record)
        self._end_token(state, by_holder=True)
        self._maybe_grant(token.device_uuid)

    # -- failure & restart ------------------------------------------------------
    def fail_device(
        self, device_uuid: str, reason: str = "uncorrectable ECC error"
    ) -> None:
        """Drain a dead device: invalidate the token and fail every queued
        grant as a *handled* event so waiters observe the loss without
        crashing the simulation."""
        self._dead[device_uuid] = reason
        state = self._devices.pop(device_uuid, None)
        if state is None:
            return
        if state.token is not None:
            self._end_token(state)
        for client_id, grant in state.queue:
            if not grant.triggered:
                grant.fail(
                    DeviceLostError(
                        f"device {device_uuid} failed while {client_id} "
                        f"was queued: {reason}"
                    )
                )
                grant.defused = True
        state.queue.clear()

    def revive_device(self, device_uuid: str) -> None:
        """Re-admit a repaired device (clients must re-register)."""
        self._dead.pop(device_uuid, None)

    def restart(self) -> None:
        """Daemon restart: all client registrations, queues, and tokens are
        lost. Queued grants fail with :class:`TokenBackendUnavailable`
        (handled, retryable); device libraries re-register before asking
        again."""
        self.restarts_total += 1
        for device_uuid, state in self._devices.items():
            if state.token is not None:
                self._end_token(state)
            for client_id, grant in state.queue:
                if not grant.triggered:
                    grant.fail(
                        TokenBackendUnavailable(
                            f"backend restarted; grant for {client_id} on "
                            f"{device_uuid} dropped"
                        )
                    )
                    grant.defused = True
            state.queue.clear()
        self._devices.clear()

    # -- internal ---------------------------------------------------------------
    def _end_hold(self, state: _DeviceState, record: ClientRecord) -> None:
        if record.hold_start is not None:
            record.push_interval(record.hold_start, self.env.now)
            record.hold_start = None

    def _end_token(self, state: _DeviceState, by_holder: bool = False) -> None:
        """Invalidate the device's token and tombstone its expiry timer;
        tell the holder, unless it gave the token back itself."""
        token = state.token
        token.valid = False
        state.token = None
        state.expiry.cancel()
        state.expiry = None
        if token.on_end is not None and not by_holder:
            token.on_end(token)

    def _pick(self, state: _DeviceState) -> Optional[int]:
        """Index into the queue of the request to grant next, or None."""
        now = self.env.now
        usages = {
            cid: state.clients[cid].usage(now, self.window)
            for cid, _ in state.queue
            if cid in state.clients
        }
        # Step 1: filter clients at/over their limit.
        eligible = [
            (i, cid)
            for i, (cid, _) in enumerate(state.queue)
            if cid in usages and usages[cid] < state.clients[cid].limit - 1e-9
        ]
        if not eligible:
            return None
        # Step 2: farthest below its request first.
        below = [
            (i, cid)
            for i, cid in eligible
            if usages[cid] < state.clients[cid].request - 1e-9
        ]
        if below:
            return max(below, key=lambda t: state.clients[t[1]].request - usages[t[1]])[0]
        # Step 3: lowest usage (FIFO tie-break via stable min).
        return min(eligible, key=lambda t: usages[t[1]])[0]

    def _maybe_grant(self, device_uuid: str) -> None:
        state = self._devices.get(device_uuid)
        if state is None:  # device failed / daemon restarted meanwhile
            return
        if state.granting or (state.token is not None and state.token.valid):
            return
        if not state.queue:
            return
        state.granting = True
        # The pick happens *after* the handoff delay so that a holder whose
        # token just expired has re-queued by decision time — otherwise the
        # priority policy would degrade to strict alternation. A small
        # floor keeps the decision robust to same-instant floating-point
        # races even when handoff_overhead is configured to zero.
        self.env.timeout(max(self.handoff_overhead, self.quota * 1e-3)).callbacks.append(
            partial(self._handoff, device_uuid)
        )

    def _handoff(self, device_uuid: str, _event: Event) -> None:
        """The handoff delay is over: grant the token to the next client."""
        state = self._devices.get(device_uuid)
        if state is None:  # device failed / daemon restarted mid-handoff
            return
        state.granting = False
        idx = self._pick(state)
        if idx is None:
            # Everyone queued is at/over their limit; usage decays as the
            # window slides, so check again shortly.
            if state.queue and not state.retry_scheduled:
                state.retry_scheduled = True
                if obs.enabled():
                    obs.token_deny(device_uuid, len(state.queue))
                self.env.timeout(self.quota / 4).callbacks.append(
                    partial(self._retry, device_uuid)
                )
            return
        client_id, grant = state.queue.pop(idx)
        record = state.clients.get(client_id)
        if record is None:  # pragma: no cover - unregistered while queued
            grant.fail(KeyError(f"client {client_id} unregistered"))
            grant.defused = True
            self._maybe_grant(device_uuid)
            return
        token = Token(device_uuid, client_id, self.env.now, self.quota)
        if self.tracker is not None:
            self.tracker.record_token_grant(device_uuid, token, state.token)
        state.token = token
        state.grants_total += 1
        state.handoffs_total += 1
        record.hold_start = self.env.now
        if obs.enabled():
            obs.token_grant(device_uuid, client_id, self.quota)
        grant.succeed(token)
        state.expiry = self.env.timeout(self.quota)
        state.expiry.callbacks.append(partial(self._expire, state, token))

    def _retry(self, device_uuid: str, _event: Event) -> None:
        """The back-off after a denial is over: try to grant again."""
        state = self._devices.get(device_uuid)
        if state is None:  # device failed / daemon restarted meanwhile
            return
        state.retry_scheduled = False
        self._maybe_grant(device_uuid)

    def _expire(self, state: _DeviceState, token: Token, _event: Event) -> None:
        """*token* ran its full quota (any earlier end tombstoned this)."""
        if state.token is not token:
            # A handoff timer that outlived a restart granted over it.
            return
        # The holder's current record: it may have re-registered mid-hold.
        self._end_hold(state, state.clients[token.client_id])
        self._end_token(state)
        self._maybe_grant(token.device_uuid)
