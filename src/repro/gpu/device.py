"""Simulated GPU device: memory ledger + fluid-shared compute engine.

A :class:`GPUDevice` executes *kernel work* (measured in seconds of
full-device compute) on behalf of :class:`ComputeSession` objects. At any
instant every session has a *rate* — the fraction of the device it
progresses at — recomputed by :func:`~repro.gpu.sharing.elastic_shares`
whenever the set of demanding sessions changes. A session running alone at
``cap=1`` progresses at rate 1.0 (one second of work per simulated second).

Isolation styles map onto this engine naturally:

* **exclusive** (native Kubernetes): one session per device → rate 1.
* **token mode** (KubeShare's device library at full fidelity): only the
  token holder launches kernels at a time, so the engine sees a single
  demanding session and grants it the whole device — throttling emerges
  from the blocking in the frontend, exactly as with the real library.
* **fluid mode** (KubeShare at cluster scale): sessions carry
  (request, limit) and the engine applies the elastic-share steady state
  directly.
* **unisolated sharing** (Deepomatic-style baselines): sessions carry
  request=0, limit=1 and additionally suffer a contention penalty per
  concurrent peer, modelling interference that no throttling mitigates.

The device times each running session itself. A session's process sleeps
on one event: its finish timer, or nothing while its rate is 0. When a
recompute changes the allocation, the device bills every running
session's progress at its old rate and moves its resume onto a new finish
timer, so a rate change wakes no process. A process resumes only to
finish, to see its device fail, when its finish timer leaves float
residue of work, or when a paced session catches up.

A *paced* session (``run_paced(work, p)``) serves a request stream whose
work arrives at ``p`` per second from the launch. While it keeps up with
the arrivals its appetite is ``p``; when the allocation leaves it below
``p`` it falls behind, and a backlogged server wants the whole device
(appetite 1, so it runs at its limit) until its backlog empties.
"""

from __future__ import annotations

import math
from typing import Dict, Generator, List, Optional

from ..sim import Environment, Event
from .sharing import ShareEntry, elastic_shares, elastic_shares_py

__all__ = [
    "GPUDevice",
    "ComputeSession",
    "GpuOutOfMemory",
    "DeviceLostError",
    "V100_MEMORY",
]

#: Device memory of the paper's Tesla V100s (16 GB).
V100_MEMORY = 16 * 2**30

_INF = float("inf")


class GpuOutOfMemory(Exception):
    """Physical device memory exhausted (or library quota exceeded)."""


class DeviceLostError(Exception):
    """The physical GPU failed (e.g. an uncorrectable ECC error).

    Raised by in-flight CUDA work on the dead device and by any later
    attempt to allocate memory or open a session on it — the simulated
    analogue of ``CUDA_ERROR_ECC_UNCORRECTABLE`` / device-lost."""


class ComputeSession:
    """One container's compute context on a device."""

    def __init__(
        self,
        device: "GPUDevice",
        name: str,
        request: float = 0.0,
        limit: float = 1.0,
        isolated: bool = True,
    ) -> None:
        if not 0.0 <= request <= 1.0:
            raise ValueError(f"request must be in [0,1], got {request}")
        if not 0.0 < limit <= 1.0:
            raise ValueError(f"limit must be in (0,1], got {limit}")
        self.device = device
        self.name = name
        self.request = request
        self.limit = limit
        #: isolated sessions (KubeShare's library serializes kernel
        #: launches) never suffer concurrency contention; unisolated ones
        #: (no compute throttling) do when the device is over-committed.
        self.isolated = isolated
        #: instantaneous demand in [0,1]; 0 when no kernels are pending.
        self.demand = 0.0
        #: current granted rate (engine-computed).
        self.rate = 0.0
        #: integral of granted rate over time (for usage accounting).
        self.granted_integral = 0.0
        #: work of the run in flight (or the last), less any GPUDevice.cut.
        self.work = 0.0
        self._last_update = device.env.now
        self.closed = False
        # The slice in flight while run() executes, owned by the device
        # (GPUDevice._arm / _retime): work left as of `_started`, the rate
        # it bills at since then, the event holding the process's resume
        # (None while parked at rate 0) and when that event fires.
        self._resume = None
        self._remaining = 0.0
        self._started = 0.0
        self._slice_rate = 0.0
        self._holder: Optional[Event] = None
        self._due = _INF
        # Pacing, while run_paced() executes: work arrives at `pace`
        # per second until `_pace_end`; `_behind` while arrived work waits
        # (appetite 1.0, not `pace`); `_catch` when the slice in flight
        # ends where that backlog empties rather than at the finish.
        self.pace = 0.0
        self._pace_end = 0.0
        self._behind = False
        self._catch = False

    # -- engine bookkeeping -------------------------------------------------
    def _accumulate(self, now: float) -> None:
        self.granted_integral += self.rate * (now - self._last_update)
        self._last_update = now

    def granted_time(self) -> float:
        """Total granted compute (seconds of full device) up to now."""
        return self.granted_integral + self.rate * (
            self.device.env.now - self._last_update
        )

    # -- work execution -----------------------------------------------------------
    def run(self, work: float, demand: Optional[float] = None) -> Generator:
        """Process: execute *work* seconds of full-device compute.

        *demand* caps the session's instantaneous appetite (an inference
        job serving a 30% request load has demand 0.3 even when alone);
        default is 1.0 (saturating, like training).

        Each pass of the loop sleeps on the event :meth:`GPUDevice._arm`
        returns. While it sleeps, an allocation change re-times the slice
        in place (:meth:`GPUDevice._retime`): the device bills the work
        done so far, tombstones the finish timer and hangs this process's
        resume on a new one, or on a shared wake when the device failed or
        the work is done. The process itself resumes only when that timer
        or wake fires, and bills what is left of the slice. The
        ``finally`` detaches the resume from
        whichever event holds it, so a kill or interrupt mid-slice (chaos
        teardown) never resumes a dead process.
        """
        if self.closed:
            raise RuntimeError(f"session {self.name} is closed")
        if work < 0:
            raise ValueError("work must be >= 0")
        device = self.device
        env = device.env
        self.demand = 1.0 if demand is None else float(demand)
        self.work = self._remaining = float(work)
        device._recompute()
        try:
            while self._remaining > 1e-12:
                if device.failed:
                    raise DeviceLostError(
                        f"GPU {device.uuid} lost while running "
                        f"{self.name}: {device.fail_reason}"
                    )
                yield device._arm(self)
                self._remaining -= (env.now - self._started) * self._slice_rate
                if self._catch and self._remaining > 1e-12:
                    # A paced session caught up with its arrivals. The
                    # slice is billed up to now, as _backlog reads it.
                    self._started = env.now
                    self._on_schedule()
                    device._recompute()
        finally:
            device._disarm(self)
            self.demand = 0.0
            device._recompute()

    def run_paced(self, work: float, pace: float) -> Generator:
        """Process: serve *work* that arrives at *pace* per second from
        now, a request stream whose arrivals end at ``start + work / pace``.

        The session is *on schedule* while its unserved work is at most
        what is still to arrive, ``pace * (pace_end - now)``; its appetite
        is then *pace*. :meth:`GPUDevice._recompute` makes it *behind*
        when a solve leaves it below *pace*, and a behind session's
        appetite is 1.0, so it runs at its limit. A behind slice at a rate
        above *pace* ends at the earlier of the finish and the catch-up,
        where the backlog is empty; there the process flips back on
        schedule and recomputes. A lone session that keeps up therefore
        finishes at ``start + work / pace``; a pace above the limit (or
        above 1) is behind from the start and runs at the limit. The
        slices are :meth:`run`'s, started at appetite *pace*.
        """
        if not 0.0 < pace < _INF:
            raise ValueError(f"pace must be finite and > 0, got {pace}")
        device = self.device
        self.pace = float(pace)
        self._pace_end = device.env.now + work / self.pace
        device._paced += 1
        try:
            yield from self.run(work, min(self.pace, 1.0))
        finally:
            self.pace = 0.0
            self._behind = self._catch = False
            device._paced -= 1

    def _backlog(self, now: float) -> float:
        """Arrived work not yet served at *now*, while a paced run is
        armed (the slice in flight billed up to *now*)."""
        remaining = self._remaining - (now - self._started) * self._slice_rate
        return remaining - self.pace * (self._pace_end - now)

    def _on_schedule(self) -> None:
        self._behind = False
        self.demand = min(self.pace, 1.0)

    def _falls_behind(self, rate: float) -> bool:
        """Called with a solved *rate*: an on-schedule paced session left
        below its pace would fall behind at once, so it becomes behind,
        with the appetite of a backlogged server. Returns whether it
        flipped."""
        if self.pace and not self._behind and rate < self.pace:
            self._behind = True
            self.demand = 1.0
            return True
        return False

    def set_params(self, request: Optional[float] = None, limit: Optional[float] = None) -> None:
        """Adjust request/limit on the fly (vGPU spec updates)."""
        if request is not None:
            self.request = request
        if limit is not None:
            self.limit = limit
        self.device._recompute()

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            self.demand = 0.0
            self.device._close_session(self)


class GPUDevice:
    """A physical GPU: identity, memory, and the shared compute engine."""

    def __init__(
        self,
        env: Environment,
        uuid: str,
        node_name: str,
        memory: int = V100_MEMORY,
        contention_per_peer: float = 0.05,
    ) -> None:
        self.env = env
        self.uuid = uuid
        self.node_name = node_name
        self.memory = int(memory)
        #: throughput lost per extra concurrently-demanding session when
        #: sharing is *unisolated* (limited memory bandwidth, §1).
        self.contention_per_peer = contention_per_peer
        #: the device threw an uncorrectable error and is unusable.
        self.failed = False
        self.fail_reason: Optional[str] = None
        #: failed state at the last _recompute (forces a re-time pass on
        #: every fail/recover transition even if no rate changed).
        self._last_failed = False
        self._mem_by_owner: Dict[str, int] = {}
        self._sessions: List[ComputeSession] = []
        #: sessions inside run(), in arming order (a dict as ordered set).
        self._armed: Dict[ComputeSession, None] = {}
        #: how many sessions are inside run_paced(); _recompute checks
        #: pacing only while this is non-zero.
        self._paced = 0
        #: integral of total granted rate over time (NVML utilization).
        self.busy_integral = 0.0
        self._busy_rate = 0.0
        self._busy_last = env.now

    # -- memory ledger -------------------------------------------------------
    @property
    def memory_used(self) -> int:
        return sum(self._mem_by_owner.values())

    @property
    def memory_free(self) -> int:
        return self.memory - self.memory_used

    def alloc_memory(self, owner: str, nbytes: int) -> None:
        if self.failed:
            raise DeviceLostError(f"GPU {self.uuid} failed: {self.fail_reason}")
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        if nbytes > self.memory_free:
            raise GpuOutOfMemory(
                f"GPU {self.uuid}: cannot allocate {nbytes} bytes "
                f"({self.memory_free} free of {self.memory})"
            )
        self._mem_by_owner[owner] = self._mem_by_owner.get(owner, 0) + nbytes

    def free_memory(self, owner: str, nbytes: Optional[int] = None) -> None:
        held = self._mem_by_owner.get(owner, 0)
        if nbytes is None:
            nbytes = held
        if nbytes > held + 0:
            raise ValueError(f"{owner} frees {nbytes} but holds {held}")
        remaining = held - nbytes
        if remaining:
            self._mem_by_owner[owner] = remaining
        else:
            self._mem_by_owner.pop(owner, None)

    def memory_of(self, owner: str) -> int:
        return self._mem_by_owner.get(owner, 0)

    # -- compute engine ----------------------------------------------------------
    def open_session(
        self,
        name: str,
        request: float = 0.0,
        limit: float = 1.0,
        isolated: bool = True,
    ) -> ComputeSession:
        if self.failed:
            raise DeviceLostError(f"GPU {self.uuid} failed: {self.fail_reason}")
        session = ComputeSession(
            self, name, request=request, limit=limit, isolated=isolated
        )
        self._sessions.append(session)
        self._recompute()
        return session

    def _close_session(self, session: ComputeSession) -> None:
        try:
            self._sessions.remove(session)
        except ValueError:  # pragma: no cover - double close
            pass
        self._recompute()

    @property
    def sessions(self) -> List[ComputeSession]:
        return list(self._sessions)

    # -- slice timing ------------------------------------------------------------
    def _arm(self, s: ComputeSession) -> Event:
        """Start a slice of *s* on behalf of the process running it;
        returns the event that process sleeps on.

        A session at rate 0 parks: the returned event is never triggered,
        and :meth:`_retime` arms a finish timer once the rate returns.
        """
        armed = self._armed
        armed.pop(s, None)
        armed[s] = None  # re-arming from its own loop moves a session last
        s._resume = self.env.active_process._resume
        timer = self._slice(s, self.env.now)
        return Event(self.env) if timer is None else timer

    def _slice(self, s: ComputeSession, now: float) -> Optional[Event]:
        """Start a slice of *s* at its current rate: its finish timer, or
        None when it parks at rate 0."""
        s._started = now
        rate = s.rate
        if rate <= 1e-12:
            s._slice_rate = 0.0
            s._holder = None
            s._due = _INF
            return None
        s._slice_rate = rate
        delay = s._remaining / rate
        if s.pace:
            # A backlogged paced session that outruns its arrivals ends
            # the slice no later than where its backlog empties.
            s._catch = False
            if s._behind and rate > s.pace:
                backlog = s._backlog(now)
                if backlog > 1e-12 and backlog / (rate - s.pace) < delay:
                    delay = backlog / (rate - s.pace)
                    s._catch = True
        s._holder = timer = self.env.timeout(delay)
        s._due = now + delay
        return timer

    def _disarm(self, s: ComputeSession) -> None:
        """*s* left run(): detach its resume from whatever event holds it,
        and tombstone that event if nothing else waits on it."""
        self._armed.pop(s, None)
        holder, s._holder = s._holder, None
        if holder is not None and holder.callbacks is not None:
            callbacks = holder.callbacks
            if s._resume in callbacks:  # Process.kill may have detached it
                callbacks.remove(s._resume)
            if not callbacks:
                holder.cancel()

    def _retime(self, now: float, sessions: Optional[List[ComputeSession]] = None) -> None:
        """Re-slice every armed session (or just *sessions*) after an
        allocation change.

        In arming order, each session's slice so far is billed at its old
        rate and a new slice starts at the current rate, with the same
        arithmetic as :meth:`ComputeSession.run`. A session whose resume
        already fires at *now* is left alone: its finish timer is due, so
        it bills and re-arms on that timer, or an earlier pass this
        instant already woke it (one pending wake per session at most,
        so no wake can land on a later yield of its process). Sessions
        that must run now — their device failed, or their work is done —
        share one wake event.
        """
        failed = self.failed
        wake = None
        for s in self._armed if sessions is None else sessions:
            if s._due == now:
                continue
            s._remaining -= (now - s._started) * s._slice_rate
            if s._holder is not None:
                s._holder.cancel()
            if failed or s._remaining <= 1e-12:
                if wake is None:
                    wake = self.env.event().succeed()
                wake.callbacks.append(s._resume)
                s._started = now
                s._holder = wake
                s._due = now
                s._catch = False
            else:
                timer = self._slice(s, now)
                if timer is not None:
                    timer.callbacks.append(s._resume)

    def cut(self, s: ComputeSession, grain: float) -> None:
        """End *s*'s run at the first multiple of *grain* of work from its
        start at or after the work done by now (at once for a zero
        *grain*), re-timing it in place; ``s.work`` drops to that end. A
        no-op unless *s* runs and would finish later by more than float
        residue, so a finish timer due now is never moved."""
        now = self.env.now
        if s not in self._armed or s._due == now:
            return
        done = s.work - (s._remaining - (now - s._started) * s._slice_rate)
        end = math.ceil(done / grain) * grain if grain else done
        cut = s.work - end
        if cut > 1e-12:
            s.work = end
            s._remaining -= cut
            self._retime(now, [s])

    # -- failure & recovery -----------------------------------------------------
    def fail(self, reason: str = "uncorrectable ECC error") -> None:
        """Mark the device dead and wake every in-flight session.

        Woken sessions observe ``failed`` and raise
        :class:`DeviceLostError` into their callers."""
        if self.failed:
            return
        self.failed = True
        self.fail_reason = reason
        self._recompute()

    def recover(self) -> None:
        """Bring a failed device back (post-repair); state is wiped."""
        if not self.failed:
            return
        self.failed = False
        self.fail_reason = None
        self._mem_by_owner.clear()
        self._recompute()

    def reset(self) -> None:
        """Power-cycle: wipe the memory ledger (node reboot; any sessions
        must already be closed by their owners' teardown)."""
        self._mem_by_owner.clear()
        self._recompute()

    def _recompute(self) -> None:  # hot-path
        """Re-solve the elastic shares after any membership/demand change."""
        now = self.env.now
        self.busy_integral += self._busy_rate * (now - self._busy_last)
        self._busy_last = now

        demanding = (
            [] if self.failed else [s for s in self._sessions if s.demand > 0.0]
        )
        if self._paced:
            self._pace_states(now, demanding)
        if len(demanding) < 2:
            # Token mode serializes launches, so the engine almost always
            # sees 0 or 1 demanding sessions — and then the full solve
            # collapses: a lone session gets min(limit, demand) exactly
            # (one ShareEntry's cap never exceeds capacity, so the solver
            # returns the cap array unchanged and the n>1 contention term
            # is 1.0), everyone else gets 0. Skipping the solve performs
            # no arithmetic it would not, so the rates are bit-identical.
            winner = demanding[0] if demanding else None
            changed = self.failed is not self._last_failed
            self._last_failed = self.failed
            busy_rate = 0.0
            for s in self._sessions:
                rate = min(s.limit, s.demand) if s is winner else 0.0
                old = s.rate
                if old:
                    # granted_integral only grows while the rate is
                    # non-zero; idle sessions keep a stale _last_update
                    # (their pending integral term is 0.0 either way)...
                    s._accumulate(now)
                elif rate:
                    # ...which must be stamped when the rate leaves 0,
                    # or the idle stretch would bill at the new rate.
                    s._last_update = now
                if rate != old:
                    changed = True
                    s.rate = rate
                busy_rate += rate
            self._busy_rate = busy_rate
            if changed and self._armed:
                self._retime(now)
            return
        new_rates = self._solve(demanding)
        while self._paced:
            # Paced sessions the solve leaves below their pace fall behind
            # and want more, so solve again. A flipped session stays
            # behind, so this ends within n + 1 solves.
            flipped = [s for s in demanding if s._falls_behind(new_rates[id(s)])]
            if not flipped:
                break
            new_rates = self._solve(demanding)

        changed = self.failed is not self._last_failed
        self._last_failed = self.failed
        busy_rate = 0.0
        for s in self._sessions:
            s._accumulate(now)
            rate = new_rates.get(id(s), 0.0)
            if rate != s.rate:
                changed = True
            s.rate = rate
            busy_rate += rate
        self._busy_rate = busy_rate

        # Re-time only when some session's rate actually changed (or the
        # device's failed flag flipped): an unchanged allocation leaves
        # every finish time where it is. The failed-flag term matters
        # because a session can legitimately hold rate 0 on a saturated
        # device and must still observe the loss.
        if changed and self._armed:
            self._retime(now)

    def _pace_states(self, now: float, demanding: List[ComputeSession]) -> None:
        """Before a solve: behind is a backlog, not a memory, so a paced
        session squeezed for no time at all (a same-instant departure) or
        caught up is on schedule again. A lone demanding session needs no
        solve to know its rate, so it falls behind here if it must."""
        for s in self._armed:
            if s._behind and s._backlog(now) <= 1e-12:
                s._on_schedule()
        if len(demanding) == 1:
            winner = demanding[0]
            winner._falls_behind(min(winner.limit, winner.demand))

    def _solve(self, demanding: List[ComputeSession]) -> Dict[int, float]:
        """Elastic-share rates of two or more demanding sessions, keyed by
        session identity."""
        # Contention penalizes *unisolated* concurrent sharing of an
        # over-committed device (limited memory bandwidth, §1). Sessions
        # throttled by KubeShare's library serialize kernel launches and
        # are immune.
        n = len(demanding)
        contended_eff = 1.0
        total_appetite = sum(min(s.limit, s.demand) for s in demanding)
        if total_appetite > 1.0 + 1e-9:
            contended_eff = 1.0 / (1.0 + self.contention_per_peer * (n - 1))

        entries = [
            ShareEntry(request=s.request, cap=min(s.limit, s.demand))
            for s in demanding
        ]
        if n < 8:
            # Bit-identical pure-Python mirror; numpy's fixed dispatch
            # overhead dominates the solve at these sizes.
            alloc = elastic_shares_py(entries, capacity=1.0)
        else:
            alloc = elastic_shares(entries, capacity=1.0)
        return {
            id(s): float(a) * (1.0 if s.isolated else contended_eff)
            for s, a in zip(demanding, alloc)
        }

    # -- utilization accounting -----------------------------------------------------
    def busy_time(self) -> float:
        """Total busy integral up to now (seconds of full-device compute)."""
        return self.busy_integral + self._busy_rate * (self.env.now - self._busy_last)

    def utilization_since(self, t0: float, busy_at_t0: float) -> float:
        """Average utilization between a recorded (t0, busy) sample and now."""
        dt = self.env.now - t0
        if dt <= 0:
            return 0.0
        return (self.busy_time() - busy_at_t0) / dt

    def __repr__(self) -> str:  # pragma: no cover
        return f"<GPUDevice {self.uuid} on {self.node_name}>"
