"""Token holds: one engine session per hold, cut short when the backend
ends the token under a running kernel.

Under token isolation the device library runs a launch as one engine
session per token hold. When the backend ends a token before its quota
(a daemon restart, a failed device, the holder's unregister) the device
cuts the holder's session at its next kernel boundary, the first
multiple of ``MAX_KERNEL_CHUNK`` of work from the session's start; at
quota expiry it cuts it at once, which changes nothing unless a revoked
holder's in-flight work slowed it. Two oracles check this:

* :class:`TokenHoldChecker` checks the token properties at every engine
  ``_recompute`` on a token-isolated device: (a) only the client holding
  the device's valid token runs token-gated work, except a session whose
  token ended early, for at most ``MAX_KERNEL_CHUNK`` of work after that
  end; (b) no token-gated session runs past its token's expiry: a run
  starts with no more work than its token has time left, and ends by
  the expiry. It is armed over the chaos and failover capstones and over
  a cluster whose token daemon restarts under running kernels.
* :class:`ChunkLoopLibrary` is the library's old launch loop, kept here
  as the oracle: it cut every launch into ``MAX_KERNEL_CHUNK`` sessions
  and noticed a dead token at the next one. Restart, backend device
  failure and the holder's unregister, each 10 ms into a hold, must give
  the same completions, grant order and hold intervals on both.
"""

import pytest

from repro.gpu import frontend
from repro.gpu.backend import TokenBackend
from repro.gpu.device import DeviceLostError, GPUDevice
from repro.gpu.frontend import MAX_KERNEL_CHUNK, VGPUDeviceLibrary
from repro.gpu.standalone import kubeshare_env_vars, standalone_context
from repro.sim import Environment


class ChunkLoopLibrary(VGPUDeviceLibrary):
    """The library before one session per hold: every launch runs in
    chunks of at most ``MAX_KERNEL_CHUNK``, and a token that ends under a
    chunk is noticed when the chunk ends."""

    def _token_launch(self, next_fn, ctx, work, pace):
        backend = self.backend
        env = self.container.env
        dev = ctx.device.uuid
        self._ensure_registered(backend, dev)
        remaining = float(work)
        self._launches_active[dev] = self._launches_active.get(dev, 0) + 1
        try:
            while remaining > 1e-12:
                token = self._tokens.get(dev)
                if token is None or not token.valid or token.remaining(env.now) <= 1e-12:
                    token = yield from self._acquire(backend, dev)
                    self._tokens[dev] = token
                chunk = min(remaining, token.remaining(env.now), MAX_KERNEL_CHUNK)
                if chunk <= 1e-12:
                    self._tokens.pop(dev, None)
                    continue
                yield from next_fn(ctx, chunk)
                remaining -= chunk
        finally:
            self._launches_active[dev] -= 1
            if self._launches_active[dev] == 0 and not self._idle_watch.get(dev):
                self._idle_watch[dev] = True
                env.timeout(frontend.IDLE_REVOKE_GRACE).callbacks.append(
                    lambda event: self._idle_fire(dev, event)
                )

    def _token_ended(self, token):
        """No cut: the chunk in flight ends on its own."""


def _client(session):
    """The container (token client id) a compute session belongs to: its
    name is the CUDA context owner, ``<pod uid>:ctx<n>``."""
    return session.name.rpartition(":ctx")[0]


def _work_left(device, s, now):
    """Work *s* has left at *now*, its slice in flight billed so far."""
    if s in device._armed:
        return s._remaining - (now - s._started) * s._slice_rate
    return s._remaining  # a run starting: _recompute before _arm


class TokenHoldChecker:
    """Asserts the token-hold properties at every engine ``_recompute``.

    A device is token-isolated once a client registers on it with a
    token backend, and that client's sessions on it are token-gated.

    (a) A running token-gated session belongs to the client holding the
    device's valid token. The exception: when a token ends before its
    expiry, each running session of its holder on that device may go on
    until its run ends, for at most ``MAX_KERNEL_CHUNK`` of work from
    that instant.

    (b) A token-gated run starts under its client's valid token with no
    more work than the token has time left (a token session runs at up
    to the whole device), and ends by that token's expiry unless the
    token ended early.
    """

    def __init__(self, monkeypatch):
        self.backends = {}  # device uuid -> token backend
        self.devices = {}  # device uuid -> GPUDevice
        self.gated = set()  # (device uuid, client id)
        self.runs = {}  # session -> the token its run started under
        self.exempt = {}  # session -> its granted_time() when its token ended
        self.checks = 0  # running token-gated sessions checked
        self.early_ends = 0  # tokens ended early under a running kernel
        self.late_kernels = 0  # kernels still running at their token's expiry
        #: what failed, recorded rather than raised inside the simulation
        #: (where a workload would catch it)
        self.violations = []
        register, end_token, recompute = (
            TokenBackend.register,
            TokenBackend._end_token,
            GPUDevice._recompute,
        )
        checker = self

        def register_(backend, device_uuid, client_id, request, limit):
            checker.backends[device_uuid] = backend
            checker.gated.add((device_uuid, client_id))
            return register(backend, device_uuid, client_id, request, limit)

        def end_token_(backend, state, *args, **kwargs):
            checker._token_ending(backend.env.now, state.token)
            return end_token(backend, state, *args, **kwargs)

        def recompute_(device):
            recompute(device)
            checker._check(device)

        monkeypatch.setattr(TokenBackend, "register", register_)
        monkeypatch.setattr(TokenBackend, "_end_token", end_token_)
        monkeypatch.setattr(GPUDevice, "_recompute", recompute_)

    def _token_ending(self, now, token):
        device = self.devices.get(token.device_uuid)
        if device is None:
            return
        for s in device._armed:
            if _client(s) != token.client_id:
                continue
            if now < token.expires_at():
                self.exempt[s] = s.granted_time()
                self.early_ends += 1
            elif _work_left(device, s, now) > 1e-12:
                self.late_kernels += 1  # slowed by a revoked holder's kernel

    def _check(self, device):
        self.devices[device.uuid] = device
        backend = self.backends.get(device.uuid)
        if backend is None:
            return
        now = device.env.now
        for s in [s for s in self.runs if s.device is device]:
            if s not in device._armed and not s.demand:  # its run ended
                token = self.runs.pop(s)
                if self.exempt.pop(s, None) is None and now > token.expires_at() + 1e-9:
                    self.violations.append(
                        f"(b) t={now}: {_client(s)}'s run on {device.uuid} "
                        f"ended past its token's expiry {token.expires_at()}"
                    )
        state = backend._devices.get(device.uuid)
        token = state.token if state is not None else None
        for s in device._sessions:
            client = _client(s)
            if s.rate <= 0.0 or (device.uuid, client) not in self.gated:
                continue
            left = _work_left(device, s, now)
            if left <= 1e-12:
                continue  # its kernel is done; its finish timer is due
            self.checks += 1
            if s in self.exempt:
                since = s.granted_time() - self.exempt[s] + left
                if since > MAX_KERNEL_CHUNK + 1e-9:
                    self.violations.append(
                        f"(a) t={now}: {client} runs {since} s of work on "
                        f"{device.uuid} after its token ended"
                    )
            elif token is None or token.client_id != client:
                self.violations.append(
                    f"(a) t={now}: {client} runs on {device.uuid} without its token"
                )
            elif s not in self.runs:  # a run starting
                if s.work > token.remaining(now) + 1e-9:
                    self.violations.append(
                        f"(b) t={now}: {client} starts {s.work} s of work on "
                        f"{device.uuid} with {token.remaining(now)} s of token left"
                    )
                self.runs[s] = token


# -- the checker over seeded schedules --------------------------------------


def test_checker_over_chaos_capstone(monkeypatch):
    from repro.perf import scenarios

    checker = TokenHoldChecker(monkeypatch)
    scenarios.chaos(11)
    assert checker.violations == []
    assert checker.checks > 1000


def test_checker_over_failover_capstone(monkeypatch):
    from repro.perf import scenarios

    checker = TokenHoldChecker(monkeypatch)
    scenarios.failover(13)
    assert checker.violations == []
    assert checker.checks > 1000


def test_checker_over_backend_restarts_under_running_kernels(monkeypatch):
    """Three training jobs share one GPU under token isolation while the
    node's token daemon restarts four times. Saturating jobs always have
    a kernel running, so each restart ends a token under it; and a step
    outlasts the quota, so each hold is one session the length of the
    quota, and the next holder's is slowed while the revoked holder's
    kernel finishes."""
    from repro import Cluster, ClusterConfig, KubeShare
    from repro.chaos import ChaosEngine
    from repro.workloads import TrainingJob

    checker = TokenHoldChecker(monkeypatch)
    cluster = Cluster(config=ClusterConfig(nodes=1, gpus_per_node=1)).start()
    ks = KubeShare(cluster, isolation="token").start()
    stats = []
    for i in range(3):
        workload = TrainingJob(f"t{i}", steps=12, step_work=0.25).workload()
        stats.append(workload.stats)
        ks.submit(
            ks.make_sharepod(
                f"t{i}", gpu_request=0.3, gpu_limit=1.0, gpu_mem=0.3, workload=workload
            )
        )
    engine = ChaosEngine(cluster, kubeshare=ks, seed=5)
    for at in (3.013, 4.21, 5.5077, 6.8):
        engine.backend_restart(at=at)
    engine.start()
    done = cluster.env.process(ks.wait_all_terminal(["t0", "t1", "t2"]))
    cluster.env.run(until=done)

    assert checker.violations == []
    assert [outcome for *_, outcome in engine.log] == ["backend restarted"] * 4
    assert checker.early_ends >= 1  # never vacuous
    assert checker.late_kernels >= 1
    assert checker.checks > 100
    for s in stats:
        assert not s.failed
        assert s.work_done == pytest.approx(3.0)


# -- the library against its old chunk loop ---------------------------------

#: client -> (gap before each launch, work of each launch)
JOBS = {
    "a": [(0.0, 0.3), (0.0, 0.3)],
    "b": [(0.0, 0.075)] + [(0.01, 0.075)] * 5,
    "c": [(0.004, 0.5)],
}


def _play(action, library, monkeypatch, hold=3):
    """Run :data:`JOBS` on one GPU and apply *action* 10 ms into the
    *hold*-th token grant; returns what both libraries must agree on."""
    monkeypatch.setattr(frontend, "VGPUDeviceLibrary", library)
    env = Environment()
    gpu = GPUDevice(env, uuid="GPU-h", node_name="n0")
    backend = TokenBackend(env)
    grants, holds, completions, running = [], [], [], []

    class Tracker:
        def record_token_grant(self, device_uuid, token, prev):
            grants.append(token.client_id)
            if len(grants) == hold:
                env.timeout(0.010).callbacks.append(lambda _e: act(token))

    def act(token):
        running.append(any(_client(s) == token.client_id for s in gpu._armed))
        if action == "restart":
            backend.restart()
        elif action == "fail_device":
            backend.fail_device(gpu.uuid)
        else:
            backend.unregister(gpu.uuid, token.client_id)

    end_token = backend._end_token

    def end_token_(state, *args, **kwargs):
        token = state.token
        holds.append((token.client_id, token.granted_at, env.now))
        end_token(state, *args, **kwargs)

    backend.tracker = Tracker()
    backend._end_token = end_token_

    def job(name, launches):
        ctx = standalone_context(
            env,
            [gpu],
            env_vars=kubeshare_env_vars(0.3, 1.0, 0.3, "token"),
            backend=backend,
            name=name,
        )
        api = ctx.cuda()
        assert type(api.hooks._hooks["cuLaunchKernel"][0].__self__) is library
        cu = api.cu_ctx_create()
        for gap, work in launches:
            if gap:
                yield env.timeout(gap)
            try:
                yield from api.cu_launch_kernel(cu, work)
            except (DeviceLostError, KeyError) as err:
                completions.append((env.now, name, type(err).__name__))
                return
            completions.append((env.now, name, "ok"))

    for name, launches in JOBS.items():
        env.process(job(name, launches), name=name)
    env.run()
    assert running == [True]  # the action lands under the holder's kernel
    return completions, grants, holds


@pytest.mark.parametrize("action", ["restart", "fail_device", "unregister"])
def test_revocation_matches_chunk_loop(action, monkeypatch):
    got = _play(action, VGPUDeviceLibrary, monkeypatch)
    want = _play(action, ChunkLoopLibrary, monkeypatch)
    (got_done, got_grants, got_holds), (want_done, want_grants, want_holds) = got, want
    assert [(name, outcome) for _, name, outcome in got_done] == [
        (name, outcome) for _, name, outcome in want_done
    ]
    assert [t for t, *_ in got_done] == pytest.approx([t for t, *_ in want_done], abs=1e-9)
    assert got_grants == want_grants
    for client in JOBS:
        mine = [(s, e) for c, s, e in got_holds if c == f"uid-{client}"]
        theirs = [(s, e) for c, s, e in want_holds if c == f"uid-{client}"]
        assert len(mine) == len(theirs) > 0
        assert [t for hold in mine for t in hold] == pytest.approx(
            [t for hold in theirs for t in hold], abs=1e-9
        )
