"""KubeShare-DevMgr: vGPU lifecycle and explicit pod↔device binding (§4.4).

DevMgr is the second of KubeShare's two custom controllers. For every
SharePod that KubeShare-Sched (or the user) has assigned a GPUID, it:

1. **materializes the vGPU** if the GPUID is new — by creating a native
   *placeholder pod* that requests ``nvidia.com/gpu: 1`` through the
   ordinary Kubernetes machinery (so KubeShare co-exists with
   kube-scheduler rather than replacing it), then reading the physical
   UUID from ``NVIDIA_VISIBLE_DEVICES`` inside the launched container and
   recording the GPUID → UUID mapping;
2. **creates the real pod** pinned to the vGPU's node, with the device
   attached by env-var injection (``NVIDIA_VISIBLE_DEVICES=<UUID>``) and
   the vGPU device library installed (``LD_PRELOAD`` + the
   ``KUBESHARE_*`` configuration variables) to isolate its GPU usage;
3. **mirrors** the real pod's phase back onto the SharePod status;
4. **manages idle vGPUs** per the configured pool policy — on-demand
   release (the paper's choice), reservation, or hybrid.
"""

from __future__ import annotations

from typing import Callable, Dict, Generator, List, Optional

from ..cluster.apiserver import (
    AlreadyExists,
    APIServer,
    FencingConflict,
    NotFound,
    ServiceUnavailable,
    translate_event,
)
from ..cluster.controller import Controller
from ..cluster.etcd import WatchEventType
from ..cluster.objects import (
    GPU_RESOURCE,
    ContainerSpec,
    Node,
    ObjectMeta,
    Pod,
    PodPhase,
    PodSpec,
)
from ..gpu.frontend import (
    DEVICE_LIB_SONAME,
    ENV_ISOLATION,
    ENV_LIMIT,
    ENV_MEM,
    ENV_REQUEST,
)
from ..obs import runtime as obs
from ..policy.objects import ANN_REQUEUE_COUNT
from ..policy.revocation import (
    eviction_of,
    finish_eviction,
    requeue_backoff,
    safe_delete,
)
from ..sim import Environment
from .policies import OnDemandPolicy, PoolPolicy
from .sharepod import SharePod
from .vgpu import (
    PLACEHOLDER_PREFIX,
    VGPU,
    VGPUPhase,
    VGPUPool,
    new_gpuid,
    placeholder_gpuid,
)

__all__ = ["KubeShareDevMgr", "PLACEHOLDER_PREFIX"]

_TERMINAL = (PodPhase.SUCCEEDED, PodPhase.FAILED)


class KubeShareDevMgr(Controller):
    """The vGPU/device-manager controller."""

    kind = "SharePod"
    #: concurrent reconciles (see KubeShareSched.workers).
    workers = 16

    def __init__(
        self,
        env: Environment,
        api: APIServer,
        policy: Optional[PoolPolicy] = None,
        isolation: str = "token",
        op_latency: float = 0.06,
    ) -> None:
        if isolation not in ("token", "fluid"):
            raise ValueError(f"unknown isolation mode {isolation!r}")
        super().__init__(env, api, name="kubeshare-devmgr")
        #: this instance's vGPUs; :meth:`rebuild_state` refills it from
        #: the placeholder pods after a failover.
        self.pool = VGPUPool()
        self.policy = policy or OnDemandPolicy()
        self.isolation = isolation
        #: API-roundtrip cost of binding a container to its vGPU and
        #: installing the device library (calibrated — EXPERIMENTS.md).
        self.op_latency = op_latency
        #: sharePod key -> gpuid, for detach bookkeeping after deletion.
        self._bound: Dict[str, str] = {}
        #: sharePod keys whose real pod has been created.
        self._pod_created: set[str] = set()
        #: pod key -> phase, as the Pod watch last delivered it (placeholders
        #: included): what :meth:`plan` reads instead of the apiserver.
        self._pod_phase: Dict[str, PodPhase] = {}
        #: timing records for the Figure 10 experiment.
        self.timings: Dict[str, Dict[str, float]] = {}
        self.vgpus_created_total = 0
        self.vgpus_released_total = 0
        self.vgpus_torn_down_total = 0
        self.sharepods_rescheduled_total = 0
        self.sharepods_evicted_total = 0
        #: requeue backoff for evicted SharePods (see the policy layer).
        self.requeue_base = 0.5
        self.requeue_cap = 8.0
        #: sharePod key -> armed drain-deadline timer process.
        self._drain_timers: Dict[str, object] = {}
        #: gpuid -> armed idle-TTL timer process.
        self._ttl_timers: Dict[str, object] = {}
        self._aux_procs: list = []
        #: nodes whose teardown waits for the apiserver to heal.
        self._node_retries: set[str] = set()
        #: gpuids whose teardown began (counted once if it is retried).
        self._tearing_down: set[str] = set()

    # -- lifecycle ------------------------------------------------------------
    def start(self) -> "KubeShareDevMgr":
        super().start()
        self._watches.append(self.api.watch("Pod", replay=True, deliver=self._on_pod))
        self._aux_procs = [
            self.env.process(self._watch_nodes(), name="devmgr:node-watch"),
        ]
        if self.policy.idle_ttl is not None:
            # An instance started again (a paused replica resuming) re-arms
            # each idle vGPU's TTL for the time it has left.
            for vgpu in self.pool.idle_vgpus():
                if vgpu.idle_since is not None and vgpu.gpuid not in self._ttl_timers:
                    left = vgpu.idle_since + self.policy.idle_ttl - self.env.now
                    self._arm_ttl(vgpu, max(0.0, left))
        return self

    def stop(self) -> None:
        """Stop everything, including the auxiliary node watcher."""
        super().stop()
        self._pod_phase = {}  # the replay on the next start() refills it
        for proc in self._aux_procs:
            if proc.is_alive:
                proc.kill()
        self._aux_procs = []
        # Timers die with the instance. The eviction state survives in
        # SharePod annotations, so a successor re-arms drains from there;
        # a successor's rebuild_state idles its idle vGPUs afresh, and an
        # instance started again re-arms their TTLs in start().
        for timers in (self._drain_timers, self._ttl_timers):
            for proc in timers.values():
                if proc.is_alive:
                    proc.kill()
            timers.clear()

    def rebuild_state(self) -> None:
        """Crash-safe rebuild of the in-memory view from the apiserver.

        A freshly promoted leader relists SharePods and Pods and
        reconstructs the vGPU pool (GPUID ↔ UUID ↔ node, from the
        deterministically named placeholder pods), the sharePod ↔ vGPU
        binding map, and the created-real-pod set — no informer cache or
        predecessor memory is trusted across a failover. Idle vGPUs found
        during the rebuild fall under the pool policy exactly as if their
        last sharePod had just detached; the first pass of each attached
        sharePod activates its vGPU (the *attach* step).
        """
        pods = self.api.list("Pod")
        pod_names = {(p.metadata.namespace, p.name) for p in pods}
        for pod in pods:
            if not pod.name.startswith(PLACEHOLDER_PREFIX):
                continue
            gpuid = placeholder_gpuid(pod.name)
            if self.pool.get(gpuid) is not None:
                continue
            vgpu = VGPU(gpuid=gpuid, created_at=pod.metadata.creation_time)
            vgpu.placeholder_pod = pod.name
            self._read_device(vgpu, pod)
            self.pool.add(vgpu)
        for sp in self.api.list("SharePod"):
            key = sp.metadata.key
            if sp.spec.gpu_id is None or sp.status.phase in _TERMINAL:
                continue
            vgpu = self.pool.get(sp.spec.gpu_id)
            if vgpu is None:
                continue  # reconcile recreates the placeholder idempotently
            vgpu.attached.add(key)
            self._bound[key] = vgpu.gpuid
            if (sp.metadata.namespace, sp.name) in pod_names:
                self._pod_created.add(key)
        for vgpu in self.pool.idle_vgpus():
            self._idle(vgpu)

    def _on_pod(self, raw) -> None:
        """A Pod commit (a watch callback): record its phase, then requeue
        the SharePods of a placeholder's vGPU, or a real pod's owner. A
        prewarmed vGPU (nothing attached, not materialized) reads its
        device here, at its placeholder's Running commit; an attached one
        materializes in its SharePods' pass."""
        etype, pod = translate_event(raw)
        if pod is None:
            return
        if etype is WatchEventType.DELETE:
            self._pod_phase.pop(pod.metadata.key, None)
        else:
            self._pod_phase[pod.metadata.key] = pod.status.phase
        if pod.name.startswith(PLACEHOLDER_PREFIX):
            vgpu = self.pool.by_placeholder(pod.name)
            if vgpu is not None:
                if etype is WatchEventType.PUT and not (vgpu.attached or vgpu.materialized):
                    self._read_device(vgpu, pod)
                for key in sorted(vgpu.attached):
                    self.queue.add(key)
        else:
            for owner in pod.metadata.owner_references:
                if owner.startswith("sharepod:"):
                    self.queue.add(owner.split(":", 1)[1])

    def _watch_nodes(self) -> Generator:
        """Tear down vGPUs whose physical GPU or node is gone.

        Two signals arrive on the Node object: ``ready`` flips false when
        the lifecycle controller declares the node dead, and
        ``unhealthy_gpus`` lists devices the kubelet's plugin reported
        failed (an ECC error on an otherwise healthy node). The teardown
        writes, so this watch keeps a stream and a process."""
        stream = self.api.watch("Node", replay=True)
        self._watches.append(stream)
        while True:
            raw = yield stream.get()
            etype, node = translate_event(raw)
            if node is None:
                continue
            self._node_changed(node.name, None if etype is WatchEventType.DELETE else node)

    def _node_changed(self, name: str, node: Optional[Node]) -> None:
        """Apply one Node state (``None``: deleted) to the vGPU pool."""
        try:
            if node is None or not node.status.ready:
                for vgpu in self.pool.list():
                    if vgpu.node_name == name:
                        self._teardown_vgpu(vgpu, f"node {name} lost")
            else:
                for uuid in node.status.unhealthy_gpus:
                    vgpu = self.pool.by_uuid(uuid)
                    if vgpu is not None:
                        self._teardown_vgpu(vgpu, f"GPU {uuid} failed")
        except ServiceUnavailable:
            # Nothing announces this node again when the apiserver heals,
            # so finish the teardown then from its state at that time.
            if name not in self._node_retries:
                self._node_retries.add(name)
                self._aux_procs.append(
                    self.env.process(self._retry_node(name), name="devmgr:node-watch")
                )

    def _retry_node(self, name: str) -> Generator:
        if (yield from self.api.until_available()):
            self._node_retries.discard(name)
            self._node_changed(name, self.api.get("Node", name, namespace=""))

    # -- plan, then act ------------------------------------------------------------
    def plan(self, key: str, sp: Optional[SharePod]) -> Optional[Callable]:
        """The step a pass for *key* takes next, given its SharePod *sp*
        (``None``: deleted): the method that takes it, called as
        ``step(sp, key)``, or ``None`` when there is nothing to do.

        A pure read of *sp*, this instance's memory and the Pod phases its
        Pod watch keeps; never the apiserver, since :meth:`would_act` asks
        inside commits. A step is named only if taking it changes what
        this reads, so a pass that plans and acts until ``None`` ends
        (DESIGN.md §10.4)."""
        if sp is None:
            if key in self._bound or key in self._pod_created or key in self._pod_phase:
                return self._delete
            return None
        gpuid = sp.spec.gpu_id
        if gpuid is None:
            return None  # waiting for KubeShare-Sched
        if sp.status.phase in _TERMINAL:
            return self._detach if key in self._bound else None
        pod_phase = self._pod_phase.get(key)
        eviction = eviction_of(sp) if sp.metadata.annotations else None
        if eviction is not None:
            if pod_phase in _TERMINAL:
                return self._mirror_pod_status  # it finished inside its drain window
            if self.env.now >= eviction.deadline - 1e-9:
                return self._evict
            return None if key in self._drain_timers else self._open_drain
        vgpu = self.pool.get(gpuid)
        if (
            vgpu is None
            or key not in vgpu.attached
            or self._bound.get(key) != gpuid
            or "sharepod_created" not in self.timings.get(key, ())
            or (vgpu.materialized and (vgpu.phase is not VGPUPhase.ACTIVE or vgpu.idle_since is not None))
        ):
            return self._attach
        if not vgpu.materialized:
            # Only a Running or Failed placeholder, or none, moves it on.
            holder = self._pod_phase.get(f"default/{vgpu.placeholder_pod}")
            if holder in (None, PodPhase.RUNNING, PodPhase.FAILED):
                return self._materialize
            return None
        if key not in self._pod_created:
            return self._create_real_pod
        if pod_phase is not None and pod_phase is not sp.status.phase:
            return self._mirror_pod_status
        return None

    def would_act(self, key: str) -> bool:
        """Whether :meth:`plan` names a step, read from the informer cache."""
        return self.plan(key, self.informer.cache.get(key)) is not None

    def reconcile(self, key: str) -> Generator:
        """Plan and act until :meth:`plan` names nothing. The one wait is
        binding's API round-trip before the real pod is created; after it
        the pass reads and plans afresh, and creates the pod only if that
        is still the next step."""
        namespace, name = key.split("/", 1)
        waited = False
        while True:
            sp = self.api.get("SharePod", name, namespace)
            step = self.plan(key, sp)
            if step is None:
                return
            if step == self._create_real_pod and self.op_latency > 0 and not waited:
                waited = True
                yield self.env.timeout(self.op_latency)
            else:
                waited = False
                step(sp, key)

    def _delete(self, sp: Optional[SharePod], key: str) -> None:
        """The SharePod is gone: delete its real pod and detach it."""
        namespace, name = key.split("/", 1)
        self.api.try_delete("Pod", name, namespace)
        self._pod_created.discard(key)
        self._detach(sp, key)

    # -- attach & materialize --------------------------------------------------------
    def _new_vgpu(self, gpuid: str, node_name: Optional[str] = None) -> VGPU:
        """Add vGPU *gpuid* to the pool and launch its placeholder pod,
        which acquires a physical GPU through the ordinary Kubernetes
        machinery (on *node_name* when the SharePod pins one)."""
        vgpu = VGPU(gpuid=gpuid, created_at=self.env.now)
        vgpu.placeholder_pod = f"{PLACEHOLDER_PREFIX}{gpuid}"
        self.pool.add(vgpu)
        placeholder = Pod(
            metadata=ObjectMeta(
                name=vgpu.placeholder_pod,
                # Always the default namespace: a vGPU is cluster
                # infrastructure shared across tenants, and every later
                # lookup/teardown of the placeholder is namespace-default.
                namespace="default",
                labels={"app": "kubeshare-vgpu"},
            ),
            spec=PodSpec(
                containers=[
                    ContainerSpec(
                        name="holder",
                        image="kubeshare/vgpu-holder",
                        requests={"cpu": 0.1, GPU_RESOURCE: 1},
                    )
                ],
                node_name=node_name,
                workload=None,  # allocates the GPU without running work
            ),
        )
        try:
            self.api.create(placeholder)
        except AlreadyExists:  # pragma: no cover - idempotent retry
            pass
        self.vgpus_created_total += 1
        return vgpu

    @staticmethod
    def _read_device(vgpu: VGPU, pod: Pod) -> bool:
        """Record the physical GPU (UUID and node) that *vgpu*'s
        placeholder *pod* holds; False while the pod is not RUNNING."""
        if pod.status.phase is not PodPhase.RUNNING:
            return False
        uuid = pod.status.container_env.get("NVIDIA_VISIBLE_DEVICES", "")
        vgpu.uuid = uuid.split(",")[0] if uuid else None
        vgpu.node_name = pod.spec.node_name
        return True

    def _attach(self, sp: SharePod, key: str) -> None:
        """Record the timing, create the vGPU if it is new, attach and bind
        *key* to it, and activate it if it is materialized."""
        timing = self.timings.setdefault(key, {})
        timing.setdefault("sharepod_created", sp.metadata.creation_time or 0.0)
        gpuid = sp.spec.gpu_id
        vgpu = self.pool.get(gpuid)
        if vgpu is None:
            # Acquire a GPU from Kubernetes by launching a placeholder pod.
            vgpu = self._new_vgpu(gpuid, node_name=sp.spec.node_name)
            timing["vgpu_requested"] = self.env.now
            obs.event(
                "VGPUCreated",
                f"vGPU {gpuid} requested via placeholder {vgpu.placeholder_pod}",
                involved_kind="SharePod",
                involved_name=sp.name,
                involved_namespace=sp.metadata.namespace,
                source=self.name,
            )
        vgpu.attached.add(key)
        self._bound[key] = gpuid
        if vgpu.materialized:
            vgpu.phase = VGPUPhase.ACTIVE
            vgpu.idle_since = None

    def _materialize(self, sp: SharePod, key: str) -> None:
        """Read the physical UUID out of the running placeholder pod."""
        vgpu = self.pool.get(sp.spec.gpu_id)
        pod = self.api.get("Pod", vgpu.placeholder_pod)
        if pod is None:
            # The placeholder vanished (evicted with a dead node before we
            # ever materialized). Drop the vGPU and raise so the retry path
            # recreates it from scratch.
            self.pool.remove(vgpu.gpuid)
            raise RuntimeError(
                f"placeholder for {vgpu.gpuid} disappeared before materializing"
            )
        if not self._read_device(vgpu, pod):
            # Failed: it could not acquire a GPU; retry by recreating it.
            self.api.try_delete("Pod", vgpu.placeholder_pod)
            self.pool.remove(vgpu.gpuid)
            raise RuntimeError(
                f"placeholder for {vgpu.gpuid} failed: {pod.status.message}"
            )
        vgpu.phase = VGPUPhase.ACTIVE
        vgpu.idle_since = None
        self.timings[key]["vgpu_ready"] = self.env.now
        obs.event(
            "VGPUMaterialized",
            f"vGPU {vgpu.gpuid} bound to physical GPU {vgpu.uuid} "
            f"on {vgpu.node_name}",
            involved_kind="Pod",
            involved_name=vgpu.placeholder_pod,
            involved_namespace=pod.metadata.namespace,
            source=self.name,
        )

    # -- real pod -----------------------------------------------------------------------
    def _create_real_pod(self, sp: SharePod, key: str) -> None:
        """Explicit binding: launch the workload pod on the vGPU's node with
        the device attached and the device library installed."""
        vgpu = self.pool.get(sp.spec.gpu_id)
        pod_spec = sp.spec.pod_spec.clone()
        pod_spec.node_name = vgpu.node_name
        container = pod_spec.containers[0]
        # sharePods never request integer GPUs through the device plugin.
        container.requests.pop(GPU_RESOURCE, None)
        container.env.update(
            {
                "NVIDIA_VISIBLE_DEVICES": vgpu.uuid or "",
                "LD_PRELOAD": DEVICE_LIB_SONAME,
                ENV_REQUEST: str(sp.spec.gpu_request),
                ENV_LIMIT: str(sp.spec.gpu_limit),
                ENV_MEM: str(sp.spec.gpu_mem),
                ENV_ISOLATION: self.isolation,
            }
        )
        pod = Pod(
            metadata=ObjectMeta(
                name=sp.name,
                namespace=sp.metadata.namespace,
                labels=dict(sp.metadata.labels),
                owner_references=[f"sharepod:{sp.metadata.key}"],
            ),
            spec=pod_spec,
        )
        try:
            self.api.create(pod)
        except AlreadyExists:  # pragma: no cover - idempotent retry
            pass
        self._pod_created.add(key)
        self.timings[key]["pod_created"] = self.env.now

        def mutate(obj: SharePod) -> None:
            obj.spec.node_name = vgpu.node_name
            obj.status.pod_name = sp.name
            obj.status.gpu_uuid = vgpu.uuid

        try:
            self.api.patch("SharePod", sp.name, mutate, sp.metadata.namespace)
        except NotFound:  # pragma: no cover - concurrent delete
            pass
        obs.event(
            "Bound",
            f"pod {sp.name} bound to vGPU {vgpu.gpuid} "
            f"(GPU {vgpu.uuid}) on node {vgpu.node_name}",
            involved_kind="SharePod",
            involved_name=sp.name,
            involved_namespace=sp.metadata.namespace,
            source=self.name,
        )

    def _mirror_pod_status(self, sp: SharePod, key: str) -> None:
        pod = self.api.get("Pod", sp.name, sp.metadata.namespace)
        phase = pod.status.phase
        if (
            phase is PodPhase.FAILED
            and sp.spec.restart_policy == "reschedule"
            and self._infra_failure(pod.status.message or "")
        ):
            # The pod died with its infrastructure, not on its own merits;
            # recover instead of mirroring a terminal failure.
            self._recover_sharepod(sp, key, pod.status.message or "infra failure")
            return
        timing = self.timings.setdefault(key, {})
        if phase is PodPhase.RUNNING and "pod_running" not in timing:
            timing["pod_running"] = self.env.now

        def mutate(obj: SharePod) -> None:
            obj.status.phase = phase
            obj.status.message = pod.status.message
            obj.status.start_time = pod.status.start_time
            obj.status.finish_time = pod.status.finish_time

        try:
            self.api.patch("SharePod", sp.name, mutate, sp.metadata.namespace)
        except NotFound:
            return
        if phase is PodPhase.RUNNING:
            obs.sharepod_running(key)
        elif phase is PodPhase.FAILED:
            obs.sharepod_failed(key, pod.status.message or "pod failed")

    # -- graceful revocation (policy layer) ---------------------------------
    def _open_drain(self, sp: SharePod, key: str) -> None:
        """Graceful eviction: open the drain window until its deadline.

        The eviction request lives in the SharePod's annotations (written
        by the preemptor), so this path is crash-safe: a freshly promoted
        DevMgr re-arms the drain from apiserver state, and a drain whose
        deadline passed while nobody was leading is forced immediately.
        """
        eviction = eviction_of(sp)
        obs.event(
            "Evicting",
            f"drain window open until t={eviction.deadline:g} "
            f"({eviction.reason})",
            involved_kind="SharePod",
            involved_name=sp.name,
            involved_namespace=sp.metadata.namespace,
            type="Warning",
            source=self.name,
        )
        self._drain_timers[key] = self.env.process(
            self._drain_timer(key, eviction.deadline - self.env.now),
            name=f"{self.name}:drain:{key}",
        )

    def _drain_timer(self, key: str, delay: float) -> Generator:
        yield self.env.timeout(delay)
        self._drain_timers.pop(key, None)
        self.queue.add(key)  # reconcile forces the teardown past the deadline

    def _evict(self, sp: SharePod, key: str) -> None:
        """Forced teardown at the drain deadline.

        Deleting the real pod drives the kubelet's container teardown,
        which stops the GPU runtime and releases its token-allocator
        registration — that is the token-reclamation step; no allocator
        back-channel is needed. Every step tolerates concurrent deletes
        (kubelet, reaper, a racing preemptor finishing first).
        """
        eviction = eviction_of(sp)
        self._drain_timers.pop(key, None)
        safe_delete(self.api, "Pod", sp.name, sp.metadata.namespace)
        self._pod_created.discard(key)
        self._detach(sp, key)  # idle vGPU falls under the pool policy as usual
        count = int(sp.metadata.annotations.get(ANN_REQUEUE_COUNT, "0") or 0) + 1
        resume_at = self.env.now + requeue_backoff(
            count, self.requeue_base, self.requeue_cap
        )

        finish_eviction(
            self.api, key, eviction.reason, resume_at, count, self._clear_placement
        )
        self.sharepods_evicted_total += 1
        obs.incr("repro_sharepods_evicted_total")
        obs.event(
            "Evicted",
            f"vGPU revoked ({eviction.reason}); requeued with backoff, "
            f"eligible again at t={resume_at:g}",
            involved_kind="SharePod",
            involved_name=sp.name,
            involved_namespace=sp.metadata.namespace,
            type="Warning",
            source=self.name,
        )
        obs.policy_decision(
            "evict",
            key,
            f"{eviction.reason}; requeue #{count} at t={resume_at:g}",
        )

    # -- detach & pool policy ---------------------------------------------------------------
    def _detach(self, sp: Optional[SharePod], key: str) -> None:
        """Give *key*'s share of its vGPU back (*sp* is unused: every step
        takes the SharePod and its key)."""
        gpuid = self._bound.pop(key, None)
        if gpuid is None:
            return
        vgpu = self.pool.get(gpuid)
        if vgpu is None:
            return
        vgpu.attached.discard(key)
        if not vgpu.attached:
            self._idle(vgpu)

    def _idle(self, vgpu: VGPU) -> None:
        """*vgpu* serves no SharePod: release it or keep it per the pool
        policy, and arm its idle TTL (one timer per vGPU)."""
        vgpu.phase = VGPUPhase.IDLE
        vgpu.idle_since = self.env.now
        if self.policy.release_on_idle(self.pool, vgpu):
            self._release(vgpu)
        elif self.policy.idle_ttl is not None:
            self._arm_ttl(vgpu, self.policy.idle_ttl)

    def _arm_ttl(self, vgpu: VGPU, delay: float) -> None:
        """(Re)arm *vgpu*'s idle-TTL timer to fire in *delay* seconds."""
        stale = self._ttl_timers.get(vgpu.gpuid)
        if stale is not None:
            stale.kill()
        self._ttl_timers[vgpu.gpuid] = self.env.process(
            self._ttl_watch(vgpu, vgpu.idle_since, delay),
            name=f"{self.name}:ttl:{vgpu.gpuid}",
        )

    def _ttl_watch(self, vgpu: VGPU, idle_since: float, delay: float) -> Generator:
        yield self.env.timeout(delay)
        # The release deletes the placeholder, so a TTL due inside an
        # outage waits for its end; the timer stays armed until then, so
        # stop() still kills it.
        up = yield from self.api.until_available()
        del self._ttl_timers[vgpu.gpuid]
        current = self.pool.get(vgpu.gpuid)
        if (
            up
            and current is vgpu
            and vgpu.idle
            and vgpu.idle_since == idle_since
            and self.policy.release_on_ttl(self.pool, vgpu)
        ):
            try:
                self._release(vgpu)
            except FencingConflict:
                pass  # deposed while paused: the new leader owns the vGPU

    def _release(self, vgpu: VGPU) -> None:
        """Return the physical GPU to Kubernetes (delete the placeholder)."""
        vgpu.phase = VGPUPhase.DELETING
        if vgpu.placeholder_pod is not None:
            self.api.try_delete("Pod", vgpu.placeholder_pod)
        self.pool.remove(vgpu.gpuid)
        self.vgpus_released_total += 1

    # -- failure handling -------------------------------------------------------
    @staticmethod
    def _infra_failure(message: str) -> bool:
        """Did the pod die because the infrastructure under it died (as
        opposed to the application itself)?"""
        return any(
            marker in message
            for marker in ("DeviceLost", "crashed", "node restarted")
        )

    @staticmethod
    def _clear_placement(obj: SharePod) -> None:
        """The patch that hands a SharePod back to KubeShare-Sched: no
        GPUID, node, pod or device, and Pending again."""
        obj.spec.gpu_id = None
        obj.spec.node_name = None
        obj.status.phase = PodPhase.PENDING
        obj.status.pod_name = None
        obj.status.gpu_uuid = None
        obj.status.start_time = None
        obj.status.finish_time = None
        obj.status.scheduled_time = None

    def _teardown_vgpu(self, vgpu: VGPU, reason: str) -> None:
        """A vGPU's physical device is gone: transition it to deletion and
        resolve every attached SharePod per its restart policy."""
        if self.pool.get(vgpu.gpuid) is not vgpu:
            return  # already torn down (events can repeat)
        if vgpu.gpuid not in self._tearing_down:
            self._tearing_down.add(vgpu.gpuid)
            self.vgpus_torn_down_total += 1
            obs.event(
                "VGPUTornDown",
                f"vGPU {vgpu.gpuid} lost its device: {reason}",
                involved_kind="GPU",
                involved_name=vgpu.uuid or vgpu.gpuid,
                type="Warning",
                source=self.name,
            )
        for key in sorted(vgpu.attached):
            namespace, name = key.split("/", 1)
            sp = self.api.get("SharePod", name, namespace)
            if sp is None or sp.status.phase in _TERMINAL:
                self._pod_created.discard(key)
                self._bound.pop(key, None)
                continue
            if sp.spec.restart_policy == "reschedule":
                self._recover_sharepod(sp, key, reason)
            else:
                self._fail_sharepod(sp, key, reason)
        vgpu.attached.clear()
        self._release(vgpu)
        self._tearing_down.discard(vgpu.gpuid)

    def _recover_sharepod(self, sp: SharePod, key: str, reason: str) -> None:
        """``restart_policy: reschedule`` — clear the placement and hand the
        SharePod back to KubeShare-Sched (Algorithm 1 re-runs on whatever
        capacity survives)."""
        self.api.try_delete("Pod", sp.name, sp.metadata.namespace)
        self._pod_created.discard(key)
        gpuid = self._bound.pop(key, None)
        if gpuid is not None:
            vgpu = self.pool.get(gpuid)
            if vgpu is not None:
                vgpu.attached.discard(key)

        def mutate(obj: SharePod) -> None:
            self._clear_placement(obj)
            obj.status.message = f"rescheduling: {reason}"

        try:
            self.api.patch("SharePod", sp.name, mutate, sp.metadata.namespace)
        except NotFound:
            return
        self.sharepods_rescheduled_total += 1
        obs.event(
            "Rescheduled",
            f"placement cleared, back to KubeShare-Sched: {reason}",
            involved_kind="SharePod",
            involved_name=sp.name,
            involved_namespace=sp.metadata.namespace,
            type="Warning",
            source=self.name,
        )

    def _fail_sharepod(self, sp: SharePod, key: str, reason: str) -> None:
        """``restart_policy: never`` — the SharePod dies with its device."""
        self.api.try_delete("Pod", sp.name, sp.metadata.namespace)
        self._pod_created.discard(key)
        self._bound.pop(key, None)

        def mutate(obj: SharePod) -> None:
            obj.status.phase = PodPhase.FAILED
            obj.status.message = reason
            obj.status.finish_time = self.env.now

        try:
            self.api.patch("SharePod", sp.name, mutate, sp.metadata.namespace)
        except NotFound:
            pass
        obs.sharepod_failed(key, reason)
        obs.event(
            "SharePodFailed",
            f"device lost and restart_policy is never: {reason}",
            involved_kind="SharePod",
            involved_name=sp.name,
            involved_namespace=sp.metadata.namespace,
            type="Warning",
            source=self.name,
        )

    # -- reservation prewarm -------------------------------------------------------------------
    def prewarm(self, count: int) -> List[str]:
        """Pre-create *count* idle vGPUs (reservation mode bootstrap).

        Returns the new GPUIDs. Each materializes inside the commit that
        turns its placeholder pod Running, where the Pod watch reads its
        device (see :meth:`_on_pod`); no process waits for it.
        """
        gpuids: List[str] = []
        for _ in range(count):
            vgpu = self._new_vgpu(new_gpuid())
            vgpu.phase = VGPUPhase.IDLE
            gpuids.append(vgpu.gpuid)
        return gpuids
