"""``wait_for``: the harness hears a change only from a watch.

A name settles inside the commit that puts it in a target phase or
deletes it, so a waiter resumes in that instant, never at a poll tick;
a name already settled (or absent) costs nothing; and no request goes
through the apiserver's gate, so a wait spans an outage.
"""

import pytest

from repro import Cluster, ClusterConfig, KubeShare
from repro.cluster.apiserver import APIServer
from repro.cluster.cluster import wait_for
from repro.cluster.objects import ObjectMeta, Pod, PodPhase

TERMINAL = (PodPhase.SUCCEEDED, PodPhase.FAILED)
PREFIX = "/registry/Pod/default/"


@pytest.fixture
def api(env):
    return APIServer(env)


def set_phase(api, name, phase):
    def mutate(pod):
        pod.status.phase = phase

    api.patch("Pod", name, mutate)


def at(env, t, action):
    def proc():
        yield env.timeout(t - env.now)
        action()

    env.process(proc())


def train(work):
    def wl(ctx):
        api = ctx.cuda()
        cu = api.cu_ctx_create()
        try:
            yield from api.cu_launch_kernel(cu, work)
        finally:
            api.cu_ctx_destroy(cu)

    return wl


def test_returns_in_the_instant_of_the_settling_commit(env, api):
    for name in ("a", "b"):
        api.create(Pod(metadata=ObjectMeta(name=name)))
    at(env, 1.25, lambda: set_phase(api, "a", PodPhase.RUNNING))  # not a target
    at(env, 1.5, lambda: set_phase(api, "a", PodPhase.SUCCEEDED))
    at(env, 2.125, lambda: set_phase(api, "b", PodPhase.FAILED))
    waiter = env.process(wait_for(api, "Pod", ["a", "b"], TERMINAL))
    env.run(until=waiter)
    assert env.now == 2.125
    assert waiter.value == {"a": api.get("Pod", "a"), "b": api.get("Pod", "b")}
    assert [waiter.value[n].status.phase for n in ("a", "b")] == list(TERMINAL)
    assert api.etcd.watchers(PREFIX) == []  # the watch closed with the wait


def test_absent_or_settled_names_cost_no_event(api):
    api.create(Pod(metadata=ObjectMeta(name="done")))
    set_phase(api, "done", PodPhase.SUCCEEDED)
    wait = wait_for(api, "Pod", ["done", "absent"], TERMINAL)
    with pytest.raises(StopIteration) as returned:
        next(wait)  # returns before its first yield: nothing to dispatch
    assert returned.value.value == {"done": api.get("Pod", "done"), "absent": None}
    assert api.etcd.watchers(PREFIX) == []


def test_a_deleted_object_settles_as_none(env, api):
    api.create(Pod(metadata=ObjectMeta(name="p")))
    at(env, 3.0, lambda: api.delete("Pod", "p"))
    waiter = env.process(wait_for(api, "Pod", ["p"], TERMINAL))
    env.run(until=waiter)
    assert env.now == 3.0
    assert waiter.value == {"p": None}
    assert api.etcd.watchers(PREFIX) == []


def test_other_names_and_namespaces_do_not_settle_it(env, api):
    api.create(Pod(metadata=ObjectMeta(name="p")))
    api.create(Pod(metadata=ObjectMeta(name="p", namespace="other")))
    api.create(Pod(metadata=ObjectMeta(name="q")))
    at(env, 1.0, lambda: api.delete("Pod", "p", namespace="other"))
    at(env, 2.0, lambda: set_phase(api, "q", PodPhase.SUCCEEDED))
    at(env, 4.0, lambda: set_phase(api, "p", PodPhase.SUCCEEDED))
    waiter = env.process(wait_for(api, "Pod", ["p"], TERMINAL))
    env.run(until=waiter)
    assert env.now == 4.0


def test_a_wait_spanning_an_outage_returns(env):
    """A 1 s apiserver outage mid-wait used to raise ServiceUnavailable out
    of ``env.run()`` when a poll tick landed in it."""
    cluster = Cluster(env, ClusterConfig(nodes=1, gpus_per_node=1)).start()
    ks = KubeShare(cluster, isolation="token").start()
    ks.submit(ks.make_sharepod(
        "j", gpu_request=0.5, gpu_limit=1.0, gpu_mem=0.5, workload=train(15.0)
    ))
    at(env, 5.0, lambda: cluster.api.set_outage(1.0))
    done = env.process(ks.wait_all_terminal(["j"]))
    env.run(until=done)
    settled = done.value["j"]
    assert settled.status.phase is PodPhase.SUCCEEDED
    assert env.now == settled.status.finish_time > 6.0
