"""Positive/negative fixtures for the whole-program dataflow rules:
RPR011 (interprocedural taint), RPR012 (fence escape), RPR013
(yield-point atomicity), driven through :func:`lint_source` and, for the
cross-file cases, :func:`run_analysis` over a temp tree."""

import textwrap

from repro.analysis.flow import library_scope, taint_sink_scope
from repro.analysis.lint import lint_source, run_analysis


def findings(source: str, path: str = "fixture.py"):
    return lint_source(textwrap.dedent(source), path=path)


def rule_ids(source: str, path: str = "fixture.py"):
    return sorted({f.rule_id for f in findings(source, path)})


class TestScopes:
    def test_src_repro_in_scope(self):
        assert library_scope("src/repro/core/devmgr.py")
        assert taint_sink_scope("src/repro/core/devmgr.py")
        assert taint_sink_scope("src/repro/perf/scenarios.py")

    def test_tests_and_benchmarks_exempt(self):
        assert not library_scope("tests/analysis/test_lint_rules.py")
        assert not library_scope("benchmarks/capstone.py")

    def test_experiments_and_cli_are_not_taint_sinks(self):
        assert not taint_sink_scope("src/repro/experiments/fig10.py")
        assert not taint_sink_scope("src/repro/cli.py")
        assert library_scope("src/repro/cli.py")

    def test_bare_fixture_paths_in_scope(self):
        assert library_scope("fixture.py")
        assert taint_sink_scope("fixture.py")


class TestRPR011Taint:
    def test_tainted_helper_call_flagged(self):
        ids = rule_ids("""
            import time

            def stamp():
                return time.time()

            def sim_step(env):
                t = stamp()
                return t
        """)
        # RPR001 fires at the source, RPR011 at the escaping call site.
        assert "RPR011" in ids and "RPR001" in ids

    def test_transitive_taint_flagged(self):
        fs = findings("""
            import time

            def inner():
                return time.time()

            def outer():
                return inner()

            def sim_step(env):
                return outer()
        """)
        taint = [f for f in fs if f.rule_id == "RPR011"]
        assert any("outer()" in f.message for f in taint)
        assert any("time.time" in f.message for f in taint)

    def test_unseeded_rng_helper_flagged(self):
        ids = rule_ids("""
            import random

            def jitter():
                return random.random()

            def sim_step(env):
                return jitter()
        """)
        assert "RPR011" in ids

    def test_virtual_time_helper_clean(self):
        ids = rule_ids("""
            def stamp(env):
                return env.now

            def sim_step(env):
                return stamp(env)
        """)
        assert "RPR011" not in ids

    def test_seeded_rng_helper_clean(self):
        ids = rule_ids("""
            import random

            def jitter(rng):
                return rng.random()

            def make_rng(seed):
                return random.Random(seed)

            def sim_step(env, rng):
                return jitter(rng)
        """)
        assert "RPR011" not in ids

    def test_tainted_argument_into_sim_scope_flagged(self, tmp_path):
        (tmp_path / "simcode.py").write_text(
            textwrap.dedent("""
                def sim_tick(env, when):
                    return when
            """),
            encoding="utf-8",
        )
        exp = tmp_path / "experiments"
        exp.mkdir()
        (exp / "driver.py").write_text(
            textwrap.dedent("""
                import time
                from simcode import sim_tick

                def main(env):
                    sim_tick(env, time.time())
            """),
            encoding="utf-8",
        )
        result = run_analysis([str(tmp_path)])
        taint = [f for f in result.findings if f.rule_id == "RPR011"]
        assert len(taint) == 1
        assert taint[0].path.endswith("driver.py")
        assert "tainted argument" in taint[0].message

    def test_experiment_driver_may_measure_host_time(self, tmp_path):
        exp = tmp_path / "experiments"
        exp.mkdir()
        (exp / "driver.py").write_text(
            textwrap.dedent("""
                import time

                def elapsed(t0):
                    return time.time() - t0

                def main():
                    return elapsed(0.0)
            """),
            encoding="utf-8",
        )
        result = run_analysis([str(tmp_path)])
        assert not [f for f in result.findings if f.rule_id == "RPR011"]


class TestRPR012FenceEscape:
    def test_unfenced_handle_into_writer_flagged(self):
        fs = findings("""
            class Controller:
                def __init__(self, api):
                    self.api = api
                def push(self, obj):
                    self.api.update(obj)

            def wire(env, apiserver):
                def factory(client):
                    return Controller(apiserver)
                return HAControllerGroup(env, "ctl", 3, factory)
        """)
        fence = [f for f in fs if f.rule_id == "RPR012"]
        assert len(fence) == 1
        assert "apiserver" in fence[0].message
        assert "Controller" in fence[0].message

    def test_fenced_client_clean(self):
        ids = rule_ids("""
            class Controller:
                def __init__(self, api):
                    self.api = api
                def push(self, obj):
                    self.api.update(obj)

            def wire(env):
                def factory(client):
                    return Controller(client)
                return HAControllerGroup(env, "ctl", 3, factory)
        """)
        assert "RPR012" not in ids

    def test_aliased_client_clean(self):
        ids = rule_ids("""
            class Controller:
                def __init__(self, api):
                    self.api = api
                def push(self, obj):
                    self.api.update(obj)

            def wire(env):
                def factory(client):
                    handle = client
                    return Controller(handle)
                return HAControllerGroup(env, "ctl", 3, factory)
        """)
        assert "RPR012" not in ids

    def test_read_only_consumer_clean(self):
        # the handle escapes the fence but nothing writes through it
        ids = rule_ids("""
            class Viewer:
                def __init__(self, api):
                    self.api = api
                def peek(self, name):
                    return self.api.get("Pod", name)

            def wire(env, apiserver):
                def factory(client):
                    return Viewer(apiserver)
                return HAControllerGroup(env, "ctl", 3, factory)
        """)
        assert "RPR012" not in ids

    def test_laundered_through_helper_ctor_flagged(self):
        fs = findings("""
            class Helper:
                def __init__(self, api):
                    self.api = api

            class Controller:
                def __init__(self, helper):
                    self.helper = helper
                def push(self, obj):
                    self.helper.api.update(obj)

            def wire(env, apiserver):
                def factory(client):
                    return Controller(Helper(apiserver))
                return HAControllerGroup(env, "ctl", 3, factory)
        """)
        fence = [f for f in fs if f.rule_id == "RPR012"]
        assert any("laundered" in f.message for f in fence)

    def test_forwarded_handle_flagged(self):
        # wrapper class forwards the raw handle into a writer it builds
        fs = findings("""
            class Writer:
                def __init__(self, api):
                    self.api = api
                def push(self, obj):
                    self.api.update(obj)

            class Wrapper:
                def __init__(self, api):
                    self.writer = Writer(api)

            def wire(env, apiserver):
                def factory(client):
                    return Wrapper(apiserver)
                return HAControllerGroup(env, "ctl", 3, factory)
        """)
        assert any(f.rule_id == "RPR012" for f in fs)


class TestRPR013YieldAtomicity:
    def test_read_yield_write_flagged(self):
        fs = findings("""
            def proc(env, api):
                sp = api.get("Pod", "x")
                yield env.timeout(1)
                api.update(sp)
        """)
        atom = [f for f in fs if f.rule_id == "RPR013"]
        assert len(atom) == 1
        assert "`api`" in atom[0].message

    def test_write_before_yield_clean(self):
        ids = rule_ids("""
            def proc(env, api):
                sp = api.get("Pod", "x")
                api.update(sp)
                yield env.timeout(1)
        """)
        assert "RPR013" not in ids

    def test_reread_after_yield_clean(self):
        ids = rule_ids("""
            def proc(env, api):
                sp = api.get("Pod", "x")
                yield env.timeout(1)
                sp = api.get("Pod", "x")
                api.update(sp)
        """)
        assert "RPR013" not in ids

    def test_conflict_retry_exempt(self):
        ids = rule_ids("""
            def proc(env, api):
                sp = api.get("Pod", "x")
                yield env.timeout(1)
                try:
                    api.update(sp)
                except Conflict:
                    pass
        """)
        assert "RPR013" not in ids

    def test_cas_write_exempt(self):
        ids = rule_ids("""
            def proc(env, etcd):
                rev, val = etcd.get("k")
                yield env.timeout(1)
                etcd.put_if("k", val, rev)
        """)
        assert "RPR013" not in ids

    def test_patch_mutator_exempt(self):
        ids = rule_ids("""
            def proc(env, api):
                sp = api.get("Pod", "x")
                yield env.timeout(1)
                api.patch("Pod", "x", lambda p: p)
        """)
        assert "RPR013" not in ids

    def test_blind_write_clean(self):
        # create with no prior read is not a read-modify-write
        ids = rule_ids("""
            def proc(env, api):
                yield env.timeout(1)
                api.create(object())
        """)
        assert "RPR013" not in ids

    def test_branch_exclusive_read_write_clean(self):
        # the read and the write are on mutually exclusive paths
        ids = rule_ids("""
            def proc(env, api, fast):
                if fast:
                    sp = api.get("Pod", "x")
                    return
                yield env.timeout(1)
                api.update(None)
        """)
        assert "RPR013" not in ids

    def test_guard_clause_does_not_mask_finding(self):
        ids = rule_ids("""
            def proc(env, api):
                sp = api.get("Pod", "x")
                if sp is None:
                    return
                yield env.timeout(1)
                api.update(sp)
        """)
        assert "RPR013" in ids

    def test_loop_carried_staleness_flagged(self):
        # the read happens at the bottom of the body, the write at the top
        # of the *next* iteration — only a second body pass can see it.
        ids = rule_ids("""
            def pump(env, api):
                cached = api.get("Pod", "x")
                while True:
                    yield env.timeout(1)
                    api.update(cached)
                    cached = api.get("Pod", "x")
        """)
        assert "RPR013" in ids

    def test_fresh_read_each_iteration_clean(self):
        ids = rule_ids("""
            def pump(env, api):
                while True:
                    sp = api.get("Pod", "x")
                    api.update(sp)
                    yield env.timeout(1)
        """)
        assert "RPR013" not in ids

    def test_method_summary_write_flagged(self):
        fs = findings("""
            class Mgr:
                def _flush(self, obj):
                    self.api.update(obj)
                def run(self, env):
                    sp = self.api.get("Pod", "x")
                    yield env.timeout(1)
                    self._flush(sp)
        """)
        atom = [f for f in fs if f.rule_id == "RPR013"]
        assert len(atom) == 1
        assert "run" in atom[0].message

    def test_yield_from_delegation_not_double_reported(self):
        # the delegated generator is analyzed on its own; the yield from
        # call site must not replay its summary.
        fs = findings("""
            class Mgr:
                def _drain(self, env):
                    sp = self.api.get("Pod", "x")
                    yield env.timeout(1)
                    self.api.update(sp)
                def run(self, env):
                    yield from self._drain(env)
        """)
        atom = [f for f in fs if f.rule_id == "RPR013"]
        assert len(atom) == 1
        assert "_drain" in atom[0].message

    def test_non_generator_not_checked(self):
        ids = rule_ids("""
            def proc(api):
                sp = api.get("Pod", "x")
                api.update(sp)
        """)
        assert "RPR013" not in ids

    def test_tests_scope_exempt(self):
        ids = rule_ids(
            """
            def proc(env, api):
                sp = api.get("Pod", "x")
                yield env.timeout(1)
                api.update(sp)
            """,
            path="tests/cluster/test_thing.py",
        )
        assert "RPR013" not in ids
