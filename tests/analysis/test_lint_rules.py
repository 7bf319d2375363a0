"""Fixture tests for every RPR lint rule: one snippet that must trip the
rule (positive) and one that must not (negative), driven through
:func:`repro.analysis.lint.lint_source` exactly as the CLI would."""

import textwrap

from repro.analysis.lint import lint_source, run_analysis
from repro.analysis.rules import ALL_RULES


def findings(source: str):
    return lint_source(textwrap.dedent(source), path="fixture.py")


def rule_ids(source: str):
    return sorted({f.rule_id for f in findings(source)})


def tree_findings(tmp_path, files):
    """Unsuppressed findings per file name, from ``run_analysis`` (the
    CLI's path) over a temp tree holding *files* (name -> source)."""
    for name, source in files.items():
        (tmp_path / name).write_text(textwrap.dedent(source), encoding="utf-8")
    result = run_analysis([str(tmp_path)])
    return {
        name: [f for f in result.findings if f.path.endswith(name)]
        for name in files
    }


class TestRPR001WallClock:
    def test_time_time_flagged(self):
        assert rule_ids("""
            import time
            def tick(env):
                return time.time()
        """) == ["RPR001"]

    def test_datetime_now_flagged(self):
        assert "RPR001" in rule_ids("""
            from datetime import datetime
            stamp = datetime.now()
        """)

    def test_perf_counter_flagged(self):
        assert "RPR001" in rule_ids("""
            from time import perf_counter
            t0 = perf_counter()
        """)

    def test_virtual_time_clean(self):
        assert rule_ids("""
            def tick(env):
                return env.now
        """) == []

    def test_noqa_suppresses(self):
        assert rule_ids("""
            import time
            t0 = time.perf_counter()  # noqa: RPR001 - measuring host wall time
        """) == []

    def test_foreign_noqa_does_not_suppress(self):
        assert rule_ids("""
            import time
            t0 = time.perf_counter()  # noqa: BLE001
        """) == ["RPR001"]


class TestRPR002GlobalRng:
    def test_module_random_flagged(self):
        assert rule_ids("""
            import random
            def jitter():
                return random.random()
        """) == ["RPR002"]

    def test_unseeded_shuffle_flagged(self):
        assert "RPR002" in rule_ids("""
            from random import shuffle
            def mix(xs):
                shuffle(xs)
        """)

    def test_seeded_instance_clean(self):
        assert rule_ids("""
            import random
            def jitter(seed):
                rng = random.Random(seed)
                return rng.random()
        """) == []

    def test_seeded_numpy_generator_clean(self):
        assert rule_ids("""
            import numpy as np
            def draw(seed):
                rng = np.random.default_rng(seed)
                return rng.normal()
        """) == []

    def test_unseeded_numpy_flagged(self):
        assert "RPR002" in rule_ids("""
            import numpy as np
            def draw():
                return np.random.normal()
        """)


class TestRPR003ModuleState:
    def test_bare_counter_flagged(self):
        assert rule_ids("""
            import itertools
            _counter = itertools.count(1)
        """) == ["RPR003"]

    def test_mutable_dict_flagged(self):
        assert "RPR003" in rule_ids("""
            _cache = {}
        """)

    def test_registered_reset_clean(self):
        assert rule_ids("""
            import itertools
            from repro.analysis.resets import register_reset
            _counter = itertools.count(1)

            @register_reset("fixture.counter")
            def _reset() -> None:
                global _counter
                _counter = itertools.count(1)
        """) == []

    def test_clear_style_reset_clean(self):
        assert rule_ids("""
            from repro.analysis.resets import register_reset
            _cache = {}
            register_reset("fixture.cache", _cache.clear)
        """) == []

    def test_constants_exempt(self):
        assert rule_ids("""
            ALL_NAMES = ["a", "b"]
            __all__ = ["ALL_NAMES"]
        """) == []


class TestRPR004LostUpdate:
    def test_blind_etcd_put_flagged(self):
        assert rule_ids("""
            def bump(etcd, key):
                kv = etcd.get(key)
                etcd.put(key, kv.value + 1)
        """) == ["RPR004"]

    def test_get_then_update_flagged(self):
        assert rule_ids("""
            def promote(api, name):
                obj = api.get("Pod", name)
                obj.status.phase = "Running"
                api.update(obj)
        """) == ["RPR004"]

    def test_get_clone_then_update_flagged(self):
        assert rule_ids("""
            def promote(api, name):
                obj = api.get("Pod", name).clone()
                obj.status.phase = "Running"
                api.update(obj)
        """) == ["RPR004"]

    def test_get_in_branch_then_update_flagged(self):
        assert rule_ids("""
            def promote(api, name, fresh):
                if fresh:
                    obj = api.get("Pod", name)
                api.update(obj)
        """) == ["RPR004"]

    def test_get_then_update_in_nested_function_flagged_once(self):
        out = findings("""
            def make_promoter(api):
                def promote(name):
                    obj = api.get("Pod", name)
                    api.update(obj)
                return promote
        """)
        assert [(f.rule_id, f.line) for f in out] == [("RPR004", 5)]

    def test_get_does_not_pair_with_nested_functions_update(self):
        assert rule_ids("""
            def promote(api, name):
                obj = api.get("Pod", name)
                def write(fresh):
                    api.update(fresh)
                return obj, write
        """) == []

    def test_nested_functions_conflict_handler_does_not_cover_enclosing(self):
        assert rule_ids("""
            def promote(api, name):
                obj = api.get("Pod", name)
                api.update(obj)
                def retry(fresh):
                    try:
                        api.patch("Pod", name, fresh)
                    except Conflict:
                        pass
                return retry
        """) == ["RPR004"]

    def test_conflict_handler_clean(self):
        assert rule_ids("""
            def promote(api, name):
                while True:
                    obj = api.get("Pod", name)
                    obj.status.phase = "Running"
                    try:
                        api.update(obj)
                        return
                    except Conflict:
                        continue
        """) == []

    def test_cas_put_if_clean(self):
        assert rule_ids("""
            def bump(etcd, key):
                kv = etcd.get(key)
                etcd.put_if(key, kv.value + 1, kv.mod_revision)
        """) == []

    def test_patch_clean(self):
        assert rule_ids("""
            def promote(api, name):
                api.patch("Pod", name, lambda p: p)
        """) == []

    def test_plain_dict_get_update_clean(self):
        # dict.get / dict.update must not be mistaken for apiserver calls.
        assert rule_ids("""
            def merge(table, extra):
                current = table.get("k")
                table.update(extra)
        """) == []


class TestRPR005UnfencedFactory:
    def test_factory_ignoring_fenced_api_flagged(self):
        assert rule_ids("""
            from repro.cluster.ha import HAControllerGroup

            class Ctl:
                def __init__(self, cluster):
                    self.api = cluster.api

            def factory(api, cluster, name):
                return Ctl(cluster)

            def build(env, api, cluster):
                return HAControllerGroup(env, api, "devmgr", factory)
        """) == ["RPR005"]

    def test_factory_using_fenced_api_clean(self):
        assert rule_ids("""
            from repro.cluster.ha import HAControllerGroup

            class Ctl:
                def __init__(self, api):
                    self.api = api

            def factory(api, cluster, name):
                return Ctl(api)

            def build(env, api, cluster):
                return HAControllerGroup(env, api, "devmgr", factory)
        """) == []


class TestRPR006SetIteration:
    def test_for_over_set_literal_flagged(self):
        assert rule_ids("""
            def pick():
                for node in {"a", "b"}:
                    return node
        """) == ["RPR006"]

    def test_for_over_set_local_flagged(self):
        assert "RPR006" in rule_ids("""
            def drain(keys):
                pending = set(keys)
                for key in pending:
                    yield key
        """)

    def test_list_of_set_flagged(self):
        assert "RPR006" in rule_ids("""
            def snapshot(s):
                live = set(s)
                return list(live)
        """)

    def test_sorted_clean(self):
        assert rule_ids("""
            def drain(keys):
                pending = set(keys)
                for key in sorted(pending):
                    yield key
        """) == []

    def test_set_attr_cross_file_flagged(self, tmp_path):
        found = tree_findings(
            tmp_path,
            {
                "decl.py": """
                    class Queue:
                        def __init__(self):
                            self._live = set()
                """,
                "use.py": """
                    def drain(q):
                        for key in q._live:
                            yield key
                """,
            },
        )
        ids = {f.rule_id for f in found["use.py"]}
        assert "RPR006" in ids

    def test_local_list_overrides_foreign_set_attr(self, tmp_path):
        # Another file's `self._pending = set()` must not taint a class
        # whose own `_pending` is a list.
        found = tree_findings(
            tmp_path,
            {
                "decl.py": """
                    class Queue:
                        def __init__(self):
                            self._pending = set()
                """,
                "use.py": """
                    from typing import List

                    class Retrier:
                        def __init__(self):
                            self._pending: List[str] = []

                        def drain(self):
                            for entry in self._pending:
                                yield entry
                """,
            },
        )
        assert found["use.py"] == []

    def test_order_insensitive_reduction_clean(self):
        assert rule_ids("""
            def check(ids):
                s = set(ids)
                return all(i.startswith("vgpu-") for i in s)
        """) == []

    def test_finding_reported_exactly_once(self):
        # A module-level def is both part of the Module scope's body and a
        # scope of its own; the walker must visit its body exactly once.
        result = findings("""
            def drain(keys):
                pending = set(keys)
                for key in pending:
                    yield key
        """)
        assert [f.rule_id for f in result] == ["RPR006"]

    def test_nested_function_reported_exactly_once(self):
        result = findings("""
            def outer(keys):
                def inner():
                    pending = set(keys)
                    for key in pending:
                        yield key
                return inner
        """)
        assert [f.rule_id for f in result] == ["RPR006"]


class TestRPR007BarePrint:
    SNIPPET = textwrap.dedent("""
        def reconcile(key):
            print("reconciling", key)
    """)

    def ids_at(self, path):
        return sorted({f.rule_id for f in lint_source(self.SNIPPET, path=path)})

    def test_library_print_flagged(self):
        assert self.ids_at("src/repro/core/devmgr.py") == ["RPR007"]

    def test_experiments_exempt(self):
        assert self.ids_at("src/repro/experiments/fig9.py") == []

    def test_cli_entry_points_exempt(self):
        assert self.ids_at("src/repro/obs/cli.py") == []
        assert self.ids_at("src/repro/obs/__main__.py") == []

    def test_tests_and_benchmarks_exempt(self):
        assert self.ids_at("tests/core/test_devmgr.py") == []
        assert self.ids_at("benchmarks/test_failover.py") == []

    def test_shadowed_print_not_flagged(self):
        source = textwrap.dedent("""
            def render(printer):
                printer.print("fine: method call, not the builtin")
        """)
        assert lint_source(source, path="src/repro/core/devmgr.py") == []

    def test_noqa_suppresses(self):
        source = textwrap.dedent("""
            def debug(key):
                print("dbg", key)  # noqa: RPR007 - temporary debug aid
        """)
        assert lint_source(source, path="src/repro/core/devmgr.py") == []


class TestRPR008HotPathCopies:
    def test_sorted_in_marked_function_flagged(self):
        assert rule_ids("""
            def step(self):  # hot-path
                return sorted(self.queue)
        """) == ["RPR008"]

    def test_list_copy_in_marked_function_flagged(self):
        assert rule_ids("""
            # hot-path
            def reconcile(self, key):
                pods = list(self.cache)
                return pods
        """) == ["RPR008"]

    def test_api_relist_in_marked_function_flagged(self):
        out = findings("""
            def reconcile(self, key):  # hot-path
                return self.api.list("SharePod")
        """)
        assert [f.rule_id for f in out] == ["RPR008"]
        assert "self.api.list()" in out[0].message
        assert "DeviceViewIndex" in out[0].fixit

    def test_unmarked_function_clean(self):
        assert rule_ids("""
            def rebuild(self):
                return sorted(self.api.list("SharePod"), key=lambda s: s.name)
        """) == []

    def test_marked_function_without_copies_clean(self):
        assert rule_ids("""
            def usage(self, now, window):  # hot-path
                return sum(end - start for start, end in self.intervals)
        """) == []

    def test_comprehension_not_flagged(self):
        # A list *comprehension* builds the result it returns; only the
        # wholesale copy builtins and relists are the bug class.
        assert rule_ids("""
            def step(self):  # hot-path
                return [e for e in self.live if not e.cancelled]
        """) == []

    def test_noqa_suppresses(self):
        assert rule_ids("""
            def reconcile(self, key):  # hot-path
                return self.api.list("SharePod")  # noqa: RPR008 - reference mode
        """) == []

    def test_marker_above_def_only_counts_comment_lines(self):
        # The line above the def is code mentioning hot-path in a string,
        # not a marker comment: the function is not hot.
        assert rule_ids("""
            MODE = "# hot-path"
            def rebuild(self):
                return list(self.cache)
        """) == []


class TestRPR008SimKernel:
    """Inside ``src/repro/sim/**`` every kernel function is implicitly
    hot — no ``# hot-path`` marker required — and the fix-it points at
    the calendar queue's bucket index instead of the device-view index."""

    SIM = "src/repro/sim/fake.py"

    def at(self, source, path):
        return lint_source(textwrap.dedent(source), path=path)

    def test_unmarked_kernel_function_flagged(self):
        out = self.at("""
            def pop(self):
                live = sorted(self.pending)
                return live[0]
        """, self.SIM)
        assert [f.rule_id for f in out] == ["RPR008"]

    def test_fixit_points_at_bucket_index(self):
        out = self.at("""
            def peek(self):
                return list(self.buckets)[0]
        """, self.SIM)
        assert "calqueue.CalendarQueue" in out[0].fixit
        assert "bucket" in out[0].fixit

    def test_same_source_outside_sim_clean(self):
        # Without the marker the identical source is clean elsewhere:
        # the implicit classification is scoped to the kernel package.
        src = """
            def pop(self):
                return sorted(self.pending)[0]
        """
        assert self.at(src, "src/repro/core/devmgr.py") == []
        assert self.at(src, self.SIM) != []

    def test_dunder_methods_exempt(self):
        assert self.at("""
            class Condition:
                def __init__(self, events):
                    self._events = list(events)
                def __repr__(self):
                    return str(sorted(self._events))
        """, self.SIM) == []

    def test_property_accessors_exempt(self):
        assert self.at("""
            class Resource:
                @property
                def queue(self):
                    return list(self._queue)
        """, self.SIM) == []

    def test_marked_function_outside_sim_still_flagged(self):
        # The marker path is unchanged, with the generic fix-it.
        out = self.at("""
            def reconcile(self):  # hot-path
                return list(self.cache)
        """, "src/repro/core/devmgr.py")
        assert [f.rule_id for f in out] == ["RPR008"]
        assert "DeviceViewIndex" in out[0].fixit

    def test_nested_function_reported_once(self):
        # Both the outer and the nested function are kernel-hot; the
        # copy in the closure must yield exactly one finding.
        out = self.at("""
            def schedule(self):
                def drain():
                    return sorted(self.pending)
                return drain()
        """, self.SIM)
        assert [f.rule_id for f in out] == ["RPR008"]

    def test_noqa_suppresses(self):
        assert self.at("""
            def pop(self):
                return sorted(self.pending)[0]  # noqa: RPR008 - reference-mode drain
        """, self.SIM) == []


class TestRPR009UnguardedDelete:
    LIB = "src/repro/core/devmgr.py"

    def ids_at(self, source, path):
        return sorted(
            {f.rule_id for f in lint_source(textwrap.dedent(source), path=path)}
        )

    def test_raw_api_delete_flagged(self):
        out = lint_source(
            textwrap.dedent("""
                def teardown(self, key):
                    self.api.delete("Pod", key)
            """),
            path=self.LIB,
        )
        assert [f.rule_id for f in out] == ["RPR009"]
        assert "self.api.delete" in out[0].message
        assert "revocation" in out[0].fixit

    def test_fenced_handle_delete_flagged(self):
        assert self.ids_at("""
            def teardown(_api, name):
                _api.delete("SharePod", name)
        """, self.LIB) == ["RPR009"]

    def test_notfound_handler_in_scope_clean(self):
        assert self.ids_at("""
            def teardown(self, key):
                try:
                    self.api.delete("Pod", key)
                except NotFound:
                    pass
        """, self.LIB) == []

    def test_conflict_tuple_handler_clean(self):
        assert self.ids_at("""
            def teardown(self, key):
                try:
                    self.api.delete("Pod", key)
                except (NotFound, Conflict):
                    return False
        """, self.LIB) == []

    def test_try_delete_exempt(self):
        assert self.ids_at("""
            def teardown(self, key):
                return self.api.try_delete("Pod", key)
        """, self.LIB) == []

    def test_non_api_receiver_clean(self):
        assert self.ids_at("""
            def drop(self, key):
                self.cache.delete(key)
        """, self.LIB) == []

    def test_tests_and_benchmarks_exempt(self):
        source = """
            def test_delete(api):
                api.delete("Pod", "p0")
        """
        assert self.ids_at(source, "tests/cluster/test_apiserver.py") == []
        assert self.ids_at(source, "benchmarks/test_contention.py") == []

    def test_noqa_suppresses(self):
        assert self.ids_at("""
            def forward(self, kind, name):
                return self._api.delete(kind, name)  # noqa: RPR009 - proxy
        """, self.LIB) == []


class TestRPR010FederationWrites:
    FED = "src/repro/federation/placer.py"

    def ids_at(self, source, path):
        return sorted(
            {f.rule_id for f in lint_source(textwrap.dedent(source), path=path)}
        )

    def test_direct_member_submit_flagged(self):
        out = lint_source(
            textwrap.dedent("""
                def place(self, member, sharepod):
                    member.kubeshare.submit(sharepod)
            """),
            path=self.FED,
        )
        assert [f.rule_id for f in out] == ["RPR010"]
        assert "member.kubeshare.submit" in out[0].message
        assert "fenced_submit" in out[0].fixit

    def test_direct_api_create_flagged(self):
        assert self.ids_at("""
            def place(self, member, sharepod):
                member.api.create(sharepod)
        """, self.FED) == ["RPR010"]

    def test_direct_api_delete_flagged(self):
        # delete also trips RPR009 (unguarded) — both complaints are real.
        assert "RPR010" in self.ids_at("""
            def revoke(self, member, name):
                member.api.delete("SharePod", name)
        """, self.FED)

    def test_reads_clean(self):
        assert self.ids_at("""
            def probe(self, member):
                member.api.list("Node")
                return member.kubeshare.get("job0")
        """, self.FED) == []

    def test_fenced_and_retried_wrappers_clean(self):
        assert self.ids_at("""
            def place(self, member, record, build):
                yield from self.rpc.fenced_submit(member, record, build)
                yield from self.rpc.call(member.link, member.kubeshare.list)
        """, self.FED) == []

    def test_registry_mutation_clean(self):
        assert self.ids_at("""
            def fold(self, name, generation):
                return self.registry.complete(name, generation, "Completed")
        """, self.FED) == []

    def test_sanctioned_wrapper_modules_exempt(self):
        source = """
            def fenced_submit(self, member, sharepod):
                member.kubeshare.submit(sharepod)
        """
        assert self.ids_at(source, "src/repro/federation/rpc.py") == []
        assert self.ids_at(source, "src/repro/federation/records.py") == []

    def test_non_federation_code_exempt(self):
        assert self.ids_at("""
            def submit(self, sharepod):
                return self.api.create(sharepod)
        """, "src/repro/core/framework.py") == []

    def test_noqa_suppresses(self):
        assert self.ids_at("""
            def heartbeat(self, api, lease):
                api.create(lease)  # noqa: RPR010 - federation-local lease
        """, self.FED) == []


class TestHarness:
    def test_every_rule_has_metadata(self):
        for rule in ALL_RULES:
            assert rule.id.startswith("RPR")
            assert rule.title and rule.rationale and rule.fixit

    def test_file_pragma_disables_named_rule(self):
        assert rule_ids("""
            # repro-lint: disable=RPR004 - raw CAS semantics are the subject
            def bump(etcd, key):
                etcd.put(key, 1)
        """) == []

    def test_file_pragma_does_not_disable_other_rules(self):
        assert rule_ids("""
            # repro-lint: disable=RPR004 - narrow suppression
            import time
            t0 = time.time()
        """) == ["RPR001"]

    def test_findings_render_with_location_and_fixit(self):
        out = findings("""
            import time
            t0 = time.time()
        """)
        assert len(out) == 1
        rendered = out[0].render()
        assert "fixture.py" in rendered and "RPR001" in rendered and "fix:" in rendered
