"""Call-graph collection and resolution fixtures: module functions,
``self.method``, typed locals, constructor inference, and factory
bodies."""

import ast
import textwrap

from repro.analysis.callgraph import (
    FileFacts,
    ProjectIndex,
    collect_file_facts,
    module_qualname,
    shared_receiver,
)
from repro.analysis.rules import FileContext


def facts_for(source: str, path: str = "fixture.py") -> FileFacts:
    source = textwrap.dedent(source)
    return collect_file_facts(FileContext(path, source, ast.parse(source)))


def index_for(*sources) -> ProjectIndex:
    index = ProjectIndex()
    for i, source in enumerate(sources):
        index.add(facts_for(source, path=f"mod{i}.py"))
    return index


class TestModuleQualname:
    def test_src_layout(self):
        assert module_qualname("src/repro/core/devmgr.py") == "repro.core.devmgr"

    def test_package_init(self):
        assert module_qualname("src/repro/analysis/__init__.py") == "repro.analysis"

    def test_bare_fixture(self):
        assert module_qualname("fixture.py") == "fixture"


class TestSharedReceiver:
    def test_self_and_underscores_normalize(self):
        assert shared_receiver("self._etcd") == shared_receiver("etcd") == "etcd"

    def test_nested_receiver(self):
        assert shared_receiver("self.api.pods") == "api.pods"

    def test_non_shared_is_none(self):
        assert shared_receiver("self.queue") is None
        assert shared_receiver(None) is None


class TestFunctionCollection:
    def test_direct_taint_on_wall_clock_return(self):
        facts = facts_for("""
            import time
            def stamp():
                return time.time()
        """)
        (fn,) = facts.functions
        assert fn.qualname == "fixture.stamp"
        assert fn.direct_taint == "time.time"

    def test_env_now_is_not_tainted(self):
        facts = facts_for("""
            def stamp(env):
                return env.now
        """)
        assert facts.functions[0].direct_taint is None

    def test_return_callee_resolved_for_bare_name(self):
        facts = facts_for("""
            def helper():
                return 1
            def outer():
                return helper()
        """)
        outer = next(f for f in facts.functions if f.name == "outer")
        assert "fixture.helper" in outer.return_callees

    def test_self_method_callee_resolved(self):
        facts = facts_for("""
            class C:
                def helper(self):
                    return 1
                def outer(self):
                    return self.helper()
        """)
        outer = next(f for f in facts.functions if f.name == "outer")
        assert "fixture.C::helper" in outer.return_callees

    def test_generator_flag(self):
        facts = facts_for("""
            def gen():
                yield 1
        """)
        assert facts.functions[0].is_generator


class TestClassCollection:
    def test_init_stores_and_write_attrs(self):
        facts = facts_for("""
            class Controller:
                def __init__(self, api):
                    self.api = api
                def push(self, obj):
                    self.api.update(obj)
        """)
        (cls,) = facts.classes
        assert cls.stores.get("api") == ["api"]
        assert "api" in cls.write_attrs

    def test_store_through_local_alias(self):
        facts = facts_for("""
            class Controller:
                def __init__(self, api):
                    handle = api
                    self.client = handle
        """)
        (cls,) = facts.classes
        assert cls.stores.get("api") == ["client"]

    def test_method_shared_summaries_with_helper_indirection(self):
        facts = facts_for("""
            class Mgr:
                def _flush(self, obj):
                    self.api.update(obj)
                def run(self):
                    sp = self.api.get("Pod", "x")
                    self._flush(sp)
        """)
        (cls,) = facts.classes
        assert "api" in cls.method_shared_writes["_flush"]
        # one level of self.helper() indirection folds into the caller
        assert "api" in cls.method_shared_writes["run"]
        assert "api" in cls.method_shared_reads["run"]

    def test_patch_is_not_a_shared_write(self):
        # api.patch(kind, name, mutate) re-reads server-side state, so the
        # atomicity summaries must not count it as a stale-prone write.
        facts = facts_for("""
            class Mgr:
                def flush(self, name, mutate):
                    self.api.patch("Pod", name, mutate)
        """)
        (cls,) = facts.classes
        assert cls.method_shared_writes["flush"] == []


class TestFactoryCollection:
    def test_unfenced_handle_recorded(self):
        facts = facts_for("""
            def wire(env, apiserver):
                def factory(client):
                    return Controller(apiserver)
                return HAControllerGroup(env, "ctl", 3, factory)
        """)
        (factory,) = facts.factories
        (arg,) = factory.ctor_args
        assert arg.apiish and not arg.fenced
        assert arg.expr == "apiserver"

    def test_fenced_client_recorded_as_fenced(self):
        facts = facts_for("""
            def wire(env):
                def factory(client):
                    return Controller(client)
                return HAControllerGroup(env, "ctl", 3, factory)
        """)
        (factory,) = facts.factories
        assert all(arg.fenced for arg in factory.ctor_args)

    def test_alias_of_client_stays_fenced(self):
        facts = facts_for("""
            def wire(env):
                def factory(client):
                    handle = client
                    return Controller(handle)
                return HAControllerGroup(env, "ctl", 3, factory)
        """)
        (factory,) = facts.factories
        assert all(arg.fenced for arg in factory.ctor_args)

    def test_nested_ctor_records_inner_class(self):
        facts = facts_for("""
            def wire(env, apiserver):
                def factory(client):
                    return Controller(Helper(apiserver))
                return HAControllerGroup(env, "ctl", 3, factory)
        """)
        (factory,) = facts.factories
        # both the outer slot (laundered) and the inner Helper(apiserver)
        # argument are recorded; the outer one carries inner_class_ref.
        (outer,) = [a for a in factory.ctor_args if a.inner_class_ref is not None]
        assert "Helper" in outer.inner_class_ref
        assert outer.class_ref.endswith("Controller")


class TestProjectIndex:
    def test_cross_module_function_resolution(self):
        index = index_for(
            """
            def helper():
                return 1
            """,
            """
            from mod0 import helper
            def outer():
                return helper()
            """,
        )
        outer = index.resolve_function("mod1.outer")
        assert outer is not None
        ref = outer.return_callees[0]
        resolved = index.resolve_function(ref)
        assert resolved is not None and resolved.qualname == "mod0.helper"

    def test_method_resolution_through_base_class(self):
        index = index_for(
            """
            class Base:
                def push(self):
                    return 1
            """,
            """
            from mod0 import Base
            class Child(Base):
                pass
            """,
        )
        child = index.resolve_class("mod1.Child")
        assert child is not None
        assert index.resolve_function("mod1.Child::push") is not None

    def test_unresolvable_reference_is_none(self):
        index = index_for("def f():\n    return 1\n")
        assert index.resolve_function("nowhere.else") is None
        assert index.resolve_class("nowhere.Else") is None
