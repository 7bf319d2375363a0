"""Project-wide symbol table and call graph for the whole-program passes.

The file-local RPR rules (:mod:`repro.analysis.rules`) see one AST at a
time; the interprocedural passes (:mod:`repro.analysis.flow`) need to
know *what a call resolves to* across module boundaries. This module
builds that view in two stages:

1. **Collection** — :func:`collect_file_facts` walks one parsed file and
   distills everything the global passes need into a :class:`FileFacts`
   record: function summaries (params, taint-relevant return shapes,
   every call site), class summaries (init params, ``self.x = param``
   stores, constructor forwarding, write-through attributes), and
   ``HAControllerGroup`` factory bodies.
2. **Resolution** — :class:`ProjectIndex` ingests every file's facts and
   answers qualified-name queries: module functions through the import
   table, ``self.method`` through the class and its (project-local)
   bases, ``obj.method`` through annotation- and constructor-based type
   inference, and factory indirection recorded at collection time.

Callee references are encoded as strings:

``"pkg.mod.func"``
    an import-resolved dotted name (module function or class
    constructor),
``"pkg.mod.Cls::method"``
    a method on a statically known class (``self.method`` inside the
    class, or a receiver whose type was inferred).

Soundness limits (documented in DESIGN.md §13): resolution is
best-effort — dynamic dispatch through containers, ``getattr``, and
monkey-patching are invisible; an unresolvable call simply contributes
no edge. The passes built on top are therefore *under*-approximate
(they miss, they don't invent), which is the right polarity for a
lint gate.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .rules import FileContext, _dotted

__all__ = [
    "FileFacts",
    "FunctionFacts",
    "CallSiteFacts",
    "ClassFacts",
    "ForwardFacts",
    "FactoryFacts",
    "FactoryCtorArg",
    "ProjectIndex",
    "collect_file_facts",
    "module_qualname",
]

#: direct wall-clock sources (mirrors RPR001's table).
WALL_CLOCK_SOURCES = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "time.process_time_ns",
}
WALL_CLOCK_SUFFIXES = ("datetime.now", "datetime.utcnow", "datetime.today", "date.today")

#: mutating verbs on an apiserver/etcd-like handle (fence escape sinks).
WRITE_VERBS = (
    "create",
    "update",
    "patch",
    "delete",
    "try_delete",
    "put",
    "put_if",
    "bind",
    "submit",
    "evict",
)


def module_qualname(path: str) -> str:
    """Dotted module name for *path* (``src/repro/core/devmgr.py`` →
    ``repro.core.devmgr``; a bare fixture name keeps its stem)."""
    parts = path.replace("\\", "/").split("/")
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if "src" in parts:
        parts = parts[parts.index("src") + 1 :]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(p for p in parts if p) or "<module>"


def _direct_taint_source(ctx: FileContext, node: ast.AST) -> Optional[str]:
    """Name of the wall-clock / unseeded-RNG source *node* calls, if any."""
    if not isinstance(node, ast.Call):
        return None
    resolved = ctx.resolve(_dotted(node.func))
    if resolved is None:
        return None
    if resolved in WALL_CLOCK_SOURCES or any(
        resolved == s or resolved.endswith("." + s) for s in WALL_CLOCK_SUFFIXES
    ):
        return resolved
    if resolved.startswith("random.") and resolved != "random.Random":
        return resolved
    if resolved == "random.Random" and not node.args and not node.keywords:
        return resolved
    if resolved.startswith("numpy.random.") and resolved not in (
        "numpy.random.default_rng",
        "numpy.random.Generator",
        "numpy.random.SeedSequence",
    ):
        return resolved
    return None


# ---------------------------------------------------------------------------
# facts records
# ---------------------------------------------------------------------------


@dataclass
class CallSiteFacts:
    """One call expression inside a function body."""

    line: int
    col: int
    callee: str  # callee reference (see module docstring)
    display: str  # as written in source, for messages
    arg_callees: List[str] = field(default_factory=list)
    arg_direct_taint: Optional[str] = None


@dataclass
class FunctionFacts:
    """Taint-relevant summary of one function or method."""

    qualname: str
    name: str
    cls: Optional[str]  # enclosing class qualname
    params: List[str]
    is_generator: bool
    #: source name when a return expression reads the clock/RNG directly.
    direct_taint: Optional[str]
    #: callee references appearing in return position (directly or via a
    #: local that a return statement hands back).
    return_callees: List[str]
    call_sites: List[CallSiteFacts]


@dataclass
class ForwardFacts:
    """``__init__`` forwarding a parameter into another constructor."""

    param: str
    class_ref: str
    arg_index: Optional[int]  # positional (0-based, self excluded) …
    kw: Optional[str]  # … or keyword


@dataclass
class ClassFacts:
    """Fence-escape-relevant summary of one class."""

    qualname: str
    name: str
    bases: List[str]
    init_params: List[str]
    #: init param -> attribute names it is stored under (``self.a = p``).
    stores: Dict[str, List[str]]
    #: init params forwarded into another class's constructor.
    forwards: List[ForwardFacts]
    #: attributes through which some method issues a write verb
    #: (``self.<attr>....create(...)``), including one level of
    #: ``self.helper()`` indirection within the class.
    write_attrs: List[str]
    #: attribute -> inferred class reference (``self.a = Cls(...)``).
    attr_types: Dict[str, str]
    #: method name -> shared-state receivers it reads / writes (used by
    #: the yield-atomicity pass to see through ``self.helper()`` calls).
    method_shared_reads: Dict[str, List[str]]
    method_shared_writes: Dict[str, List[str]]


@dataclass
class FactoryCtorArg:
    """A constructor argument observed inside an HA factory body."""

    line: int
    col: int
    class_ref: str
    arg_index: Optional[int]
    kw: Optional[str]
    expr: str  # source text of the argument (for the message)
    fenced: bool  # rooted at the factory's fenced-client parameter
    apiish: bool  # smells like an apiserver handle
    #: set when the argument is itself a constructor call that received
    #: an unfenced api-ish handle (two-constructor laundering).
    inner_class_ref: Optional[str] = None


@dataclass
class FactoryFacts:
    """One ``HAControllerGroup(...)`` call site and its factory body."""

    line: int
    col: int
    ctor_args: List[FactoryCtorArg]


@dataclass
class FileFacts:
    """Everything the global passes need from one file."""

    path: str
    module: str
    functions: List[FunctionFacts]
    classes: List[ClassFacts]
    factories: List[FactoryFacts]


# ---------------------------------------------------------------------------
# collection
# ---------------------------------------------------------------------------

#: shared mutable state the atomicity pass cares about (root identifiers,
#: underscore-stripped): etcd keyspace, apiserver, vGPU pools, registries.
SHARED_ROOTS = {"etcd", "api", "apiserver", "pool", "registry", "store"}
SHARED_READ_VERBS = {"get", "range", "list", "snapshot", "keys", "pods", "nodes"}
SHARED_WRITE_VERBS = {
    "put",
    "update",
    "patch",
    "create",
    "delete",
    "add",
    "remove",
    "discard",
    "append",
    "pop",
    "bind",
    "submit",
}
#: sanctioned cross-yield write idioms the atomicity pass must not flag:
#: CAS (``put_if``), tolerant delete (``try_delete``), and the
#: server-side mutator (``patch(kind, name, mutate)`` re-reads current
#: state before applying, so it cannot act on a stale snapshot).
ATOMICITY_EXEMPT_VERBS = {"put_if", "try_delete", "patch"}


def shared_receiver(dotted: Optional[str]) -> Optional[str]:
    """Normalized key for a shared-state receiver, else ``None``.

    ``self._etcd`` and ``_etcd`` normalize to the same key so a method
    summary matches the call site in its caller.
    """
    if dotted is None:
        return None
    parts = dotted.split(".")
    if parts and parts[0] == "self":
        parts = parts[1:]
    if not parts:
        return None
    stripped = [p.lstrip("_") or p for p in parts]
    if not any(s in SHARED_ROOTS for s in stripped):
        return None
    return ".".join(stripped)


class _Collector:
    """Single-file facts collector."""

    def __init__(self, ctx: FileContext) -> None:
        self.ctx = ctx
        self.module = module_qualname(ctx.path)
        #: module-level function and class names (for bare-name calls).
        self.module_funcs: Set[str] = {
            n.name for n in ctx.tree.body if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        self.module_classes: Set[str] = {
            n.name for n in ctx.tree.body if isinstance(n, ast.ClassDef)
        }

    # -- name plumbing ----------------------------------------------------

    def resolve_ref(self, dotted: Optional[str], local_types: Dict[str, str],
                    cls: Optional[ast.ClassDef]) -> Optional[str]:
        """Best-effort callee reference for a call target."""
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        if head == "self" and cls is not None:
            if rest and "." not in rest:
                return f"{self.module}.{cls.name}::{rest}"
            # ``self.attr.method``: look through the attr type if inferred.
            if rest:
                attr, _, meth = rest.partition(".")
                attr_ty = local_types.get(f"self.{attr}")
                if attr_ty and meth and "." not in meth:
                    return f"{attr_ty}::{meth}"
            return None
        if head in local_types and rest and "." not in rest:
            return f"{local_types[head]}::{rest}"
        resolved = self.ctx.resolve(dotted)
        if resolved is None:
            return None
        if "." not in dotted:  # bare name
            if dotted in self.module_funcs or dotted in self.module_classes:
                return f"{self.module}.{dotted}"
        head2 = resolved.split(".")[0]
        if head2 in self.module_funcs or head2 in self.module_classes:
            return f"{self.module}.{resolved}"
        return resolved

    def type_of(self, expr: ast.AST, local_types: Dict[str, str]) -> Optional[str]:
        """Inferred class reference for an expression, if any."""
        name = _dotted(expr)
        if name is not None and name in local_types:
            return local_types[name]
        if isinstance(expr, ast.Call):
            ref = self.resolve_ref(_dotted(expr.func), local_types, None)
            if ref is not None and "::" not in ref and ref.split(".")[-1][:1].isupper():
                return ref
        return None

    def _annotation_ref(self, annotation: Optional[ast.AST]) -> Optional[str]:
        if annotation is None:
            return None
        base = annotation
        if isinstance(base, ast.Subscript):
            base = base.value
        if isinstance(base, ast.Constant) and isinstance(base.value, str):
            # string annotation: resolve its dotted text
            return self.ctx.resolve(base.value)
        name = _dotted(base)
        if name is None:
            return None
        resolved = self.ctx.resolve(name)
        if resolved is None:
            return None
        if "." not in name and name in self.module_classes:
            return f"{self.module}.{name}"
        return resolved

    # -- per-function -----------------------------------------------------

    def _local_types(self, fn: ast.AST, cls: Optional[ast.ClassDef]) -> Dict[str, str]:
        """name (or ``self.attr``) -> inferred class reference."""
        types: Dict[str, str] = {}
        args = fn.args
        for arg in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs):
            ref = self._annotation_ref(arg.annotation)
            if ref is not None:
                types[arg.arg] = ref
        for sub in _walk_function(fn):
            if isinstance(sub, ast.Assign) and isinstance(sub.value, ast.Call):
                ref = self.resolve_ref(_dotted(sub.value.func), types, cls)
                if ref is None or "::" in ref or not ref.split(".")[-1][:1].isupper():
                    continue
                for target in sub.targets:
                    tname = _dotted(target)
                    if tname is not None:
                        types[tname] = ref
            elif isinstance(sub, ast.AnnAssign):
                tname = _dotted(sub.target)
                ref = self._annotation_ref(sub.annotation)
                if tname is not None and ref is not None:
                    types[tname] = ref
        return types

    def collect_function(
        self, fn: ast.AST, cls: Optional[ast.ClassDef], class_attr_types: Dict[str, str]
    ) -> FunctionFacts:
        ctx = self.ctx
        local_types = dict(class_attr_types)
        local_types.update(self._local_types(fn, cls))
        qual = (
            f"{self.module}.{cls.name}.{fn.name}" if cls is not None else f"{self.module}.{fn.name}"
        )
        params = [a.arg for a in fn.args.args if a.arg not in ("self", "cls")]
        is_gen = any(
            isinstance(n, (ast.Yield, ast.YieldFrom)) for n in _walk_function(fn, into_body=True)
        )

        # taint-relevant locals: name -> (direct source, callee refs)
        assigned: Dict[str, Tuple[Optional[str], List[str]]] = {}
        for sub in _walk_function(fn):
            if isinstance(sub, ast.Assign):
                direct, refs = self._expr_taint(sub.value, local_types, cls)
                for target in sub.targets:
                    if isinstance(target, ast.Name):
                        assigned[target.id] = (direct, refs)

        direct_taint: Optional[str] = None
        return_callees: List[str] = []
        for sub in _walk_function(fn):
            values: List[ast.AST] = []
            if isinstance(sub, ast.Return) and sub.value is not None:
                values.append(sub.value)
            elif isinstance(sub, (ast.Yield, ast.YieldFrom)) and sub.value is not None:
                # generators hand values back through yield as well
                values.append(sub.value)
            for value in values:
                direct, refs = self._expr_taint(value, local_types, cls)
                # a returned name inherits what was assigned to it
                for name_node in ast.walk(value):
                    if isinstance(name_node, ast.Name) and name_node.id in assigned:
                        d2, r2 = assigned[name_node.id]
                        direct = direct or d2
                        refs = refs + r2
                direct_taint = direct_taint or direct
                return_callees.extend(refs)

        call_sites: List[CallSiteFacts] = []
        for node in _walk_function(fn):
            if not isinstance(node, ast.Call):
                continue
            display = _dotted(node.func)
            if display is None:
                continue
            ref = self.resolve_ref(display, local_types, cls)
            if ref is None:
                continue
            arg_callees: List[str] = []
            arg_direct: Optional[str] = None
            for arg in list(node.args) + [kw.value for kw in node.keywords]:
                d, refs = self._expr_taint(arg, local_types, cls)
                arg_direct = arg_direct or d
                arg_callees.extend(refs)
                # names flowing in as arguments inherit their assignment
                for name_node in ast.walk(arg):
                    if isinstance(name_node, ast.Name) and name_node.id in assigned:
                        d2, r2 = assigned[name_node.id]
                        arg_direct = arg_direct or d2
                        arg_callees.extend(r2)
            call_sites.append(
                CallSiteFacts(
                    line=node.lineno,
                    col=node.col_offset + 1,
                    callee=ref,
                    display=display,
                    arg_callees=arg_callees,
                    arg_direct_taint=arg_direct,
                )
            )
        return FunctionFacts(
            qualname=qual,
            name=fn.name,
            cls=f"{self.module}.{cls.name}" if cls is not None else None,
            params=params,
            is_generator=is_gen,
            direct_taint=direct_taint,
            return_callees=sorted(set(return_callees)),
            call_sites=call_sites,
        )

    def _expr_taint(
        self, expr: ast.AST, local_types: Dict[str, str], cls: Optional[ast.ClassDef]
    ) -> Tuple[Optional[str], List[str]]:
        """(direct source, callee refs) reachable inside *expr*."""
        direct: Optional[str] = None
        refs: List[str] = []
        for node in ast.walk(expr):
            if not isinstance(node, ast.Call):
                continue
            source = _direct_taint_source(self.ctx, node)
            if source is not None:
                direct = direct or source
                continue
            ref = self.resolve_ref(_dotted(node.func), local_types, cls)
            if ref is not None:
                refs.append(ref)
        return direct, refs

    # -- per-class --------------------------------------------------------

    def collect_class(self, cls: ast.ClassDef) -> ClassFacts:
        bases: List[str] = []
        for base in cls.bases:
            ref = self._annotation_ref(base)
            if ref is not None:
                bases.append(ref)
        init = next(
            (n for n in cls.body if isinstance(n, ast.FunctionDef) and n.name == "__init__"),
            None,
        )
        init_params: List[str] = []
        stores: Dict[str, List[str]] = {}
        forwards: List[ForwardFacts] = []
        attr_types: Dict[str, str] = {}
        if init is not None:
            init_params = [a.arg for a in init.args.args if a.arg != "self"]
            local_types = self._local_types(init, cls)
            aliases: Dict[str, str] = {}  # local name -> init param it aliases
            # ast.walk is breadth-first; aliases must be seen before use,
            # so process the assignments in source order.
            assigns = sorted(
                (s for s in _walk_function(init) if isinstance(s, ast.Assign)),
                key=lambda s: (s.lineno, s.col_offset),
            )
            for sub in assigns:
                value_name = _dotted(sub.value)
                src_param = None
                if value_name in init_params:
                    src_param = value_name
                elif value_name in aliases:
                    src_param = aliases[value_name]
                for target in sub.targets:
                    if isinstance(target, ast.Name) and src_param is not None:
                        aliases[target.id] = src_param
                    elif (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        if src_param is not None:
                            stores.setdefault(src_param, []).append(target.attr)
                        ty = self.type_of(sub.value, local_types)
                        if ty is not None:
                            attr_types[target.attr] = ty
            for sub in _walk_function(init):
                for node in ast.walk(sub):
                    if not isinstance(node, ast.Call):
                        continue
                    ref = self.resolve_ref(_dotted(node.func), local_types, cls)
                    if ref is None or "::" in ref or not ref.split(".")[-1][:1].isupper():
                        continue
                    for i, arg in enumerate(node.args):
                        name = _dotted(arg)
                        param = aliases.get(name, name) if name else None
                        if param in init_params:
                            forwards.append(ForwardFacts(param, ref, i, None))
                    for kw in node.keywords:
                        name = _dotted(kw.value)
                        param = aliases.get(name, name) if name else None
                        if param in init_params and kw.arg is not None:
                            forwards.append(ForwardFacts(param, ref, None, kw.arg))
            # annotated attribute types on the class body
        for node in cls.body:
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                ref = self._annotation_ref(node.annotation)
                if ref is not None:
                    attr_types.setdefault(node.target.id, ref)

        # write-through attributes + per-method shared-state summaries
        write_attrs: Set[str] = set()
        method_shared_reads: Dict[str, List[str]] = {}
        method_shared_writes: Dict[str, List[str]] = {}
        method_write_attrs: Dict[str, Set[str]] = {}
        method_calls: Dict[str, Set[str]] = {}
        for meth in cls.body:
            if not isinstance(meth, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            w_attrs: Set[str] = set()
            calls: Set[str] = set()
            reads: Set[str] = set()
            writes: Set[str] = set()
            for node in _walk_function(meth, into_body=True):
                if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                    continue
                receiver = _dotted(node.func.value)
                if receiver is None:
                    continue
                verb = node.func.attr
                if verb in WRITE_VERBS and receiver.startswith("self."):
                    w_attrs.add(receiver.split(".")[1])
                if receiver == "self":
                    calls.add(verb)
                key = shared_receiver(receiver)
                if key is not None:
                    if verb in SHARED_READ_VERBS:
                        reads.add(key)
                    if verb in SHARED_WRITE_VERBS and verb not in ATOMICITY_EXEMPT_VERBS:
                        writes.add(key)
            method_write_attrs[meth.name] = w_attrs
            method_calls[meth.name] = calls
            method_shared_reads[meth.name] = sorted(reads)
            method_shared_writes[meth.name] = sorted(writes)
        # one level of self.helper() indirection
        for meth, attrs in method_write_attrs.items():
            write_attrs.update(attrs)
        for meth, calls in method_calls.items():
            for callee in sorted(calls):
                write_attrs.update(method_write_attrs.get(callee, set()))
                method_shared_reads[meth] = sorted(
                    set(method_shared_reads[meth]) | set(method_shared_reads.get(callee, []))
                )
                method_shared_writes[meth] = sorted(
                    set(method_shared_writes[meth]) | set(method_shared_writes.get(callee, []))
                )

        return ClassFacts(
            qualname=f"{self.module}.{cls.name}",
            name=cls.name,
            bases=bases,
            init_params=init_params,
            stores=stores,
            forwards=forwards,
            write_attrs=sorted(write_attrs),
            attr_types=attr_types,
            method_shared_reads=method_shared_reads,
            method_shared_writes=method_shared_writes,
        )

    # -- factories --------------------------------------------------------

    def collect_factories(self) -> List[FactoryFacts]:
        functions = {
            n.name: n for n in ast.walk(self.ctx.tree) if isinstance(n, ast.FunctionDef)
        }
        out: List[FactoryFacts] = []
        for node in ast.walk(self.ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _dotted(node.func)
            if name is None or name.split(".")[-1] != "HAControllerGroup":
                continue
            factory: Optional[ast.AST] = None
            if len(node.args) >= 4:
                factory = node.args[3]
            for kw in node.keywords:
                if kw.arg == "factory":
                    factory = kw.value
            if isinstance(factory, ast.Name):
                factory = functions.get(factory.id)
            if not isinstance(factory, (ast.FunctionDef, ast.Lambda)):
                continue
            params = factory.args.args
            client = params[0].arg if params else None
            body = factory.body if isinstance(factory.body, list) else [factory.body]
            local_types = self._local_types(factory, None)
            aliases = self._factory_aliases(body, client)
            ctor_args: List[FactoryCtorArg] = []
            for stmt in body:
                for sub in ast.walk(stmt if isinstance(stmt, ast.AST) else stmt):
                    if not isinstance(sub, ast.Call):
                        continue
                    ref = self.resolve_ref(_dotted(sub.func), local_types, None)
                    if ref is None or "::" in ref or not ref.split(".")[-1][:1].isupper():
                        continue
                    for i, arg in enumerate(sub.args):
                        rec = self._factory_arg(arg, ref, i, None, client, aliases, local_types)
                        if rec is not None:
                            ctor_args.append(rec)
                    for kw in sub.keywords:
                        if kw.arg is None:
                            continue
                        rec = self._factory_arg(
                            kw.value, ref, None, kw.arg, client, aliases, local_types
                        )
                        if rec is not None:
                            ctor_args.append(rec)
            out.append(
                FactoryFacts(line=node.lineno, col=node.col_offset + 1, ctor_args=ctor_args)
            )
        return out

    def _factory_aliases(self, body: List[ast.AST], client: Optional[str]) -> Dict[str, str]:
        """local name -> root dotted expression it aliases (one level)."""
        aliases: Dict[str, str] = {}
        for stmt in body:
            for sub in ast.walk(stmt):
                if isinstance(sub, ast.Assign):
                    value_name = _dotted(sub.value)
                    if value_name is None:
                        continue
                    for target in sub.targets:
                        if isinstance(target, ast.Name):
                            aliases[target.id] = aliases.get(value_name, value_name)
        return aliases

    def _factory_arg(
        self,
        arg: ast.AST,
        class_ref: str,
        index: Optional[int],
        kw: Optional[str],
        client: Optional[str],
        aliases: Dict[str, str],
        local_types: Dict[str, str],
    ) -> Optional[FactoryCtorArg]:
        name = _dotted(arg)
        inner_ref: Optional[str] = None
        if name is None and isinstance(arg, ast.Call):
            # nested constructor: Controller(Helper(api)) — record the outer
            # slot when the inner ctor swallows an unfenced api-ish handle.
            inner = self.resolve_ref(_dotted(arg.func), local_types, None)
            if inner is None or "::" in inner or not inner.split(".")[-1][:1].isupper():
                return None
            inner_unfenced = False
            for sub_arg in list(arg.args) + [k.value for k in arg.keywords]:
                sub_name = _dotted(sub_arg)
                if sub_name is None:
                    continue
                root = aliases.get(sub_name, sub_name)
                if client is not None and (root == client or root.startswith(client + ".")):
                    continue
                if _apiish(root, local_types):
                    inner_unfenced = True
            if not inner_unfenced:
                return None
            try:
                expr = ast.unparse(arg)
            except Exception:  # pragma: no cover - unparse is total on 3.9+
                expr = "<ctor>"
            return FactoryCtorArg(
                line=arg.lineno,
                col=arg.col_offset + 1,
                class_ref=class_ref,
                arg_index=index,
                kw=kw,
                expr=expr,
                fenced=False,
                apiish=True,
                inner_class_ref=inner,
            )
        if name is None:
            return None
        root = aliases.get(name, name)
        fenced = client is not None and (root == client or root.startswith(client + "."))
        apiish = _apiish(root, local_types)
        if not apiish:
            return None
        return FactoryCtorArg(
            line=arg.lineno,
            col=arg.col_offset + 1,
            class_ref=class_ref,
            arg_index=index,
            kw=kw,
            expr=name,
            fenced=fenced,
            apiish=apiish,
        )


def _apiish(root_dotted: str, local_types: Dict[str, str]) -> bool:
    """Does this expression smell like an apiserver handle?"""
    ty = local_types.get(root_dotted)
    if ty is not None:
        last = ty.split(".")[-1]
        if last == "APIServer":
            return True
        if last == "FencedAPIServer":
            return False
    segs = [p.lstrip("_") or p for p in root_dotted.split(".")]
    return any(s in ("api", "apiserver") for s in segs)


def _walk_function(fn: ast.AST, into_body: bool = False) -> Iterator[ast.AST]:
    """Walk a function body without descending into nested defs.

    ``into_body=True`` also yields nodes inside expressions (full walk of
    each statement); the default yields each sub-statement/expression node
    exactly once, skipping nested function/class scopes either way.
    """
    body = fn.body if isinstance(fn.body, list) else [fn.body]
    stack: List[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            stack.append(child)


def collect_file_facts(ctx: FileContext) -> FileFacts:
    """Distill one parsed file into its facts record."""
    collector = _Collector(ctx)
    functions: List[FunctionFacts] = []
    classes: List[ClassFacts] = []

    for node in ctx.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            functions.append(collector.collect_function(node, None, {}))
        elif isinstance(node, ast.ClassDef):
            facts = collector.collect_class(node)
            classes.append(facts)
            attr_types = {f"self.{a}": t for a, t in facts.attr_types.items()}
            for meth in node.body:
                if isinstance(meth, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    functions.append(collector.collect_function(meth, node, attr_types))

    return FileFacts(
        path=ctx.path,
        module=collector.module,
        functions=functions,
        classes=classes,
        factories=collector.collect_factories(),
    )


# ---------------------------------------------------------------------------
# resolution
# ---------------------------------------------------------------------------


class ProjectIndex:
    """Project-wide symbol table + call graph over collected facts."""

    def __init__(self) -> None:
        self.files: Dict[str, FileFacts] = {}
        self.functions: Dict[str, FunctionFacts] = {}
        #: function qualname -> path of the file that defines it.
        self.func_paths: Dict[str, str] = {}
        self.classes: Dict[str, ClassFacts] = {}
        #: bare class name -> qualnames (fallback when the reference was
        #: recorded under a re-exported path, e.g. ``repro.core.DevMgr``).
        self._class_by_name: Dict[str, List[str]] = {}
        self._func_by_suffix: Dict[str, List[str]] = {}

    def add(self, facts: FileFacts) -> None:
        self.files[facts.path] = facts
        for fn in facts.functions:
            self.functions[fn.qualname] = fn
            self.func_paths[fn.qualname] = facts.path
        for cls in facts.classes:
            self.classes[cls.qualname] = cls
            self._class_by_name.setdefault(cls.name, []).append(cls.qualname)
        for fn in facts.functions:
            suffix = ".".join(fn.qualname.split(".")[-2:])
            self._func_by_suffix.setdefault(suffix, []).append(fn.qualname)

    # -- lookups ----------------------------------------------------------

    def resolve_class(self, ref: Optional[str]) -> Optional[ClassFacts]:
        if ref is None:
            return None
        cls = self.classes.get(ref)
        if cls is not None:
            return cls
        candidates = self._class_by_name.get(ref.split(".")[-1], [])
        if len(candidates) == 1:
            return self.classes[candidates[0]]
        return None

    def resolve_function(self, ref: Optional[str]) -> Optional[FunctionFacts]:
        """Resolve a callee reference to a function summary."""
        if ref is None:
            return None
        if "::" in ref:
            cls_ref, _, meth = ref.partition("::")
            cls = self.resolve_class(cls_ref)
            seen: Set[str] = set()
            while cls is not None and cls.qualname not in seen:
                seen.add(cls.qualname)
                fn = self.functions.get(f"{cls.qualname}.{meth}")
                if fn is not None:
                    return fn
                cls = self.resolve_class(cls.bases[0]) if cls.bases else None
            return None
        fn = self.functions.get(ref)
        if fn is not None:
            return fn
        # re-exported module path: fall back on the trailing two segments
        # only when unambiguous.
        suffix = ".".join(ref.split(".")[-2:])
        candidates = self._func_by_suffix.get(suffix, [])
        if len(candidates) == 1:
            return self.functions[candidates[0]]
        return None

    def init_param_name(self, cls: ClassFacts, index: Optional[int], kw: Optional[str]) -> Optional[str]:
        if kw is not None:
            return kw if kw in cls.init_params else None
        if index is not None and index < len(cls.init_params):
            return cls.init_params[index]
        return None

    def merged_stores(self, cls: ClassFacts) -> Dict[str, List[str]]:
        """``stores`` including single-inheritance base chains."""
        out: Dict[str, List[str]] = {}
        seen: Set[str] = set()
        cur: Optional[ClassFacts] = cls
        while cur is not None and cur.qualname not in seen:
            seen.add(cur.qualname)
            for param, attrs in cur.stores.items():
                out.setdefault(param, []).extend(attrs)
            cur = self.resolve_class(cur.bases[0]) if cur.bases else None
        return out

    def merged_write_attrs(self, cls: ClassFacts) -> Set[str]:
        out: Set[str] = set()
        seen: Set[str] = set()
        cur: Optional[ClassFacts] = cls
        while cur is not None and cur.qualname not in seen:
            seen.add(cur.qualname)
            out.update(cur.write_attrs)
            cur = self.resolve_class(cur.bases[0]) if cur.bases else None
        return out
