"""Sim-aware AST lint rules (the RPR catalogue, DESIGN.md §8).

Every rule mechanically enforces an invariant the simulator's
correctness claims rest on: replayability (same seed ⇒ identical
schedule, across processes), no lost updates against the apiserver, and
fenced leader writes. Each rule has an ID, a one-line message, and a
fix-it suggestion; a finding is suppressed by an inline
``# noqa: RPRxxx - justification`` comment on its line (handled by
:mod:`repro.analysis.lint`).

Rules
-----
RPR001  wall-clock read in simulated code
RPR002  process-global or unseeded RNG
RPR003  module-level mutable state without a registered reset hook
RPR004  lost-update hazard: blind etcd put / unguarded get→update
RPR005  leader controller built against an unfenced apiserver handle
RPR006  unsorted set iteration (hash order feeds control flow)
RPR007  bare print() in library code (bypasses the event/log layer)
RPR008  sorted()/list() copy or full relist in a # hot-path function
RPR009  unguarded api.delete / eviction call (no NotFound/Conflict handling)
RPR010  federation write bypasses the generation fence / retry layer
RPR011  wall-clock/RNG taint escapes into simulated code (whole-program)
RPR012  unfenced apiserver handle reaches a leader write site (whole-program)
RPR013  read-modify-write on shared state spans a yield point

RPR011–013 are implemented in :mod:`repro.analysis.flow` over the
project call graph (:mod:`repro.analysis.callgraph`); their catalogue
entries live here so ``--explain-rules`` and SARIF see one rule table.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set, Tuple

__all__ = ["Finding", "RuleInfo", "ALL_RULES", "FileContext", "ProjectContext", "run_rules"]


@dataclass(frozen=True)
class Finding:
    """One lint violation."""

    path: str
    line: int
    col: int
    rule_id: str
    message: str
    fixit: str

    def render(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col}: {self.rule_id} "
            f"{self.message} (fix: {self.fixit})"
        )


@dataclass(frozen=True)
class RuleInfo:
    """Catalogue entry for one rule (``--explain-rules`` and DESIGN.md §8)."""

    id: str
    title: str
    rationale: str
    fixit: str


_FIX_WALLCLOCK = (
    "use Environment.now (virtual time); suppress only where host "
    "performance itself is being measured"
)
_FIX_RNG = (
    "thread a seeded random.Random(seed) through the call path; the "
    "process-global RNG makes schedules irreproducible"
)
_FIX_RESET = (
    "register a reset hook via repro.analysis.resets.register_reset so "
    "scenario fixtures restore fresh-process state"
)
_FIX_LOST_UPDATE = (
    "use etcd.put_if / api.patch (conflict-retried read-modify-write) "
    "or catch Conflict and re-read"
)
_FIX_FENCING = (
    "construct the controller against the FencedAPIServer the factory "
    "receives, never a captured bare apiserver handle"
)
_FIX_SORTED = (
    "iterate sorted(...): set order depends on PYTHONHASHSEED, so the "
    "same seed can yield different schedules across processes"
)
_FIX_PRINT = (
    "emit a Kubernetes-style Event (repro.obs.event) or record a metric; "
    "stdout from library code is invisible to the observability pipeline"
)
_FIX_HOT_COPY = (
    "serve the data from a cached, invalidation-driven index (e.g. "
    "repro.core.viewindex.DeviceViewIndex) or hoist the copy out of the "
    "hot function; suppress with a justification when the copy IS the "
    "reference path"
)
_FIX_SIM_BUCKET = (
    "serve ordered pops from the calendar queue's bucket index "
    "(repro.sim.calqueue.CalendarQueue buckets events by timestamp and "
    "sorts one bucket lazily at pop time) instead of copying or "
    "re-sorting the whole queue per event; suppress with a justification "
    "when the copy IS the reference path"
)
_FIX_REVOKE = (
    "route deletions through repro.policy.revocation.safe_delete / "
    "tolerant_patch (NotFound- and Conflict-tolerant) or api.try_delete, "
    "or catch NotFound in the enclosing function"
)
_FIX_FEDERATION = (
    "route member-cluster writes through FederationRPC.fenced_submit "
    "(generation-fenced placement) or FederationRPC.call (retried, "
    "partition-aware), and record mutations through GlobalRegistry"
)

ALL_RULES: Tuple[RuleInfo, ...] = (
    RuleInfo(
        "RPR001",
        "wall-clock read in simulated code",
        "time.time()/perf_counter()/datetime.now() read the host clock; "
        "simulated logic must advance on Environment.now or replays diverge.",
        _FIX_WALLCLOCK,
    ),
    RuleInfo(
        "RPR002",
        "process-global or unseeded RNG",
        "random.random()/choice()/... and random.Random() draw from hidden "
        "or unseeded state, so runs depend on import order and history.",
        _FIX_RNG,
    ),
    RuleInfo(
        "RPR003",
        "module-level mutable state without a registered reset hook",
        "the GPUID-counter bug class: process-global counters/caches leak "
        "state across scenarios unless a reset hook is registered.",
        _FIX_RESET,
    ),
    RuleInfo(
        "RPR004",
        "lost-update hazard on the apiserver/etcd",
        "a blind put (or a get→update cycle with no Conflict handling) can "
        "silently overwrite a concurrent writer's changes.",
        _FIX_LOST_UPDATE,
    ),
    RuleInfo(
        "RPR005",
        "leader controller built against an unfenced apiserver handle",
        "an HAControllerGroup factory that ignores its FencedAPIServer "
        "client lets a deposed leader keep writing — split-brain.",
        _FIX_FENCING,
    ),
    RuleInfo(
        "RPR006",
        "unsorted set iteration feeding control flow",
        "set iteration order varies with PYTHONHASHSEED; when it feeds a "
        "scheduling or recovery decision, replays diverge across processes.",
        _FIX_SORTED,
    ),
    RuleInfo(
        "RPR007",
        "bare print() in library code",
        "library output on stdout bypasses the Event store, the trace, and "
        "the metric families, so it never reaches `repro.obs` consumers; "
        "only experiments/ and CLI entry points may print.",
        _FIX_PRINT,
    ),
    RuleInfo(
        "RPR008",
        "O(n) copy or full relist inside a hot-path / sim-kernel function",
        "functions marked `# hot-path` run once per simulation event or "
        "scheduling pass; a sorted()/list() copy or an api.list() relist "
        "there makes the whole run superlinear — the relist-and-resort-"
        "per-pass bug class the device-view index exists to kill. Inside "
        "`src/repro/sim/**` every function is a kernel function and is "
        "hot by definition (no marker needed): the kernel dispatches once "
        "per event, so the fix is the calendar queue's bucket index, not "
        "a per-event copy. Dunder methods and @property accessors are "
        "exempt (construction and introspection, not dispatch).",
        _FIX_HOT_COPY,
    ),
    RuleInfo(
        "RPR009",
        "unguarded api.delete / eviction call",
        "revocation paths race by design — a drain timer, the reaper, and "
        "a preemptor can all target the same object, so a raw api.delete "
        "with no NotFound/Conflict handling crashes the losing controller "
        "instead of treating the repeat as already-done (idempotence).",
        _FIX_REVOKE,
    ),
    RuleInfo(
        "RPR010",
        "federation write bypasses the generation fence / retry layer",
        "a direct apiserver or kubeshare write from federation code skips "
        "the generation fence (double-placement after a healed partition) "
        "and the decorrelated-jitter retry policy (stampedes on flapping "
        "links); only the sanctioned wrappers may touch member clusters.",
        _FIX_FEDERATION,
    ),
    RuleInfo(
        "RPR011",
        "wall-clock/RNG taint escapes into simulated code",
        "a helper can launder a host-clock or unseeded-RNG value past the "
        "file-local rules: `def stamp(): return time.time()` is RPR001 in "
        "its own file, but every *caller* in simulated code silently "
        "diverges replays; this whole-program pass tracks taint through "
        "returns, assignments, and call arguments across modules.",
        "derive the value from Environment.now or a seeded Random threaded "
        "through the call path; if the helper intentionally measures host "
        "time, keep its callers out of simulated code",
    ),
    RuleInfo(
        "RPR012",
        "unfenced apiserver handle reaches a leader write site",
        "RPR005 catches a factory that *syntactically* grabs `self.api`; "
        "this pass follows the handle through aliasing, attribute storage, "
        "and constructor forwarding — an unfenced APIServer passed through "
        "two constructors into a controller that writes through it lets a "
        "deposed leader keep writing (split-brain).",
        "pass the factory's FencedAPIServer parameter down the constructor "
        "chain instead of a captured bare apiserver handle",
    ),
    RuleInfo(
        "RPR013",
        "read-modify-write on shared state spans a yield point",
        "between a read of shared etcd/pool/registry/apiserver state and "
        "the dependent write, a `yield` hands the processor to other "
        "processes — the read is stale when the write lands, the static "
        "twin of the lost updates the dynamic race detector flags.",
        "re-read after resuming, or make the write a CAS (etcd.put_if / "
        "api.patch with Conflict retry) so a concurrent writer is detected",
    ),
)

_RULE_BY_ID = {r.id: r for r in ALL_RULES}


# ---------------------------------------------------------------------------
# AST helpers
# ---------------------------------------------------------------------------

def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


class FileContext:
    """One parsed file plus its import table."""

    def __init__(self, path: str, source: str, tree: ast.Module) -> None:
        self.path = path
        self.source = source
        self.tree = tree
        #: local name -> fully qualified name it was imported as.
        self.imports: Dict[str, str] = {}
        #: attribute names this file assigns a clearly non-set container —
        #: they override a same-named set attribute from another file
        #: (``controller._pending`` is a set; ``extender._pending`` a list).
        self.non_set_attrs: Set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Attribute
            ):
                if _is_non_set_annotation(node.annotation):
                    self.non_set_attrs.add(node.target.attr)
            elif isinstance(node, ast.Assign) and _is_non_set_expr(node.value):
                for target in node.targets:
                    if isinstance(target, ast.Attribute):
                        self.non_set_attrs.add(target.attr)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    self.imports[local] = alias.name if alias.asname else local
            elif isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    local = alias.asname or alias.name
                    self.imports[local] = f"{node.module}.{alias.name}"

    def resolve(self, dotted: Optional[str]) -> Optional[str]:
        """Rewrite the first segment through the import table."""
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        mapped = self.imports.get(head)
        if mapped is None:
            return dotted
        return f"{mapped}.{rest}" if rest else mapped


class ProjectContext:
    """Cross-file facts collected in a first pass over every linted file."""

    def __init__(self) -> None:
        #: attribute names statically known to hold a ``set`` somewhere in
        #: the project (``attached: Set[str]``, ``self._pending = set()``).
        self.set_attrs: Set[str] = set()

    def collect(self, ctx: FileContext) -> None:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.AnnAssign) and _is_set_annotation(node.annotation):
                target = node.target
                if isinstance(target, ast.Attribute):
                    self.set_attrs.add(target.attr)
                elif isinstance(target, ast.Name) and _in_class_body(ctx.tree, node):
                    self.set_attrs.add(target.id)
            elif isinstance(node, ast.Assign) and _is_set_expr(node.value, locals_=set()):
                for target in node.targets:
                    if isinstance(target, ast.Attribute):
                        self.set_attrs.add(target.attr)


def _in_class_body(tree: ast.Module, node: ast.AST) -> bool:
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef) and node in cls.body:
            return True
    return False


def _is_set_annotation(annotation: ast.AST) -> bool:
    base = annotation
    if isinstance(base, ast.Subscript):
        base = base.value
    name = _dotted(base)
    return name is not None and name.split(".")[-1] in ("Set", "set", "MutableSet", "frozenset")


def _is_non_set_annotation(annotation: ast.AST) -> bool:
    base = annotation
    if isinstance(base, ast.Subscript):
        base = base.value
    name = _dotted(base)
    return name is not None and name.split(".")[-1] in (
        "List", "list", "Dict", "dict", "Tuple", "tuple", "Sequence", "Mapping",
        "OrderedDict", "defaultdict", "deque", "str",
    )


def _is_non_set_expr(node: ast.AST) -> bool:
    """Is *node* statically an *ordered* container (not a set)?"""
    if isinstance(node, (ast.List, ast.ListComp, ast.Dict, ast.DictComp, ast.Tuple)):
        return True
    if isinstance(node, ast.Call):
        name = _dotted(node.func)
        return name is not None and name.split(".")[-1] in (
            "list", "dict", "tuple", "OrderedDict", "defaultdict", "deque", "sorted",
        )
    return False


def _is_set_expr(node: ast.AST, locals_: Set[str]) -> bool:
    """Is *node* statically a set? (literal, set() call, comprehension,
    a local known to hold one, or a set operation on one)."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = _dotted(node.func)
        if name in ("set", "frozenset"):
            return True
    if isinstance(node, ast.Name) and node.id in locals_:
        return True
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.BitOr, ast.BitAnd, ast.Sub)):
        return _is_set_expr(node.left, locals_) or _is_set_expr(node.right, locals_)
    return False


# ---------------------------------------------------------------------------
# RPR001 — wall clock
# ---------------------------------------------------------------------------

_WALL_CLOCK = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "time.process_time_ns",
}
_WALL_CLOCK_SUFFIXES = ("datetime.now", "datetime.utcnow", "datetime.today", "date.today")


def _check_wall_clock(ctx: FileContext) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        resolved = ctx.resolve(_dotted(node.func))
        if resolved is None:
            continue
        hit = resolved in _WALL_CLOCK or any(
            resolved == s or resolved.endswith("." + s) for s in _WALL_CLOCK_SUFFIXES
        )
        if hit:
            yield _finding(ctx, node, "RPR001", f"wall-clock read `{resolved}()`")


# ---------------------------------------------------------------------------
# RPR002 — global / unseeded RNG
# ---------------------------------------------------------------------------

_NP_SEEDED_OK = ("numpy.random.default_rng", "numpy.random.Generator", "numpy.random.SeedSequence")


def _check_rng(ctx: FileContext) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        resolved = ctx.resolve(_dotted(node.func))
        if resolved is None:
            continue
        if resolved == "random.Random" or resolved.endswith("numpy.random.RandomState"):
            if not node.args and not node.keywords:
                yield _finding(ctx, node, "RPR002", f"unseeded `{resolved}()`")
            continue
        if resolved.startswith("random."):
            yield _finding(
                ctx, node, "RPR002", f"process-global RNG call `{resolved}()`"
            )
        elif resolved.startswith("numpy.random.") and resolved not in _NP_SEEDED_OK:
            yield _finding(
                ctx, node, "RPR002", f"process-global NumPy RNG call `{resolved}()`"
            )
        elif resolved in _NP_SEEDED_OK and resolved.endswith("default_rng"):
            if not node.args and not node.keywords:
                yield _finding(ctx, node, "RPR002", f"unseeded `{resolved}()`")


# ---------------------------------------------------------------------------
# RPR003 — module-level mutable state without a reset hook
# ---------------------------------------------------------------------------

_MUTABLE_CTORS = {
    "set",
    "dict",
    "list",
    "bytearray",
    "deque",
    "collections.deque",
    "defaultdict",
    "collections.defaultdict",
    "Counter",
    "collections.Counter",
    "OrderedDict",
    "collections.OrderedDict",
    "count",
    "itertools.count",
}


def _is_mutable_ctor(ctx: FileContext, value: ast.AST) -> bool:
    if isinstance(value, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.SetComp, ast.DictComp)):
        return True
    if isinstance(value, ast.Call):
        resolved = ctx.resolve(_dotted(value.func))
        return resolved in _MUTABLE_CTORS
    return False


def _reset_covered_names(ctx: FileContext) -> Set[str]:
    """Identifiers referenced by any registered reset hook in this module."""
    covered: Set[str] = set()
    functions = {
        n.name: n for n in ast.walk(ctx.tree) if isinstance(n, ast.FunctionDef)
    }
    hooked: List[ast.AST] = []
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Call):
            name = _dotted(node.func)
            if name is not None and name.split(".")[-1] == "register_reset":
                hooked.extend(node.args)
                hooked.extend(kw.value for kw in node.keywords)
        elif isinstance(node, ast.FunctionDef):
            for dec in node.decorator_list:
                target = dec.func if isinstance(dec, ast.Call) else dec
                name = _dotted(target)
                if name is not None and name.split(".")[-1] == "register_reset":
                    hooked.append(ast.Name(id=node.name, ctx=ast.Load()))
    for arg in hooked:
        if isinstance(arg, ast.Name) and arg.id in functions:
            body = functions[arg.id]
        elif isinstance(arg, ast.Lambda):
            body = arg
        else:
            # e.g. register_reset("x", _cache.clear): the receiver counts.
            name = _dotted(arg)
            if name is not None:
                covered.add(name.split(".")[0])
            continue
        for sub in ast.walk(body):
            if isinstance(sub, ast.Global):
                covered.update(sub.names)
            elif isinstance(sub, ast.Name):
                covered.add(sub.id)
    return covered


def _check_module_state(ctx: FileContext) -> Iterator[Finding]:
    covered: Optional[Set[str]] = None  # computed lazily
    for node in ctx.tree.body:
        if isinstance(node, ast.Assign):
            targets = [t for t in node.targets if isinstance(t, ast.Name)]
            value = node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target] if isinstance(node.target, ast.Name) else []
            value = node.value
        else:
            continue
        if not _is_mutable_ctor(ctx, value):
            continue
        for target in targets:
            name = target.id
            if name in ("__all__", "__path__") or name.isupper():
                continue  # constants-by-convention are a different sin
            if covered is None:
                covered = _reset_covered_names(ctx)
            if name in covered:
                continue
            yield _finding(
                ctx,
                node,
                "RPR003",
                f"module-level mutable state `{name}` has no registered reset hook",
            )


# ---------------------------------------------------------------------------
# RPR004 — lost-update hazards
# ---------------------------------------------------------------------------

def _segments(dotted: str) -> List[str]:
    return [s.lstrip("_") for s in dotted.split(".")]


def _check_lost_update(ctx: FileContext) -> Iterator[Finding]:
    # (a) blind etcd put anywhere.
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr == "put":
                receiver = _dotted(node.func.value)
                if receiver is not None and "etcd" in _segments(receiver):
                    yield _finding(
                        ctx, node, "RPR004", f"blind `{receiver}.put(...)` (no CAS)"
                    )
    # (b) get→update on an api handle with no Conflict handling in scope.
    # Each function is one scope: a nested def gets its own pass, so its
    # calls and handlers neither pair with nor excuse the enclosing ones.
    for fn in ast.walk(ctx.tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        body = list(_walk_scope(fn))
        handles_conflict = False
        for sub in body:
            if isinstance(sub, ast.ExceptHandler) and sub.type is not None:
                types = (
                    sub.type.elts if isinstance(sub.type, ast.Tuple) else [sub.type]
                )
                for t in types:
                    name = _dotted(t) or ""
                    if "Conflict" in name or "CasFailure" in name:
                        handles_conflict = True
        if handles_conflict:
            continue
        reads: Dict[str, int] = {}
        # Source order: the walk would visit a `get` nested deeper than a
        # later `update` (under `.clone()`, inside an `if`) after it.
        calls = sorted(
            (
                sub
                for sub in body
                if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute)
            ),
            key=lambda call: (call.lineno, call.col_offset),
        )
        for sub in calls:
            receiver = _dotted(sub.func.value)
            if receiver is None or "api" not in _segments(receiver):
                continue
            if sub.func.attr == "get":
                reads.setdefault(receiver, sub.lineno)
            elif sub.func.attr == "update" and receiver in reads:
                if sub.lineno > reads[receiver]:
                    yield _finding(
                        ctx,
                        sub,
                        "RPR004",
                        f"`{receiver}.get(...)` → `{receiver}.update(...)` "
                        "with no Conflict handling",
                    )


# ---------------------------------------------------------------------------
# RPR005 — unfenced leader controllers
# ---------------------------------------------------------------------------

def _check_fenced_factories(ctx: FileContext) -> Iterator[Finding]:
    functions = {
        n.name: n for n in ast.walk(ctx.tree) if isinstance(n, ast.FunctionDef)
    }
    for node in ast.walk(ctx.tree):
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
            continue  # not statically resolvable
        params = factory.args.args
        if not params:
            yield _finding(
                ctx, node, "RPR005", "HA factory takes no fenced-client parameter"
            )
            continue
        client = params[0].arg
        body = factory.body if isinstance(factory.body, list) else [factory.body]
        uses_client = any(
            isinstance(sub, ast.Name) and sub.id == client
            for stmt in body
            for sub in ast.walk(stmt)
        )
        if not uses_client:
            yield _finding(
                ctx,
                factory if isinstance(factory, ast.Lambda) else node,
                "RPR005",
                f"HA factory never uses its fenced client `{client}`",
            )
        for stmt in body:
            for sub in ast.walk(stmt):
                if isinstance(sub, ast.Attribute) and sub.attr in ("api", "_api"):
                    yield _finding(
                        ctx,
                        sub,
                        "RPR005",
                        f"HA factory reaches for unfenced `{_dotted(sub)}`",
                    )


# ---------------------------------------------------------------------------
# RPR006 — unsorted set iteration
# ---------------------------------------------------------------------------

_ORDERED_CONSUMERS = ("list", "tuple", "min", "max", "enumerate", "reversed")
#: Reducers whose result cannot depend on iteration order (min/max are NOT
#: here: with a key= function, ties break by iteration order).
_UNORDERED_REDUCERS = ("all", "any", "sum", "len", "set", "frozenset", "sorted")


def _check_set_iteration(ctx: FileContext, project: ProjectContext) -> Iterator[Finding]:
    for scope in ast.walk(ctx.tree):
        if not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Module)):
            continue
        locals_: Set[str] = set()
        # Local inference: names assigned a set expression anywhere in the
        # scope. Two passes reach the fixpoint for one level of aliasing
        # (``a = set(); b = a``) without needing program order.
        for _ in range(2):
            for sub in _walk_scope(scope):
                if isinstance(sub, ast.Assign) and _is_set_expr(sub.value, locals_):
                    for t in sub.targets:
                        if isinstance(t, ast.Name):
                            locals_.add(t.id)
                elif isinstance(sub, ast.AnnAssign) and sub.value is not None:
                    if _is_set_annotation(sub.annotation) or _is_set_expr(
                        sub.value, locals_
                    ):
                        if isinstance(sub.target, ast.Name):
                            locals_.add(sub.target.id)

        def is_set(expr: ast.AST) -> bool:
            if (
                isinstance(expr, ast.Attribute)
                and expr.attr in project.set_attrs
                and expr.attr not in ctx.non_set_attrs
            ):
                return True
            return _is_set_expr(expr, locals_)

        # Comprehensions consumed whole by an order-insensitive reducer
        # (``all(x in y for x in some_set)``) are deterministic no matter
        # how the set iterates — exempt them.
        reduced: Set[ast.AST] = set()
        for sub in _walk_scope(scope):
            if isinstance(sub, ast.Call):
                name = _dotted(sub.func)
                if name in _UNORDERED_REDUCERS and len(sub.args) == 1:
                    reduced.add(sub.args[0])

        for sub in _walk_scope(scope):
            if isinstance(sub, (ast.For, ast.AsyncFor)) and is_set(sub.iter):
                yield _finding(ctx, sub.iter, "RPR006", _set_iter_msg(sub.iter))
            elif isinstance(sub, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                if sub in reduced and not isinstance(sub, (ast.ListComp, ast.DictComp)):
                    continue
                for gen in sub.generators:
                    if is_set(gen.iter):
                        yield _finding(ctx, gen.iter, "RPR006", _set_iter_msg(gen.iter))
            elif isinstance(sub, ast.Call):
                name = _dotted(sub.func)
                if name in _ORDERED_CONSUMERS and sub.args and is_set(sub.args[0]):
                    yield _finding(ctx, sub, "RPR006", _set_iter_msg(sub.args[0]))


def _walk_scope(scope: ast.AST) -> Iterator[ast.AST]:
    """Walk *scope* without descending into nested function/class scopes."""
    # Functions directly in scope.body must be filtered here too — they get
    # their own scope pass, and descending into them from the enclosing
    # scope would report every finding in their bodies twice.
    stack = [
        n
        for n in scope.body
        if not isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
    ]
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
                continue
            stack.append(child)


def _set_iter_msg(expr: ast.AST) -> str:
    name = _dotted(expr)
    what = f"`{name}`" if name else "a set expression"
    return f"unsorted iteration over set {what}"


# ---------------------------------------------------------------------------
# RPR007 — bare print() in library code
# ---------------------------------------------------------------------------

#: basenames that ARE user-facing terminals: CLI entry points may print.
_PRINT_EXEMPT_BASENAMES = ("cli.py", "__main__.py")
#: directories whose whole purpose is terminal output.
_PRINT_EXEMPT_DIRS = ("experiments",)


def _print_rule_applies(path: str) -> bool:
    parts = path.replace("\\", "/").split("/")
    # Library scope only: src/repro/** (tests and benchmarks may print).
    try:
        i = parts.index("repro")
    except ValueError:
        return False
    if i == 0 or parts[i - 1] != "src":
        return False
    inside = parts[i + 1 :]
    if not inside:
        return False
    if any(d in inside[:-1] for d in _PRINT_EXEMPT_DIRS):
        return False
    return inside[-1] not in _PRINT_EXEMPT_BASENAMES


def _check_bare_print(ctx: FileContext) -> Iterator[Finding]:
    if not _print_rule_applies(ctx.path):
        return
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        if isinstance(node.func, ast.Name) and node.func.id == "print":
            yield _finding(
                ctx,
                node,
                "RPR007",
                "bare `print()` in library code bypasses the event/log layer",
            )


# ---------------------------------------------------------------------------
# RPR008 — O(n) copies / relists inside a # hot-path function
# ---------------------------------------------------------------------------

#: marker comment declaring a function performance-critical. Place it on
#: the ``def`` line or on its own comment line directly above the ``def``.
_HOT_MARKER = "# hot-path"
#: decorators that make a function an introspection accessor, exempt from
#: the implicit sim-kernel hot classification.
_ACCESSOR_DECORATORS = ("property", "cached_property")


def _sim_kernel_rule_applies(path: str) -> bool:
    """Is *path* inside the simulation kernel (``src/repro/sim/**``)?"""
    parts = path.replace("\\", "/").split("/")
    try:
        i = parts.index("sim")
    except ValueError:
        return False
    return i >= 2 and parts[i - 1] == "repro" and parts[i - 2] == "src"


def _is_accessor(fn: ast.AST) -> bool:
    for dec in getattr(fn, "decorator_list", ()):
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = _dotted(target)
        if name is not None and name.split(".")[-1] in _ACCESSOR_DECORATORS:
            return True
    return False


def _hot_functions(ctx: FileContext) -> Iterator[ast.AST]:
    lines = ctx.source.splitlines()
    # Kernel files: every function is hot unless it is a dunder
    # (construction, repr) or a @property accessor — those run outside
    # the per-event dispatch loop.
    sim_kernel = _sim_kernel_rule_applies(ctx.path)
    for node in ast.walk(ctx.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if sim_kernel:
            if not (
                (node.name.startswith("__") and node.name.endswith("__"))
                or _is_accessor(node)
            ):
                yield node
                continue
        def_line = lines[node.lineno - 1] if node.lineno <= len(lines) else ""
        above = lines[node.lineno - 2].strip() if node.lineno >= 2 else ""
        if _HOT_MARKER in def_line or (
            above.startswith("#") and _HOT_MARKER in above
        ):
            yield node


def _check_hot_path_copies(ctx: FileContext) -> Iterator[Finding]:
    fixit = _FIX_SIM_BUCKET if _sim_kernel_rule_applies(ctx.path) else None
    seen: Set[int] = set()  # nested hot functions: report each call once
    for fn in _hot_functions(ctx):
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call) or id(node) in seen:
                continue
            seen.add(id(node))
            func = node.func
            if isinstance(func, ast.Name) and func.id in ("sorted", "list"):
                yield _finding(
                    ctx,
                    node,
                    "RPR008",
                    f"`{func.id}()` copy inside hot-path function `{fn.name}`",
                    fixit=fixit,
                )
            elif isinstance(func, ast.Attribute) and func.attr == "list":
                target = _dotted(func.value)
                what = f"`{target}.list()`" if target else "`.list()`"
                yield _finding(
                    ctx,
                    node,
                    "RPR008",
                    f"full {what} relist inside hot-path function `{fn.name}`",
                    fixit=fixit,
                )


# ---------------------------------------------------------------------------
# RPR009 — unguarded api.delete / eviction calls
# ---------------------------------------------------------------------------

#: attribute names that remove an object and raise NotFound when it is
#: already gone. ``try_delete`` is the tolerant sibling and is exempt.
_REVOKE_ATTRS = ("delete", "evict")


def _handles_notfound(fn: ast.AST) -> bool:
    for sub in ast.walk(fn):
        if isinstance(sub, ast.ExceptHandler) and sub.type is not None:
            types = (
                sub.type.elts if isinstance(sub.type, ast.Tuple) else [sub.type]
            )
            for t in types:
                name = _dotted(t) or ""
                if "NotFound" in name or "Conflict" in name:
                    return True
    return False


def _revoke_rule_applies(path: str) -> bool:
    # Library scope only: src/repro/**. Tests and benchmarks delete under
    # single-writer control, where NotFound really is an error worth raising.
    parts = path.replace("\\", "/").split("/")
    try:
        i = parts.index("repro")
    except ValueError:
        return False
    return i > 0 and parts[i - 1] == "src"


def _check_unguarded_delete(ctx: FileContext) -> Iterator[Finding]:
    if not _revoke_rule_applies(ctx.path):
        return
    for fn in ast.walk(ctx.tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if _handles_notfound(fn):
            continue
        for sub in ast.walk(fn):
            if not (isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute)):
                continue
            if sub.func.attr not in _REVOKE_ATTRS:
                continue
            receiver = _dotted(sub.func.value)
            if receiver is None or "api" not in _segments(receiver):
                continue
            yield _finding(
                ctx,
                sub,
                "RPR009",
                f"`{receiver}.{sub.func.attr}(...)` with no NotFound/Conflict "
                "handling in scope",
            )


# ---------------------------------------------------------------------------
# RPR010 — federation writes that bypass the fence / retry wrappers
# ---------------------------------------------------------------------------

#: mutating verbs on an apiserver or kubeshare client handle. ``list`` /
#: ``get`` reads are allowed (the health prober and summarizer read
#: directly); writes must go through the sanctioned wrappers.
_FEDERATION_WRITE_ATTRS = (
    "create",
    "update",
    "patch",
    "delete",
    "try_delete",
    "submit",
)
#: modules that ARE the sanctioned wrappers: rpc.py implements the fenced
#: and retried calls, records.py implements GlobalRegistry's CAS.
_FEDERATION_EXEMPT_BASENAMES = ("rpc.py", "records.py")


def _federation_rule_applies(path: str) -> bool:
    parts = path.replace("\\", "/").split("/")
    try:
        i = parts.index("federation")
    except ValueError:
        return False
    if i == 0 or parts[i - 1] != "repro":
        return False
    return parts[-1] not in _FEDERATION_EXEMPT_BASENAMES


def _check_federation_writes(ctx: FileContext) -> Iterator[Finding]:
    if not _federation_rule_applies(ctx.path):
        return
    for node in ast.walk(ctx.tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        if node.func.attr not in _FEDERATION_WRITE_ATTRS:
            continue
        receiver = _dotted(node.func.value)
        if receiver is None:
            continue
        segments = _segments(receiver)
        if "api" not in segments and "kubeshare" not in segments:
            continue
        yield _finding(
            ctx,
            node,
            "RPR010",
            f"direct `{receiver}.{node.func.attr}(...)` bypasses the "
            "generation fence and retry layer",
        )


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def _finding(
    ctx: FileContext,
    node: ast.AST,
    rule_id: str,
    message: str,
    fixit: Optional[str] = None,
) -> Finding:
    info = _RULE_BY_ID[rule_id]
    return Finding(
        path=ctx.path,
        line=getattr(node, "lineno", 1),
        col=getattr(node, "col_offset", 0) + 1,
        rule_id=rule_id,
        message=message,
        fixit=fixit if fixit is not None else info.fixit,
    )


def run_rules(ctx: FileContext, project: ProjectContext) -> List[Finding]:
    """All findings for one file (noqa filtering happens in the linter)."""
    findings: List[Finding] = []
    findings.extend(_check_wall_clock(ctx))
    findings.extend(_check_rng(ctx))
    findings.extend(_check_module_state(ctx))
    findings.extend(_check_lost_update(ctx))
    findings.extend(_check_fenced_factories(ctx))
    findings.extend(_check_set_iteration(ctx, project))
    findings.extend(_check_bare_print(ctx))
    findings.extend(_check_hot_path_copies(ctx))
    findings.extend(_check_unguarded_delete(ctx))
    findings.extend(_check_federation_writes(ctx))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule_id))
    return findings
