"""Interprocedural dataflow passes over the project call graph.

Three whole-program rules, built on :mod:`repro.analysis.callgraph`:

RPR011 **taint propagation** — a wall-clock or unseeded-RNG value that
    *escapes* its producer: a helper whose return value is (transitively)
    derived from ``time.time()``/``random.random()`` called from
    simulated code, or a tainted value passed as an argument into a
    simulated function. Subsumes the cross-function escapes RPR001/002
    cannot see (they flag only the direct source expression).

RPR012 **fence escape analysis** — an *unfenced* ``APIServer`` handle
    reaching a leader-controller write site. Where RPR005 pattern-matches
    the factory body, RPR012 follows the handle through aliasing,
    attribute storage (``self._api = api`` in ``__init__``) and
    constructor forwarding (``Controller(Helper(api))``) to any class
    that writes through it, and flags the factory-side constructor
    argument that let the handle in.

RPR013 **yield-point atomicity** — a read-modify-write on shared
    etcd/pool/registry/apiserver state that *spans* a ``yield`` inside a
    process function: the value read before the yield is stale by the
    time the write lands (another process ran in between). This is the
    static twin of the dynamic race detector (`repro.analysis.race`),
    which only sees interleavings a particular seed produces.

All three are under-approximate: an unresolvable call contributes no
edge, so they miss rather than invent (DESIGN.md §13 spells out the
soundness limits).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .callgraph import (
    ATOMICITY_EXEMPT_VERBS,
    FileFacts,
    ProjectIndex,
    SHARED_READ_VERBS,
    SHARED_WRITE_VERBS,
    _walk_function,
    shared_receiver,
)
from .rules import _RULE_BY_ID, FileContext, Finding, _dotted

__all__ = [
    "taint_map",
    "fence_sink_params",
    "project_findings",
    "check_yield_atomicity",
    "library_scope",
    "taint_sink_scope",
]


def _norm_parts(path: str) -> List[str]:
    return path.replace("\\", "/").split("/")


def library_scope(path: str) -> bool:
    """Library code the flow rules police: ``src/repro/**`` plus bare
    fixture paths (so the rule tests can drive single blobs). Tests and
    benchmarks are exempt — they run under single-writer control and
    measure host time on purpose."""
    parts = _norm_parts(path)
    if "tests" in parts or "benchmarks" in parts:
        return False
    if "repro" in parts:
        i = parts.index("repro")
        return i > 0 and parts[i - 1] == "src"
    return "src" not in parts


def taint_sink_scope(path: str) -> bool:
    """Where a wall-clock/RNG-tainted value counts as *escaping into
    simulated code*. Experiment drivers and CLI entry points measure host
    time by design and are exempt."""
    if not library_scope(path):
        return False
    parts = _norm_parts(path)
    if "experiments" in parts:
        return False
    return parts[-1] not in ("cli.py", "__main__.py")


def _finding(
    path: str, line: int, col: int, rule_id: str, message: str,
    fix: Optional[Tuple[int, int, int, int, str]] = None,
) -> Finding:
    return Finding(
        path=path, line=line, col=col, rule_id=rule_id,
        message=message, fixit=_RULE_BY_ID[rule_id].fixit, fix=fix,
    )


# ---------------------------------------------------------------------------
# RPR011 — interprocedural taint
# ---------------------------------------------------------------------------


def taint_map(index: ProjectIndex) -> Dict[str, str]:
    """function qualname -> root source (``time.time``…) for every
    function whose return value is (transitively) clock/RNG-derived."""
    tainted: Dict[str, str] = {}
    for fn in index.functions.values():
        if fn.direct_taint is not None:
            tainted[fn.qualname] = fn.direct_taint
    changed = True
    while changed:
        changed = False
        for fn in index.functions.values():
            if fn.qualname in tainted:
                continue
            for ref in fn.return_callees:
                callee = index.resolve_function(ref)
                if callee is not None and callee.qualname in tainted:
                    tainted[fn.qualname] = tainted[callee.qualname]
                    changed = True
                    break
    return tainted


def _taint_findings(index: ProjectIndex) -> Iterator[Finding]:
    tainted = taint_map(index)
    for facts in index.files.values():
        caller_in_scope = taint_sink_scope(facts.path)
        for fn in facts.functions:
            for site in fn.call_sites:
                callee = index.resolve_function(site.callee)
                if callee is None or callee.qualname == fn.qualname:
                    continue
                if caller_in_scope and callee.qualname in tainted:
                    root = tainted[callee.qualname]
                    yield _finding(
                        facts.path, site.line, site.col, "RPR011",
                        f"`{site.display}()` returns a value tainted by "
                        f"`{root}` — wall-clock/RNG escapes into simulated code",
                    )
                    continue
                # argument flow: a tainted value produced *outside* sim
                # scope injected into a simulated function.
                if caller_in_scope:
                    continue  # direct sources inside scope are RPR001/002
                callee_path = index.func_paths.get(callee.qualname)
                if callee_path is None or not taint_sink_scope(callee_path):
                    continue
                arg_root: Optional[str] = site.arg_direct_taint
                if arg_root is None:
                    for ref in site.arg_callees:
                        arg_fn = index.resolve_function(ref)
                        if arg_fn is not None and arg_fn.qualname in tainted:
                            arg_root = tainted[arg_fn.qualname]
                            break
                if arg_root is not None:
                    yield _finding(
                        facts.path, site.line, site.col, "RPR011",
                        f"passes a `{arg_root}`-tainted argument into "
                        f"simulated `{site.display}()`",
                    )


# ---------------------------------------------------------------------------
# RPR012 — fence escape
# ---------------------------------------------------------------------------


def fence_sink_params(index: ProjectIndex) -> Dict[str, Set[str]]:
    """class qualname -> constructor params through which an apiserver
    write is (transitively) issued."""
    sinks: Dict[str, Set[str]] = {q: set() for q in index.classes}
    changed = True
    while changed:
        changed = False
        for cls in index.classes.values():
            cur = sinks[cls.qualname]
            stores = index.merged_stores(cls)
            write_attrs = index.merged_write_attrs(cls)
            for param, attrs in stores.items():
                if param not in cur and set(attrs) & write_attrs:
                    cur.add(param)
                    changed = True
            for fwd in cls.forwards:
                if fwd.param in cur:
                    continue
                target = index.resolve_class(fwd.class_ref)
                if target is None:
                    continue
                tparam = index.init_param_name(target, fwd.arg_index, fwd.kw)
                if tparam is not None and tparam in sinks.get(target.qualname, set()):
                    cur.add(fwd.param)
                    changed = True
    return sinks


def _fence_findings(index: ProjectIndex) -> Iterator[Finding]:
    sinks = fence_sink_params(index)
    for facts in index.files.values():
        if not library_scope(facts.path):
            continue
        for factory in facts.factories:
            for arg in factory.ctor_args:
                if arg.fenced or not arg.apiish:
                    continue
                cls = index.resolve_class(arg.class_ref)
                if cls is None:
                    continue
                param = index.init_param_name(cls, arg.arg_index, arg.kw)
                if param is None:
                    continue
                if arg.inner_class_ref is not None:
                    # Controller(Helper(api)): flag when Helper stores the
                    # handle and Controller writes through that slot.
                    inner = index.resolve_class(arg.inner_class_ref)
                    if inner is None or not inner.stores:
                        continue
                    stored = set(index.merged_stores(cls).get(param, []))
                    if stored & index.merged_write_attrs(cls):
                        yield _finding(
                            facts.path, arg.line, arg.col, "RPR012",
                            f"unfenced apiserver handle laundered through "
                            f"`{arg.expr}` reaches a write site in "
                            f"`{cls.name}`",
                        )
                    continue
                if param in sinks.get(cls.qualname, set()):
                    yield _finding(
                        facts.path, arg.line, arg.col, "RPR012",
                        f"unfenced apiserver handle `{arg.expr}` reaches a "
                        f"write site through `{cls.name}({param}=...)`",
                    )


def project_findings(index: ProjectIndex) -> List[Finding]:
    """All whole-program findings (RPR011 + RPR012), sorted."""
    findings = list(_taint_findings(index))
    findings.extend(_fence_findings(index))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule_id))
    return findings


# ---------------------------------------------------------------------------
# RPR013 — yield-point atomicity (per-file, call-graph assisted)
# ---------------------------------------------------------------------------

#: abstract state per shared receiver: FRESH = read since the last yield
#: on this path; STALE = a yield intervened since the read.
_FRESH, _STALE = "fresh", "stale"


def _handles_conflict(fn: ast.AST) -> bool:
    for sub in _walk_function(fn, into_body=True):
        if isinstance(sub, ast.ExceptHandler) and sub.type is not None:
            types = sub.type.elts if isinstance(sub.type, ast.Tuple) else [sub.type]
            for t in types:
                name = _dotted(t) or ""
                if "Conflict" in name or "CasFailure" in name:
                    return True
    return False


def _iter_functions(tree: ast.Module) -> Iterator[Tuple[ast.AST, Optional[str]]]:
    """(function node, enclosing class name) for module-level functions
    and class methods (nested defs are skipped, matching the collector)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node, None
        elif isinstance(node, ast.ClassDef):
            for meth in node.body:
                if isinstance(meth, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield meth, node.name


def check_yield_atomicity(ctx: FileContext, facts: FileFacts) -> Iterator[Finding]:
    """RPR013: flag read-modify-writes on shared state spanning a yield."""
    if not library_scope(ctx.path):
        return
    class_facts = {c.name: c for c in facts.classes}
    for fn, cls_name in _iter_functions(ctx.tree):
        has_yield = any(
            isinstance(n, (ast.Yield, ast.YieldFrom))
            for n in _walk_function(fn, into_body=True)
        )
        if not has_yield or _handles_conflict(fn):
            continue
        cfacts = class_facts.get(cls_name) if cls_name else None
        interp = _AtomicityInterp(fn, cfacts)
        interp.exec_block(fn.body, {})
        for node, key in interp.reported:
            yield _finding(
                ctx.path,
                getattr(node, "lineno", fn.lineno),
                getattr(node, "col_offset", 0) + 1,
                "RPR013",
                f"read-modify-write on shared `{key}` spans a yield "
                f"point in `{fn.name}` — the value read before the "
                "yield is stale by the time this writes",
            )


class _AtomicityInterp:
    """Path-sensitive walk of one generator function.

    Branch arms are explored independently (a read in the `then` arm
    never pairs with a write in the `else` arm), ``return`` kills its
    path, and loop bodies run twice so a loop-carried stale read (read →
    yield at the bottom → write at the top of the next iteration) is
    caught. ``yield from self._helper(...)`` contributes its yield but
    not the helper's read/write summary — the helper is a generator
    analyzed on its own.
    """

    def __init__(self, fn: ast.AST, cfacts) -> None:
        self.cfacts = cfacts
        self._seen: set = set()  # (id(node), key) — dedupe across loop passes
        self.reported: List[Tuple[ast.AST, str]] = []
        #: call nodes that are the direct operand of a ``yield from``.
        self._delegated = {
            id(n.value)
            for n in _walk_function(fn, into_body=True)
            if isinstance(n, ast.YieldFrom) and isinstance(n.value, ast.Call)
        }

    # -- events -----------------------------------------------------------

    def _expr_events(self, expr: ast.AST) -> List[Tuple[int, int, str, Optional[str], ast.AST]]:
        events: List[Tuple[int, int, str, Optional[str], ast.AST]] = []
        for node in ast.walk(expr):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            pos = (getattr(node, "lineno", 0), getattr(node, "col_offset", 0))
            if isinstance(node, (ast.Yield, ast.YieldFrom)):
                events.append((*pos, "yield", None, node))
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                receiver = _dotted(node.func.value)
                verb = node.func.attr
                if receiver == "self" and self.cfacts is not None:
                    if id(node) in self._delegated:
                        continue  # the delegated generator reports itself
                    for key in self.cfacts.method_shared_reads.get(verb, []):
                        events.append((*pos, "read", key, node))
                    for key in self.cfacts.method_shared_writes.get(verb, []):
                        events.append((*pos, "write", key, node))
                    continue
                key = shared_receiver(receiver)
                if key is None or verb in ATOMICITY_EXEMPT_VERBS:
                    continue
                if verb in SHARED_READ_VERBS:
                    events.append((*pos, "read", key, node))
                elif verb in SHARED_WRITE_VERBS:
                    events.append((*pos, "write", key, node))
            elif isinstance(node, ast.Subscript):
                key = shared_receiver(_dotted(node.value))
                if key is None:
                    continue
                if isinstance(node.ctx, ast.Load):
                    events.append((*pos, "read", key, node))
                elif isinstance(node.ctx, ast.Store):
                    events.append((*pos, "write", key, node))
        events.sort(key=lambda e: (e[0], e[1]))
        return events

    def _apply(self, events, state: Dict[str, str]) -> None:
        for _, _, kind, key, node in events:
            if kind == "yield":
                for k, v in state.items():
                    if v == _FRESH:
                        state[k] = _STALE
            elif kind == "read":
                state[key] = _FRESH
            elif kind == "write":
                if state.get(key) == _STALE:
                    mark = (id(node), key)
                    if mark not in self._seen:
                        self._seen.add(mark)
                        self.reported.append((node, key))
                # A write consumes the pending read: a later write is only
                # a read-modify-write if it does its own read first (blind
                # writes such as `create` never arm the staleness trigger).
                state.pop(key, None)

    # -- statements -------------------------------------------------------

    def exec_block(
        self, stmts: Sequence[ast.stmt], state: Dict[str, str]
    ) -> Optional[Dict[str, str]]:
        """Run *stmts* over *state*; ``None`` means the path left the block."""
        for stmt in stmts:
            state = self._exec_stmt(stmt, state)
            if state is None:
                return None
        return state

    def _exec_stmt(self, stmt: ast.stmt, state: Dict[str, str]) -> Optional[Dict[str, str]]:
        header = _stmt_header_exprs(stmt)
        for expr in header:
            self._apply(self._expr_events(expr), state)
        if isinstance(stmt, (ast.Return, ast.Raise, ast.Break, ast.Continue)):
            return None
        if isinstance(stmt, ast.If):
            s1 = self.exec_block(stmt.body, dict(state))
            s2 = self.exec_block(stmt.orelse, dict(state))
            return _merge(s1, s2)
        if isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
            s: Optional[Dict[str, str]] = dict(state)
            for _ in range(2):  # second pass exposes loop-carried staleness
                if s is None:
                    break
                s = self.exec_block(stmt.body, dict(s))
            merged = _merge(dict(state), s)  # the loop may run zero times
            if stmt.orelse:
                merged = self.exec_block(stmt.orelse, merged or dict(state))
            return merged if merged is not None else dict(state)
        if isinstance(stmt, ast.Try):
            body_out = self.exec_block(stmt.body, dict(state))
            outs = [body_out]
            for handler in stmt.handlers:
                outs.append(self.exec_block(handler.body, dict(state)))
            merged: Optional[Dict[str, str]] = None
            for out in outs:
                merged = _merge(merged, out)
            if stmt.finalbody:
                merged = self.exec_block(stmt.finalbody, merged or dict(state))
            return merged
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self.exec_block(stmt.body, state)
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return state  # nested scopes are analyzed on their own
        return state


def _stmt_header_exprs(stmt: ast.stmt) -> List[ast.AST]:
    """Expressions evaluated by *stmt* itself (not its nested blocks)."""
    if isinstance(stmt, (ast.If, ast.While)):
        return [stmt.test]
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return [stmt.iter]
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return [item.context_expr for item in stmt.items]
    if isinstance(stmt, ast.Try):
        return []
    if isinstance(stmt, ast.Return):
        return [stmt.value] if stmt.value is not None else []
    if isinstance(stmt, ast.Raise):
        return [e for e in (stmt.exc, stmt.cause) if e is not None]
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return []
    return [stmt]


def _merge(
    s1: Optional[Dict[str, str]], s2: Optional[Dict[str, str]]
) -> Optional[Dict[str, str]]:
    """Join two branch out-states (``None`` = the path did not fall through)."""
    if s1 is None:
        return s2
    if s2 is None:
        return s1
    out: Dict[str, str] = {}
    for key in sorted(set(s1) | set(s2)):
        a, b = s1.get(key), s2.get(key)
        out[key] = _STALE if _STALE in (a, b) else _FRESH
    return out
