"""Sim-aware linter driver: ``python -m repro.analysis.lint src tests benchmarks``.

Walks the given files/directories, parses every ``.py`` file once, runs
the file-local RPR rules (:mod:`repro.analysis.rules`), the per-file
yield-atomicity pass, and the whole-program dataflow passes
(:mod:`repro.analysis.flow` over :mod:`repro.analysis.callgraph`), and
prints one line per finding::

    src/repro/core/devmgr.py:185:29: RPR006 unsorted iteration over set
    `vgpu.attached` (fix: iterate sorted(...): ...)

Exit status is 1 if any unsuppressed finding remains or any file fails
to parse, else 0.

Suppressions are inline, flake8-style, and must name the rule::

    t0 = time.perf_counter()  # noqa: RPR001 - measuring host wall time (Fig 11)

A bare ``# noqa`` (no codes) also suppresses, but the reviewed style is
to name the rule and justify the exception; foreign codes
(``# noqa: BLE001``) do **not** suppress RPR findings. Suppression
comments are found with :mod:`tokenize`, so a ``# noqa`` *inside a
string literal* (lint-rule fixture strings, docstrings) is inert.

Files whose *purpose* is to violate a rule (tests of raw etcd CAS
semantics, conflict-retry tests) can disable named rules file-wide::

    # repro-lint: disable=RPR004 - this file tests raw put/CAS semantics

Other modes::

    --format sarif            SARIF 2.1.0 for GitHub code scanning
    --output FILE             write the report to FILE instead of stdout
    --check-suppressions      report stale `# noqa: RPRxxx` comments
    --explain-rules           print the rule catalogue (docs/rules.md)

``lint_source`` (the rule-fixture tests) and ``run_analysis`` (this CLI)
run the same pipeline, :func:`_analyze`.
"""

from __future__ import annotations

# repro-lint: disable=RPR007 - this module IS the lint CLI; findings go to stdout

import argparse
import ast
import io
import re
import sys
import tokenize
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Set, Tuple

from . import flow
from .callgraph import FileFacts, ProjectIndex, collect_file_facts
from .rules import ALL_RULES, FileContext, Finding, ProjectContext, run_rules
from .sarif import render_sarif

__all__ = [
    "lint_source",
    "run_analysis",
    "AnalysisResult",
    "stale_suppressions",
    "main",
]

_CODE_RE = re.compile(r"[A-Z]+[0-9]+")
_NOQA_RE = re.compile(r"#\s*noqa(?P<codes>:[^#]*)?", re.IGNORECASE)
_PRAGMA_RE = re.compile(r"#\s*repro-lint:\s*disable=(?P<codes>[A-Z0-9, ]+)")


def _comment_tokens(source: str) -> Iterable[Tuple[int, str]]:
    """(line, text) for every real COMMENT token in *source*.

    Tokenizing (rather than regex-scanning raw lines) is what keeps a
    ``# noqa`` inside a string literal — lint-rule fixture snippets,
    docstrings quoting suppression syntax — from suppressing findings on
    that line.
    """
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type == tokenize.COMMENT:
                yield tok.start[0], tok.string
    except (tokenize.TokenError, IndentationError, SyntaxError):
        # Fall back to treating nothing as a comment: the file failed to
        # tokenize, and it will already be reported as a parse error.
        return


def _noqa_map(source: str) -> Dict[int, Set[str]]:
    """line -> set of suppressed codes; the empty set means 'all codes'."""
    out: Dict[int, Set[str]] = {}
    for lineno, comment in _comment_tokens(source):
        m = _NOQA_RE.search(comment)
        if m is None:
            continue
        codes = m.group("codes")
        if codes is None:
            out[lineno] = set()  # bare noqa: suppress everything
        else:
            out[lineno] = set(_CODE_RE.findall(codes))
    return out


def _file_pragma(source: str) -> Set[str]:
    """Codes disabled file-wide via ``# repro-lint: disable=...``."""
    out: Set[str] = set()
    for _, comment in _comment_tokens(source):
        m = _PRAGMA_RE.search(comment)
        if m is not None:
            out.update(_CODE_RE.findall(m.group("codes")))
    return out


def _suppressed(
    finding: Finding, noqa: Dict[int, Set[str]], file_wide: Set[str]
) -> bool:
    if finding.rule_id in file_wide:
        return True
    codes = noqa.get(finding.line)
    if codes is None:
        return False
    return not codes or finding.rule_id in codes


def _iter_py_files(paths: Sequence[str]) -> Iterable[Path]:
    seen: Set[Path] = set()
    for raw in paths:
        path = Path(raw)
        candidates = sorted(path.rglob("*.py")) if path.is_dir() else [path]
        for file in candidates:
            resolved = file.resolve()
            if resolved not in seen:
                seen.add(resolved)
                yield file


class AnalysisResult:
    """Everything one analysis run produced."""

    def __init__(self) -> None:
        #: unsuppressed findings, sorted (what the CLI reports).
        self.findings: List[Finding] = []
        #: every finding before noqa/pragma filtering (stale-suppression
        #: detection works on these).
        self.raw_findings: List[Finding] = []
        self.errors: List[str] = []
        self.sources: Dict[str, str] = {}
        self.index: ProjectIndex = ProjectIndex()


def _analyze(files: Iterable[Tuple[str, str]], result: AnalysisResult) -> AnalysisResult:
    """Run every pass over *files* (``(path, source)`` pairs) into *result*.

    The one analysis pipeline: parse each file, collect the project-wide
    set attributes (RPR006) and the call-graph facts, run the file-local
    rules and yield atomicity per file, then the whole-program passes
    over the index, and finally apply the noqa/pragma suppressions.
    """
    project = ProjectContext()
    parsed: List[Tuple[FileContext, FileFacts]] = []
    for path, source in files:
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as err:
            result.errors.append(f"{path}: {err}")
            continue
        ctx = FileContext(path, source, tree)
        project.collect(ctx)
        facts = collect_file_facts(ctx)
        result.index.add(facts)
        result.sources[path] = source
        parsed.append((ctx, facts))

    raw: List[Finding] = []
    for ctx, facts in parsed:
        raw.extend(run_rules(ctx, project))
        raw.extend(flow.check_yield_atomicity(ctx, facts))
    raw.extend(flow.project_findings(result.index))
    raw.sort(key=lambda f: (f.path, f.line, f.col, f.rule_id))
    result.raw_findings = raw

    suppressions = {
        path: (_noqa_map(source), _file_pragma(source))
        for path, source in result.sources.items()
    }
    result.findings = [f for f in raw if not _suppressed(f, *suppressions[f.path])]
    return result


def run_analysis(paths: Sequence[str]) -> AnalysisResult:
    """Analyze every ``.py`` file under *paths* (all passes)."""
    result = AnalysisResult()
    files: List[Tuple[str, str]] = []
    for file in _iter_py_files(paths):
        try:
            files.append((str(file), file.read_text(encoding="utf-8")))
        except OSError as err:
            result.errors.append(f"{file}: {err}")
    return _analyze(files, result)


def lint_source(source: str, path: str = "<string>") -> List[Finding]:
    """Lint one source blob (the unit the fixture tests drive).

    Runs every pass, including the whole-program ones, over a
    single-file project — helpers and callers in the same blob resolve
    against each other.
    """
    result = _analyze([(path, source)], AnalysisResult())
    if result.errors:
        raise SyntaxError(result.errors[0])
    return result.findings


# ---------------------------------------------------------------------------
# stale suppressions
# ---------------------------------------------------------------------------


def stale_suppressions(result: AnalysisResult) -> List[Tuple[str, int, str]]:
    """``(path, line, code)`` for every named RPR suppression that no
    longer suppresses anything: a ``# noqa: RPRxxx`` on a line with no
    RPRxxx finding, or a file-wide pragma code with no finding of that
    code anywhere in the file. Bare ``# noqa`` comments and foreign
    codes are not judged."""
    by_path_line: Dict[Tuple[str, int], Set[str]] = {}
    by_path: Dict[str, Set[str]] = {}
    for f in result.raw_findings:
        by_path_line.setdefault((f.path, f.line), set()).add(f.rule_id)
        by_path.setdefault(f.path, set()).add(f.rule_id)

    rpr_ids = {r.id for r in ALL_RULES}
    stale: List[Tuple[str, int, str]] = []
    for path, source in sorted(result.sources.items()):
        for lineno, comment in _comment_tokens(source):
            m = _NOQA_RE.search(comment)
            if m is not None and m.group("codes"):
                for code in _CODE_RE.findall(m.group("codes")):
                    if code not in rpr_ids:
                        continue
                    if code not in by_path_line.get((path, lineno), set()):
                        stale.append((path, lineno, code))
            m = _PRAGMA_RE.search(comment)
            if m is not None:
                for code in _CODE_RE.findall(m.group("codes")):
                    if code in rpr_ids and code not in by_path.get(path, set()):
                        stale.append((path, lineno, code))
    return stale


# ---------------------------------------------------------------------------
# --explain-rules (docs/rules.md generator)
# ---------------------------------------------------------------------------


def explain_rules() -> str:
    out = [
        "# RPR rule catalogue",
        "",
        "<!-- Generated by `python -m repro.analysis.lint --explain-rules` —",
        "     do not edit by hand. -->",
        "",
        "Sim-aware static analysis rules enforced over `src/`, `tests/`, and",
        "`benchmarks/`. File-local rules (RPR001–010) see one AST at a time;",
        "RPR011–013 are whole-program dataflow passes over the project call",
        "graph (DESIGN.md §13). Suppress a finding inline with",
        "`# noqa: RPRxxx - justification`, or file-wide with",
        "`# repro-lint: disable=RPRxxx - justification`.",
        "",
    ]
    for rule in ALL_RULES:
        out.append(f"## {rule.id} — {rule.title}")
        out.append("")
        out.append(f"**Why.** {rule.rationale}")
        out.append("")
        out.append(f"**Fix.** {rule.fixit}")
        out.append("")
    return "\n".join(out)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.lint",
        description="Sim-aware static analysis (RPR rule catalogue).",
    )
    parser.add_argument("paths", nargs="*", default=["src"], help="files or directories")
    parser.add_argument(
        "--explain-rules",
        action="store_true",
        help="print the rule catalogue as markdown (docs/rules.md) and exit",
    )
    parser.add_argument(
        "--format",
        choices=("text", "sarif"),
        default="text",
        help="output format (sarif = SARIF 2.1.0 for code scanning)",
    )
    parser.add_argument(
        "--output", metavar="FILE", help="write the report here instead of stdout"
    )
    parser.add_argument(
        "--check-suppressions",
        action="store_true",
        help="report stale `# noqa: RPRxxx` / pragma suppressions and exit",
    )
    args = parser.parse_args(argv)

    if args.explain_rules:
        print(explain_rules())
        return 0

    result = run_analysis(args.paths)
    # A file that does not parse fails every mode: none of its findings
    # or suppressions can be judged.
    for error in result.errors:
        print(f"error: {error}", file=sys.stderr)

    if args.check_suppressions:
        stale = stale_suppressions(result)
        for path, line, code in stale:
            print(f"{path}:{line}: stale suppression for {code} (no such finding)")
        if stale:
            print(f"\n{len(stale)} stale suppression(s)")
        return 1 if (stale or result.errors) else 0

    findings = result.findings
    if args.format == "sarif":
        report = render_sarif(findings)
    else:
        lines = [f.render() for f in findings]
        if findings or result.errors:
            lines.append("")
            lines.append(
                f"{len(findings)} finding(s), {len(result.errors)} parse error(s)"
            )
        report = "\n".join(lines) + ("\n" if lines else "")

    if args.output:
        Path(args.output).write_text(report, encoding="utf-8")
    elif report:
        sys.stdout.write(report)

    return 1 if (findings or result.errors) else 0


if __name__ == "__main__":
    sys.exit(main())
