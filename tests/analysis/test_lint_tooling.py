"""Tooling tests for the lint engine: SARIF output and its line-independent
fingerprints, tokenize-based noqa scanning, stale-suppression detection,
the CLI exit-code contract, and the generated rule catalogue."""

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis import sarif
from repro.analysis.lint import (
    explain_rules,
    lint_source,
    main,
    run_analysis,
    stale_suppressions,
)
from repro.analysis.rules import ALL_RULES, Finding
from repro.analysis.sarif import to_sarif


def _write(tmp_path, name, source):
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return path


WALLCLOCK = """
    import time

    def stamp():
        return time.perf_counter()
"""

CLEAN = """
    def stamp(env):
        return env.now
"""


# ---------------------------------------------------------------------------
# SARIF
# ---------------------------------------------------------------------------


class TestSarif:
    def test_document_shape(self, tmp_path):
        _write(tmp_path, "bad.py", WALLCLOCK)
        result = run_analysis([str(tmp_path)])
        doc = to_sarif(result.findings)
        assert doc["version"] == "2.1.0"
        assert "sarif-schema-2.1.0" in doc["$schema"]
        (run,) = doc["runs"]
        driver = run["tool"]["driver"]
        assert driver["name"] == "repro-lint"
        assert [r["id"] for r in driver["rules"]] == [r.id for r in ALL_RULES]

    def test_result_fields(self, tmp_path):
        _write(tmp_path, "bad.py", WALLCLOCK)
        result = run_analysis([str(tmp_path)])
        doc = to_sarif(result.findings)
        (res,) = doc["runs"][0]["results"]
        assert res["ruleId"] == "RPR001"
        assert res["level"] == "error"
        loc = res["locations"][0]["physicalLocation"]
        assert loc["artifactLocation"]["uri"].endswith("bad.py")
        assert loc["region"]["startLine"] == 5
        assert "reproLintFingerprint/v1" in res["partialFingerprints"]
        # ruleIndex must point back into the rules array
        rules = doc["runs"][0]["tool"]["driver"]["rules"]
        assert rules[res["ruleIndex"]]["id"] == "RPR001"

    def test_empty_findings_validates(self):
        doc = to_sarif([])
        assert doc["runs"][0]["results"] == []
        json.dumps(doc)  # must be serializable


# ---------------------------------------------------------------------------
# fingerprints (SARIF partialFingerprints)
# ---------------------------------------------------------------------------


class TestBaseline:
    def test_fingerprint_is_line_independent(self, tmp_path):
        _write(tmp_path, "bad.py", WALLCLOCK)
        before = run_analysis([str(tmp_path)])
        # push the finding down two lines; the fingerprint must not move
        _write(tmp_path, "bad.py", "\n\n" + textwrap.dedent(WALLCLOCK))
        after = run_analysis([str(tmp_path)])
        assert before.findings[0].line != after.findings[0].line
        assert sarif.fingerprints(before.findings) == sarif.fingerprints(after.findings)

    def test_duplicate_messages_get_distinct_fingerprints(self, tmp_path):
        _write(
            tmp_path,
            "bad.py",
            """
            import time

            def a():
                return time.perf_counter()

            def b():
                return time.perf_counter()
            """,
        )
        result = run_analysis([str(tmp_path)])
        fps = sarif.fingerprints(result.findings)
        assert len(fps) == len(set(fps)) == 2

    def test_fingerprint_values_are_pinned(self):
        # Code scanning matches results across runs by these values: a
        # change to the hash input re-opens every known finding.
        msg = "wall-clock read `time.time()`"
        findings = [
            Finding("./src/repro/core/devmgr.py", 10, 5, "RPR001", msg, "x"),
            Finding("src/repro/core/devmgr.py", 99, 1, "RPR001", msg, "y"),
        ]
        pinned = ["88f1e3d9f11222f7430b", "cad5cdd95a4819f0be3a"]
        assert sarif.fingerprints(findings) == pinned
        results = to_sarif(findings)["runs"][0]["results"]
        assert [r["partialFingerprints"]["reproLintFingerprint/v1"] for r in results] == pinned


# ---------------------------------------------------------------------------
# tokenize-based suppression scanning
# ---------------------------------------------------------------------------


class TestNoqaScanning:
    def test_noqa_inside_string_literal_is_inert(self):
        src = textwrap.dedent("""
            import time

            SNIPPET = "t = time.time()  # noqa: RPR001"
            t0 = time.perf_counter()
        """)
        assert [f.rule_id for f in lint_source(src, path="fixture.py")] == ["RPR001"]

    def test_noqa_in_string_on_the_finding_line_is_inert(self):
        src = 'import time\nmsg = "# noqa: RPR001"; t0 = time.perf_counter()\n'
        assert [f.rule_id for f in lint_source(src, path="fixture.py")] == ["RPR001"]

    def test_real_comment_still_suppresses(self):
        src = textwrap.dedent("""
            import time
            t0 = time.perf_counter()  # noqa: RPR001 - measuring host wall time
        """)
        assert lint_source(src, path="fixture.py") == []

    def test_pragma_inside_docstring_is_inert(self):
        src = textwrap.dedent('''
            """Docs quoting `# repro-lint: disable=RPR001` must not disable."""
            import time
            t0 = time.perf_counter()
        ''')
        assert [f.rule_id for f in lint_source(src, path="fixture.py")] == ["RPR001"]


class TestStaleSuppressions:
    def test_stale_noqa_reported(self, tmp_path):
        _write(
            tmp_path,
            "a.py",
            """
            def stamp(env):
                return env.now  # noqa: RPR001 - stale justification
            """,
        )
        result = run_analysis([str(tmp_path)])
        stale = stale_suppressions(result)
        assert len(stale) == 1
        path, line, code = stale[0]
        assert path.endswith("a.py") and code == "RPR001"

    def test_live_noqa_not_reported(self, tmp_path):
        _write(
            tmp_path,
            "a.py",
            """
            import time
            t0 = time.perf_counter()  # noqa: RPR001 - measuring host wall time
            """,
        )
        assert stale_suppressions(run_analysis([str(tmp_path)])) == []

    def test_bare_noqa_and_foreign_codes_not_judged(self, tmp_path):
        _write(
            tmp_path,
            "a.py",
            """
            x = 1  # noqa
            y = 2  # noqa: BLE001
            """,
        )
        assert stale_suppressions(run_analysis([str(tmp_path)])) == []

    def test_stale_pragma_reported(self, tmp_path):
        _write(
            tmp_path,
            "a.py",
            """
            # repro-lint: disable=RPR004 - nothing here touches raw CAS
            def stamp(env):
                return env.now
            """,
        )
        stale = stale_suppressions(run_analysis([str(tmp_path)]))
        assert [code for _, _, code in stale] == ["RPR004"]


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestCli:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        _write(tmp_path, "a.py", CLEAN)
        assert main([str(tmp_path)]) == 0

    def test_findings_exit_one(self, tmp_path, capsys):
        _write(tmp_path, "a.py", WALLCLOCK)
        assert main([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "RPR001" in out and "1 finding(s)" in out

    def test_parse_error_exits_one(self, tmp_path, capsys):
        _write(tmp_path, "a.py", "def broken(:\n")
        assert main([str(tmp_path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_sarif_output_file(self, tmp_path, capsys):
        _write(tmp_path, "a.py", WALLCLOCK)
        out = tmp_path / "report.sarif"
        assert main([str(tmp_path), "--format", "sarif",
                     "--output", str(out)]) == 1
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["version"] == "2.1.0"
        assert len(doc["runs"][0]["results"]) == 1

    def test_check_suppressions_exit_codes(self, tmp_path, capsys):
        _write(tmp_path, "a.py", "x = 1  # noqa: RPR001 - stale\n")
        assert main([str(tmp_path), "--check-suppressions"]) == 1
        _write(tmp_path, "a.py", "x = 1\n")
        assert main([str(tmp_path), "--check-suppressions"]) == 0

    def test_check_suppressions_parse_error_exits_one(self, tmp_path, capsys):
        # An unparsable file's suppressions cannot be judged, so the
        # suppression gate fails on it just as the plain gate does.
        _write(tmp_path, "a.py", "def broken(:\n")
        assert main([str(tmp_path), "--check-suppressions"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_removed_options_are_rejected(self, tmp_path, capsys):
        _write(tmp_path, "a.py", CLEAN)
        for option in ("--no-cache", "--baseline=b.json", "--fix", "--list-rules"):
            with pytest.raises(SystemExit) as exc:
                main([str(tmp_path), option])
            assert exc.value.code == 2


# ---------------------------------------------------------------------------
# generated docs
# ---------------------------------------------------------------------------


class TestRulesDoc:
    def test_rules_md_matches_catalogue(self):
        # docs/rules.md is `--explain-rules` output (print adds the
        # trailing newline); regenerate it whenever a rule's text moves.
        doc = Path(__file__).resolve().parents[2] / "docs" / "rules.md"
        assert doc.read_text(encoding="utf-8") == explain_rules() + "\n"
