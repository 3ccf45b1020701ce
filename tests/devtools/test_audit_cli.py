"""The repro-audit command: exit codes, reports, JSON contract."""

import json
import subprocess
import sys

import pytest

from repro.cli import main_audit
from repro.devtools.audit import (
    PARSE_RULE_ID,
    audit_paths,
    iter_python_files,
    main,
)
from repro.devtools.core import Finding
from repro.devtools.reporters import render_github

CLEAN = "from repro.units import ms\n\ndelta = ms(50.0)\n"

VIOLATING = ("import random\n"
             "\n"
             "def jitter(delta):\n"
             "    return delta * 1e3 + random.random()\n")


@pytest.fixture
def clean_tree(tmp_path):
    (tmp_path / "good.py").write_text(CLEAN)
    return tmp_path


@pytest.fixture
def dirty_tree(tmp_path):
    (tmp_path / "good.py").write_text(CLEAN)
    (tmp_path / "bad.py").write_text(VIOLATING)
    return tmp_path


class TestExitCodes:
    def test_clean_tree_exits_zero(self, clean_tree, capsys):
        assert main([str(clean_tree)]) == 0
        assert "0 findings" in capsys.readouterr().out

    def test_violations_exit_nonzero(self, dirty_tree, capsys):
        assert main([str(dirty_tree)]) == 1
        out = capsys.readouterr().out
        assert "bad.py:4" in out  # file:line diagnostics
        assert "DET001" in out and "UNIT001" in out

    def test_missing_path_exits_two(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope")]) == 2
        assert "repro-audit" in capsys.readouterr().err

    def test_unknown_rule_exits_two(self, clean_tree, capsys):
        assert main(["--select", "BOGUS1", str(clean_tree)]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_reintroduced_violation_is_caught(self, clean_tree, capsys):
        assert main([str(clean_tree)]) == 0
        (clean_tree / "regress.py").write_text("bits = size * 8\n")
        assert main([str(clean_tree)]) == 1
        assert "regress.py:1" in capsys.readouterr().out


class TestJsonFormat:
    def test_json_findings_schema(self, dirty_tree, capsys):
        assert main(["--format", "json", str(dirty_tree)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == len(payload["findings"]) > 0
        assert payload["files_checked"] == 2
        for finding in payload["findings"]:
            assert set(finding) == {"rule", "path", "line", "col", "message"}
            assert isinstance(finding["line"], int)

    def test_json_clean_tree(self, clean_tree, capsys):
        assert main(["--format", "json", str(clean_tree)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"count": 0, "files_checked": 1, "findings": []}


class TestOptions:
    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("DET001", "DET002", "UNIT001", "UNIT002", "SIM001",
                        "EXC001"):
            assert rule_id in out

    def test_select_limits_rules(self, dirty_tree, capsys):
        assert main(["--select", "DET001", str(dirty_tree)]) == 1
        out = capsys.readouterr().out
        assert "DET001" in out and "UNIT001" not in out

    def test_single_file_argument(self, dirty_tree):
        assert main([str(dirty_tree / "good.py")]) == 0
        assert main([str(dirty_tree / "bad.py")]) == 1

    def test_syntax_error_reported_as_parse_finding(self, tmp_path):
        (tmp_path / "broken.py").write_text("def broken(:\n")
        findings, checked = audit_paths([str(tmp_path)])
        assert checked == 1
        assert [f.rule for f in findings] == [PARSE_RULE_ID]


class TestOverlappingPaths:
    def test_overlapping_directories_dedupe(self, dirty_tree):
        sub = dirty_tree / "sub"
        sub.mkdir()
        (sub / "nested.py").write_text(VIOLATING)
        once, checked_once = audit_paths([str(dirty_tree)])
        twice, checked_twice = audit_paths([str(dirty_tree), str(sub)])
        assert checked_once == checked_twice == 3
        assert [f.sort_key() for f in once] == [f.sort_key() for f in twice]

    def test_same_file_spelled_twice_dedupes(self, dirty_tree):
        bad = dirty_tree / "bad.py"
        files = iter_python_files([str(bad), str(bad), bad.as_posix()])
        assert len(files) == 1

    def test_dot_spelling_dedupes(self, dirty_tree):
        dotted = str(dirty_tree / "." / "bad.py")
        files = iter_python_files([str(dirty_tree / "bad.py"), dotted])
        assert len(files) == 1

    def test_result_is_sorted(self, dirty_tree):
        files = iter_python_files([str(dirty_tree)])
        assert files == sorted(files)


class TestGithubFormat:
    def test_annotations_emitted(self, dirty_tree, capsys):
        assert main(["--format", "github", str(dirty_tree)]) == 1
        out = capsys.readouterr().out
        lines = [ln for ln in out.splitlines() if ln.startswith("::error ")]
        assert lines, out
        assert any("file=" in ln and ",line=4," in ln
                   and "title=DET001" in ln for ln in lines)

    def test_columns_are_one_based(self, tmp_path, capsys):
        (tmp_path / "m.py").write_text("bits = size * 8\n")
        assert main(["--format", "github", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        # The UNIT001 finding anchors at col 0 in AST terms -> col=8 is
        # 0-based 7 ("size * 8"); whatever the anchor, col must be >= 1.
        for line in out.splitlines():
            if line.startswith("::error "):
                col = int(line.split(",col=")[1].split(",")[0])
                assert col >= 1

    def test_clean_tree_has_no_annotations(self, clean_tree, capsys):
        assert main(["--format", "github", str(clean_tree)]) == 0
        out = capsys.readouterr().out
        assert "::error" not in out
        assert "0 findings" in out

    def test_message_and_property_escaping(self):
        finding = Finding(rule="DET001", path="dir,x/a.py", line=2, col=0,
                          message="bad%stuff\nline two")
        rendered = render_github([finding], files_checked=1)
        annotation = rendered.splitlines()[0]
        assert annotation.startswith("::error file=dir%2Cx/a.py,line=2,")
        assert "bad%25stuff%0Aline two" in annotation
        assert "\n" not in annotation


class TestProjectRulesInCli:
    def test_select_project_rule_only(self, tmp_path, capsys):
        pkg = tmp_path / "repro" / "sim"
        pkg.mkdir(parents=True)
        (tmp_path / "repro" / "__init__.py").write_text("")
        (pkg / "__init__.py").write_text("")
        (pkg / "kernel.py").write_text(
            "import random\n"
            "class Simulator:\n"
            "    def run(self):\n"
            "        return random.random()\n")
        assert main(["--select", "FLOW001", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "FLOW001" in out
        # Per-file DET001 was not selected, so it must not appear.
        assert "DET001" not in out

    def test_project_findings_respect_noqa(self, tmp_path):
        pkg = tmp_path / "repro" / "sim"
        pkg.mkdir(parents=True)
        (tmp_path / "repro" / "__init__.py").write_text("")
        (pkg / "__init__.py").write_text("")
        (pkg / "kernel.py").write_text(
            "import random\n"
            "class Simulator:\n"
            "    def run(self):\n"
            "        return random.random()  # repro: noqa[FLOW001]\n")
        assert main(["--select", "FLOW001", str(tmp_path)]) == 0

    def test_list_rules_shows_both_registries(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "FLOW001" in out and "UNIT003" in out and "DET001" in out


class TestEntryPoints:
    def test_cli_wrapper_delegates(self, dirty_tree):
        assert main_audit([str(dirty_tree)]) == 1

    def test_python_dash_m_execution(self, dirty_tree):
        result = subprocess.run(
            [sys.executable, "-m", "repro.devtools.audit", str(dirty_tree)],
            capture_output=True, text=True)
        assert result.returncode == 1
        assert "DET001" in result.stdout
