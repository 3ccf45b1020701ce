"""Framework behavior: registry, suppressions, findings, exemptions."""

import ast

import pytest

from repro.devtools.core import (
    Finding,
    ProjectRule,
    Rule,
    all_project_rules,
    all_rules,
    expand_statement_suppressions,
    get_rule,
    parse_suppressions,
    register,
    register_project,
)

from tests.devtools.source_audit import audit_source

EXPECTED_RULES = {"DET001", "DET002", "UNIT001", "UNIT002", "SIM001",
                  "EXC001"}


class TestRegistry:
    def test_all_expected_rules_registered(self):
        assert EXPECTED_RULES <= {rule.rule_id for rule in all_rules()}

    def test_project_rules_in_separate_registry(self):
        file_ids = {rule.rule_id for rule in all_rules()}
        project_ids = {rule.rule_id for rule in all_project_rules()}
        assert "FLOW001" in project_ids
        assert not file_ids & project_ids

    def test_get_rule_finds_project_rules(self):
        assert get_rule("FLOW001").rule_id == "FLOW001"
        assert isinstance(get_rule("FLOW001"), ProjectRule)

    def test_register_project_rejects_file_rule_id(self):
        class Clash(ProjectRule):
            rule_id = "UNIT001"

        with pytest.raises(ValueError):
            register_project(Clash)

    def test_all_rules_sorted_by_id(self):
        ids = [rule.rule_id for rule in all_rules()]
        assert ids == sorted(ids)

    def test_get_rule_by_id(self):
        assert get_rule("UNIT001").rule_id == "UNIT001"

    def test_get_rule_unknown_raises(self):
        with pytest.raises(KeyError):
            get_rule("NOPE999")

    def test_register_requires_rule_id(self):
        class Anonymous(Rule):
            pass

        with pytest.raises(ValueError):
            register(Anonymous)

    def test_register_rejects_duplicate_id(self):
        class Duplicate(Rule):
            rule_id = "UNIT001"

        with pytest.raises(ValueError):
            register(Duplicate)

    def test_every_rule_has_a_summary(self):
        for rule in all_rules():
            assert rule.summary, f"{rule.rule_id} has no summary"


class TestSuppressions:
    def test_plain_line_not_suppressed(self):
        assert parse_suppressions("x = 1\n") == {}

    def test_bare_noqa_suppresses_all(self):
        supp = parse_suppressions("x = delta * 1e3  # repro: noqa\n")
        assert supp == {1: {"*"}}

    def test_noqa_with_single_rule(self):
        supp = parse_suppressions("x = delta * 1e3  # repro: noqa[UNIT001]\n")
        assert supp == {1: {"UNIT001"}}

    def test_noqa_with_rule_list(self):
        supp = parse_suppressions(
            "bad()  # repro: noqa[UNIT001, DET001]\n")
        assert supp == {1: {"UNIT001", "DET001"}}

    def test_suppressed_finding_dropped(self):
        dirty = "x = delta * 1e3\n"
        clean = "x = delta * 1e3  # repro: noqa[UNIT001]\n"
        assert audit_source(dirty, path="m.py")
        assert audit_source(clean, path="m.py") == []

    def test_wrong_rule_id_does_not_suppress(self):
        src = "x = delta * 1e3  # repro: noqa[DET001]\n"
        findings = audit_source(src, path="m.py")
        assert [f.rule for f in findings] == ["UNIT001"]

    def test_suppression_only_covers_its_line(self):
        src = ("a = delta * 1e3  # repro: noqa[UNIT001]\n"
               "b = delta * 1e3\n")
        findings = audit_source(src, path="m.py")
        assert [(f.rule, f.line) for f in findings] == [("UNIT001", 2)]


class TestMultilineSuppressions:
    """A noqa on any physical line of a multi-line simple statement
    suppresses findings anywhere in that statement — in particular a
    comment on the closing line covers findings anchored at the first."""

    def test_noqa_on_closing_line_suppresses(self):
        src = ("import random\n"
               "x = random.random(\n"
               ")  # repro: noqa[DET001]\n")
        assert audit_source(src, path="m.py") == []

    def test_noqa_on_first_line_still_works(self):
        src = ("import random\n"
               "x = random.random(  # repro: noqa[DET001]\n"
               ")\n")
        assert audit_source(src, path="m.py") == []

    def test_wrong_rule_on_closing_line_does_not_suppress(self):
        src = ("import random\n"
               "x = random.random(\n"
               ")  # repro: noqa[UNIT001]\n")
        findings = audit_source(src, path="m.py")
        assert [f.rule for f in findings] == ["DET001"]

    def test_finding_mid_statement_suppressed_from_closing_line(self):
        src = ("value = compute(\n"
               "    delta * 1e3,\n"
               ")  # repro: noqa[UNIT001]\n")
        assert audit_source(src, path="m.py") == []

    def test_noqa_inside_compound_body_does_not_bleed_to_header(self):
        # DET002 anchors on the set expression in the ``for`` header; a
        # noqa inside the loop body must not reach it.
        src = ("for item in set([1, 2]):\n"
               "    pass  # repro: noqa[DET002]\n")
        findings = audit_source(src, path="m.py")
        assert [f.rule for f in findings] == ["DET002"]

    def test_adjacent_statements_unaffected(self):
        src = ("a = delta * 1e3\n"
               "b = compute(\n"
               "    delta * 1e3,\n"
               ")  # repro: noqa[UNIT001]\n")
        findings = audit_source(src, path="m.py")
        assert [(f.rule, f.line) for f in findings] == [("UNIT001", 1)]

    def test_expand_helper_maps_all_statement_lines(self):
        tree = ast.parse("x = f(\n    1,\n    2,\n)\n")
        expanded = expand_statement_suppressions(tree, {4: {"UNIT001"}})
        assert expanded == {1: {"UNIT001"}, 2: {"UNIT001"},
                            3: {"UNIT001"}, 4: {"UNIT001"}}

    def test_expand_helper_noop_without_suppressions(self):
        tree = ast.parse("x = f(\n    1,\n)\n")
        assert expand_statement_suppressions(tree, {}) == {}


class TestFinding:
    def test_format_is_compiler_style(self):
        finding = Finding(rule="UNIT001", path="src/m.py", line=3, col=7,
                          message="boom")
        assert finding.format() == "src/m.py:3:7: UNIT001 boom"

    def test_as_dict_keys_are_stable(self):
        finding = Finding(rule="DET001", path="p.py", line=1, col=0,
                          message="m")
        assert finding.as_dict() == {"rule": "DET001", "path": "p.py",
                                     "line": 1, "col": 0, "message": "m"}

    def test_findings_sorted_by_location(self):
        src = ("import random\n"
               "b = delta * 1e3\n"
               "a = random.random()\n")
        findings = audit_source(src, path="m.py")
        assert [f.line for f in findings] == sorted(f.line for f in findings)


class TestExemptions:
    def test_units_py_exempt_from_unit001(self):
        src = "def ms(value):\n    return value * 1e-3\n"
        assert audit_source(src, path="src/repro/units.py") == []
        assert audit_source(src, path="src/repro/other.py")

    def test_sim_random_exempt_from_det001(self):
        src = ("import numpy as np\n"
               "gen = np.random.default_rng(0)\n")
        assert audit_source(src, path="src/repro/sim/random.py") == []
        assert audit_source(src, path="src/repro/netdyn/source.py")
