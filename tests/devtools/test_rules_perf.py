"""PERF001: no slot-less dataclasses in the sim/net hot-path packages."""

from repro.devtools.core import get_rule

from tests.devtools.source_audit import audit_source


def findings(source, path="src/repro/sim/events.py"):
    return audit_source(source, path=path, rules=[get_rule("PERF001")])


DATACLASS = (
    "from dataclasses import dataclass\n"
    "@dataclass\n"
    "class Record:\n"
    "    x: int = 0\n")


class TestPerf001:
    def test_bare_dataclass_flagged(self):
        result = findings(DATACLASS)
        assert len(result) == 1
        assert result[0].rule == "PERF001"
        assert "Record" in result[0].message

    def test_dataclass_call_form_flagged(self):
        source = DATACLASS.replace("@dataclass", "@dataclass(order=True)")
        assert len(findings(source)) == 1

    def test_dotted_decorator_flagged(self):
        source = ("import dataclasses\n"
                  "@dataclasses.dataclass\n"
                  "class Record:\n"
                  "    x: int = 0\n")
        assert len(findings(source)) == 1

    def test_net_package_covered(self):
        assert len(findings(DATACLASS,
                            path="src/repro/net/transport.py")) == 1

    def test_slots_true_clean(self):
        source = DATACLASS.replace("@dataclass", "@dataclass(slots=True)")
        assert findings(source) == []

    def test_explicit_slots_clean(self):
        source = (DATACLASS.replace("    x: int = 0\n",
                                    "    __slots__ = ('x',)\n"))
        assert findings(source) == []

    def test_plain_slots_class_clean(self):
        source = ("class Event:\n"
                  "    __slots__ = ('time',)\n")
        assert findings(source) == []

    def test_other_packages_out_of_scope(self):
        assert findings(DATACLASS,
                        path="src/repro/experiments/config.py") == []
        assert findings(DATACLASS, path="src/repro/obs/tracer.py") == []

    def test_other_decorators_ignored(self):
        source = ("@register\n"
                  "class Rule:\n"
                  "    x = 1\n")
        assert findings(source) == []

    def test_noqa_suppression(self):
        # Findings anchor to the ``class`` line, so that is where the
        # suppression comment goes.
        source = ("from dataclasses import dataclass\n"
                  "@dataclass\n"
                  "class Record:  # repro: noqa[PERF001]\n"
                  "    x: int = 0\n")
        assert findings(source) == []

    def test_registered_in_default_rule_set(self):
        result = audit_source(DATACLASS, path="src/repro/sim/kernel.py")
        assert any(f.rule == "PERF001" for f in result)
