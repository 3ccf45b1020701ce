"""OBS001: no print() in library code.  OBS002: kernel telemetry ban."""

from pathlib import Path

import pytest

import repro
from repro.devtools.core import all_project_rules, get_rule

from tests.devtools.source_audit import audit_source
from tests.devtools.test_rules_flow import project_from, run_rule
from tests.devtools.test_symbols import load_project

#: Minimal telemetry stubs so banned targets resolve as project modules.
TELEMETRY_STUBS = {
    "repro/obs/__init__.py": "",
    "repro/obs/spans.py": ("class SpanTracer:\n"
                           "    pass\n"),
    "repro/obs/progress.py": ("class ProgressReporter:\n"
                              "    pass\n"),
    "repro/obs/bench.py": ("def build_report(suite, metrics):\n"
                           "    return {}\n"),
}


def findings(source, path="src/repro/net/link.py"):
    return audit_source(source, path=path, rules=[get_rule("OBS001")])


class TestObs001:
    def test_print_flagged(self):
        result = findings("print('debug')\n")
        assert len(result) == 1
        assert result[0].rule == "OBS001"
        assert "print()" in result[0].message

    def test_print_in_function_flagged(self):
        result = findings("def f():\n    print(1, 2)\n")
        assert [f.line for f in result] == [2]

    def test_non_print_calls_clean(self):
        assert findings("import logging\nlogging.warning('x')\n") == []

    def test_shadowed_attribute_print_not_flagged(self):
        # console.print(...) is not the builtin.
        assert findings("console.print('rich output')\n") == []

    def test_docstring_mentioning_print_clean(self):
        assert findings('"""Use print() sparingly."""\n') == []

    def test_cli_exempt(self):
        assert findings("print('usage: ...')\n",
                        path="src/repro/cli.py") == []

    def test_audit_reporter_exempt(self):
        assert findings("print('finding')\n",
                        path="src/repro/devtools/audit.py") == []

    def test_plotting_package_exempt(self):
        assert findings("print('ascii art')\n",
                        path="src/repro/plotting/render.py") == []

    def test_noqa_suppression(self):
        assert findings("print('x')  # repro: noqa[OBS001]\n") == []

    def test_registered_in_default_rule_set(self):
        result = audit_source("print('oops')\n",
                              path="src/repro/net/queue.py")
        assert any(f.rule == "OBS001" for f in result)


def telemetry_project(tmp_path, files):
    merged = dict(TELEMETRY_STUBS)
    merged.update(files)
    return project_from(tmp_path, merged)


class TestObs002:
    def test_registered_as_project_rule(self):
        ids = {rule.rule_id for rule in all_project_rules()}
        assert "OBS002" in ids

    def test_spans_import_in_kernel_flagged(self, tmp_path):
        project = telemetry_project(tmp_path, {
            "repro/sim/kernel.py": (
                "from repro.obs.spans import SpanTracer\n"
                "class Simulator:\n"
                "    def run(self):\n"
                "        return SpanTracer()\n"),
        })
        findings = run_rule("OBS002", project)
        assert len(findings) == 1
        assert findings[0].path.endswith("repro/sim/kernel.py")
        assert "repro.obs.spans" in findings[0].message

    def test_import_without_call_still_flagged(self, tmp_path):
        # The *import* is the violation: telemetry in scope on the hot
        # path is one refactor away from being consulted.
        project = telemetry_project(tmp_path, {
            "repro/sim/kernel.py": (
                "import repro.obs.progress\n"
                "class Simulator:\n"
                "    def run(self):\n"
                "        return 1\n"),
        })
        findings = run_rule("OBS002", project)
        assert len(findings) == 1
        assert "repro.obs.progress" in findings[0].message

    def test_reachable_helper_module_flagged(self, tmp_path):
        project = telemetry_project(tmp_path, {
            "repro/sim/kernel.py": (
                "from repro.sim.tick import advance\n"
                "class Simulator:\n"
                "    def run(self):\n"
                "        return advance()\n"),
            "repro/sim/tick.py": (
                "from repro.obs.bench import build_report\n"
                "def advance():\n"
                "    return 0\n"),
        })
        findings = run_rule("OBS002", project)
        assert len(findings) == 1
        assert findings[0].path.endswith("repro/sim/tick.py")
        assert "repro.obs.bench" in findings[0].message

    def test_message_carries_provenance_chain(self, tmp_path):
        project = telemetry_project(tmp_path, {
            "repro/sim/kernel.py": (
                "from repro.sim.tick import advance\n"
                "class Simulator:\n"
                "    def run(self):\n"
                "        return advance()\n"),
            "repro/sim/tick.py": (
                "from repro.obs.spans import SpanTracer\n"
                "def advance():\n"
                "    return SpanTracer()\n"),
        })
        message = run_rule("OBS002", project)[0].message
        assert "repro.sim.kernel.Simulator.run" in message
        assert "repro.sim.tick.advance" in message

    def test_campaign_worker_may_emit_spans(self, tmp_path):
        # _run_cell wraps the simulation in spans by design; only the
        # Simulator.run call graph is off-limits.
        project = telemetry_project(tmp_path, {
            "repro/sim/kernel.py": (
                "class Simulator:\n"
                "    def run(self):\n"
                "        return 1\n"),
            "repro/experiments/__init__.py": "",
            "repro/experiments/campaign.py": (
                "from repro.obs.spans import SpanTracer\n"
                "from repro.sim.kernel import Simulator\n"
                "def _run_cell(spec):\n"
                "    tracer = SpanTracer()\n"
                "    return Simulator().run()\n"),
        })
        assert run_rule("OBS002", project) == []

    def test_unreachable_module_not_flagged(self, tmp_path):
        project = telemetry_project(tmp_path, {
            "repro/sim/kernel.py": (
                "class Simulator:\n"
                "    def run(self):\n"
                "        return 1\n"),
            "repro/report.py": (
                "from repro.obs.bench import build_report\n"
                "def render():\n"
                "    return build_report('x', {})\n"),
        })
        assert run_rule("OBS002", project) == []

    @pytest.mark.parametrize("statement", [
        "from repro.obs.spans import SpanTracer",
        "from ..obs.spans import SpanTracer",
        "from ..obs import spans",
    ])
    def test_import_in_reached_package_init_flagged(self, tmp_path,
                                                     statement):
        # In a package __init__ a level-1 relative import names the
        # package itself, so ``..`` is its parent: ``repro``.
        project = telemetry_project(tmp_path, {
            "repro/sim/__init__.py": (
                f"{statement}\n"
                "def advance():\n"
                "    return 0\n"),
            "repro/sim/kernel.py": (
                "from repro.sim import advance\n"
                "class Simulator:\n"
                "    def run(self):\n"
                "        return advance()\n"),
        })
        findings = run_rule("OBS002", project)
        assert len(findings) == 1
        assert findings[0].path.endswith("repro/sim/__init__.py")
        assert "repro.obs.spans" in findings[0].message

    def test_non_telemetry_obs_import_ok(self, tmp_path):
        # The registry/tracer side of repro.obs stays allowed; only the
        # campaign telemetry trio is banned.
        project = telemetry_project(tmp_path, {
            "repro/obs/registry.py": ("class MetricsRegistry:\n"
                                      "    pass\n"),
            "repro/sim/kernel.py": (
                "from repro.obs.registry import MetricsRegistry\n"
                "class Simulator:\n"
                "    def run(self):\n"
                "        return MetricsRegistry()\n"),
        })
        assert run_rule("OBS002", project) == []

    def test_pool_import_in_kernel_flagged(self, tmp_path):
        # The warm-pool dispatcher is orchestration plumbing: the kernel
        # computes results, it never leases or ships them.
        project = telemetry_project(tmp_path, {
            "repro/experiments/__init__.py": "",
            "repro/experiments/pool.py": ("class WarmWorkerPool:\n"
                                          "    pass\n"),
            "repro/sim/kernel.py": (
                "from repro.experiments.pool import WarmWorkerPool\n"
                "class Simulator:\n"
                "    def run(self):\n"
                "        return WarmWorkerPool()\n"),
        })
        findings = run_rule("OBS002", project)
        assert len(findings) == 1
        assert "repro.experiments.pool" in findings[0].message

    def test_campaign_may_import_pool(self, tmp_path):
        # Outside the Simulator.run closure the dispatcher is fair game
        # — that is where it is supposed to live.
        project = telemetry_project(tmp_path, {
            "repro/sim/kernel.py": (
                "class Simulator:\n"
                "    def run(self):\n"
                "        return 1\n"),
            "repro/experiments/__init__.py": "",
            "repro/experiments/pool.py": ("class WarmWorkerPool:\n"
                                          "    pass\n"),
            "repro/experiments/campaign.py": (
                "from repro.experiments.pool import WarmWorkerPool\n"
                "from repro.sim.kernel import Simulator\n"
                "def run_campaign(spec):\n"
                "    pool = WarmWorkerPool()\n"
                "    return Simulator().run()\n"),
        })
        assert run_rule("OBS002", project) == []

    def test_real_tree_is_clean(self):
        project = load_project(Path(repro.__file__).parent)
        assert run_rule("OBS002", project) == []
