"""Whole-program rules: FLOW001, FLOW002, UNIT003.

Fixtures build miniature ``repro`` packages on disk so the fixed kernel
roots (``repro.sim.kernel.Simulator.run``,
``repro.experiments.campaign._run_cell``) resolve exactly as they do on
the real tree.
"""

from repro.devtools.core import all_project_rules, get_rule

from tests.devtools.test_symbols import build_tree, load_project

KERNEL_SKELETON = {
    "repro/__init__.py": "",
    "repro/sim/__init__.py": "",
    "repro/units.py": ("def ms(value):\n"
                       "    return value * 1e-3\n"
                       "def seconds_to_ms(value):\n"
                       "    return value * 1e3\n"
                       "def bps_to_kbps(value):\n"
                       "    return value / 1e3\n"),
}


def project_from(tmp_path, files):
    merged = dict(KERNEL_SKELETON)
    merged.update(files)
    build_tree(tmp_path, merged)
    return load_project(tmp_path / "repro")


def run_rule(rule_id, project):
    rule = get_rule(rule_id)
    return sorted((f for f in rule.check_project(project)
                   if rule.applies_to(f.path)),
                  key=lambda f: f.sort_key())


class TestRegistry:
    def test_flow_rules_registered(self):
        ids = {rule.rule_id for rule in all_project_rules()}
        assert {"FLOW001", "FLOW002", "UNIT003"} <= ids

    def test_project_rules_have_summaries(self):
        for rule in all_project_rules():
            assert rule.summary, f"{rule.rule_id} has no summary"


class TestFlow001:
    def test_entropy_reachable_from_kernel_flagged(self, tmp_path):
        project = project_from(tmp_path, {
            "repro/sim/kernel.py": (
                "from repro.sim.jitter import wobble\n"
                "class Simulator:\n"
                "    def run(self):\n"
                "        return wobble()\n"),
            "repro/sim/jitter.py": (
                "import random\n"
                "def wobble():\n"
                "    return random.random()\n"),
        })
        findings = run_rule("FLOW001", project)
        assert len(findings) == 1
        assert findings[0].path.endswith("repro/sim/jitter.py")
        assert "random.random" in findings[0].message

    def test_message_carries_provenance_chain(self, tmp_path):
        project = project_from(tmp_path, {
            "repro/sim/kernel.py": (
                "from repro.sim.jitter import wobble\n"
                "class Simulator:\n"
                "    def run(self):\n"
                "        return wobble()\n"),
            "repro/sim/jitter.py": (
                "import random\n"
                "def wobble():\n"
                "    return random.random()\n"),
        })
        message = run_rule("FLOW001", project)[0].message
        assert "repro.sim.kernel.Simulator.run" in message
        assert "repro.sim.jitter.wobble" in message

    def test_unreachable_entropy_not_flagged(self, tmp_path):
        project = project_from(tmp_path, {
            "repro/sim/kernel.py": (
                "class Simulator:\n"
                "    def run(self):\n"
                "        return 1\n"),
            "repro/live.py": (
                "import time\n"
                "def measure():\n"
                "    return time.monotonic()\n"),
        })
        assert run_rule("FLOW001", project) == []

    def test_monotonic_banned_when_reachable(self, tmp_path):
        # Legitimate for live measurement, banned on the simulated path —
        # this is exactly what per-file DET001 cannot see.
        project = project_from(tmp_path, {
            "repro/sim/kernel.py": (
                "import time\n"
                "class Simulator:\n"
                "    def run(self):\n"
                "        return time.monotonic()\n"),
        })
        findings = run_rule("FLOW001", project)
        assert [f.rule for f in findings] == ["FLOW001"]
        assert "time.monotonic" in findings[0].message

    def test_sim_random_module_exempt(self, tmp_path):
        project = project_from(tmp_path, {
            "repro/sim/kernel.py": (
                "from repro.sim.random import draw\n"
                "class Simulator:\n"
                "    def run(self):\n"
                "        return draw()\n"),
            "repro/sim/random.py": (
                "import numpy as np\n"
                "def draw():\n"
                "    return np.random.default_rng(0)\n"),
        })
        assert run_rule("FLOW001", project) == []

    def test_worker_root_also_checked(self, tmp_path):
        project = project_from(tmp_path, {
            "repro/experiments/__init__.py": "",
            "repro/experiments/campaign.py": (
                "import random\n"
                "def _run_cell(spec):\n"
                "    return random.random()\n"),
        })
        findings = run_rule("FLOW001", project)
        assert len(findings) == 1
        assert "repro.experiments.campaign._run_cell" in findings[0].message


class TestFlow002:
    def test_environ_read_flagged(self, tmp_path):
        project = project_from(tmp_path, {
            "repro/sim/kernel.py": (
                "import os\n"
                "class Simulator:\n"
                "    def run(self):\n"
                "        return os.environ.get('FAST', '')\n"),
        })
        findings = run_rule("FLOW002", project)
        assert len(findings) == 1
        assert "os.environ" in findings[0].message

    def test_globals_call_flagged(self, tmp_path):
        project = project_from(tmp_path, {
            "repro/sim/kernel.py": (
                "class Simulator:\n"
                "    def run(self):\n"
                "        return globals()\n"),
        })
        findings = run_rule("FLOW002", project)
        assert len(findings) == 1
        assert "globals()" in findings[0].message

    def test_unreachable_environ_not_flagged(self, tmp_path):
        project = project_from(tmp_path, {
            "repro/sim/kernel.py": (
                "class Simulator:\n"
                "    def run(self):\n"
                "        return 1\n"),
            "repro/cli_helpers.py": (
                "import os\n"
                "def cache_dir():\n"
                "    return os.environ.get('CACHE', '')\n"),
        })
        assert run_rule("FLOW002", project) == []


class TestUnit003:
    def test_display_value_into_computation_flagged(self, tmp_path):
        project = project_from(tmp_path, {
            "repro/sim/kernel.py": (
                "from repro.units import seconds_to_ms\n"
                "def compute(delay):\n"
                "    return delay * 2\n"
                "def entry(d):\n"
                "    return compute(seconds_to_ms(d))\n"),
        })
        findings = run_rule("UNIT003", project)
        assert len(findings) == 1
        assert "ms" in findings[0].message
        assert "repro.sim.kernel.compute" in findings[0].message

    def test_matching_inverse_converter_ok(self, tmp_path):
        project = project_from(tmp_path, {
            "repro/sim/kernel.py": (
                "from repro.units import ms, seconds_to_ms\n"
                "def entry(d):\n"
                "    return ms(seconds_to_ms(d))\n"),
        })
        assert run_rule("UNIT003", project) == []

    def test_display_module_sink_ok(self, tmp_path):
        project = project_from(tmp_path, {
            "repro/plotting/__init__.py": "",
            "repro/plotting/axes.py": (
                "def label(value):\n"
                "    return f'{value} ms'\n"),
            "repro/sim/kernel.py": (
                "from repro.plotting.axes import label\n"
                "from repro.units import seconds_to_ms\n"
                "def entry(d):\n"
                "    return label(seconds_to_ms(d))\n"),
        })
        assert run_rule("UNIT003", project) == []

    def test_display_module_caller_ok(self, tmp_path):
        project = project_from(tmp_path, {
            "repro/plotting/__init__.py": "",
            "repro/plotting/axes.py": (
                "from repro.units import seconds_to_ms\n"
                "def fmt(value):\n"
                "    return value\n"
                "def label(d):\n"
                "    return fmt(seconds_to_ms(d))\n"),
        })
        assert run_rule("UNIT003", project) == []

    def test_wrapper_return_tag_propagates(self, tmp_path):
        project = project_from(tmp_path, {
            "repro/sim/kernel.py": (
                "from repro.units import seconds_to_ms\n"
                "def delay_ms(d):\n"
                "    return seconds_to_ms(d)\n"
                "def compute(delay):\n"
                "    return delay * 2\n"
                "def entry(d):\n"
                "    return compute(delay_ms(d))\n"),
        })
        findings = run_rule("UNIT003", project)
        assert len(findings) == 1
        assert "repro.sim.kernel.delay_ms" in findings[0].message

    def test_external_callee_not_flagged(self, tmp_path):
        project = project_from(tmp_path, {
            "repro/sim/kernel.py": (
                "import math\n"
                "from repro.units import seconds_to_ms\n"
                "def entry(d):\n"
                "    return math.floor(seconds_to_ms(d))\n"),
        })
        assert run_rule("UNIT003", project) == []

    def test_rate_converters_tracked_too(self, tmp_path):
        project = project_from(tmp_path, {
            "repro/sim/kernel.py": (
                "from repro.units import bps_to_kbps\n"
                "def compute(rate):\n"
                "    return rate * 2\n"
                "def entry(r):\n"
                "    return compute(bps_to_kbps(r))\n"),
        })
        findings = run_rule("UNIT003", project)
        assert len(findings) == 1
        assert "kb/s" in findings[0].message
