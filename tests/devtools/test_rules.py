"""Each rule: at least one violating snippet and one clean snippet."""

import textwrap

from repro.devtools.core import get_rule

from tests.devtools.source_audit import audit_source


def rules_hit(source: str, path: str = "src/repro/example.py") -> set:
    """Rule ids found in ``source`` (dedented for inline fixtures)."""
    findings = audit_source(textwrap.dedent(source), path=path)
    return {finding.rule for finding in findings}


class TestDET001EntropySources:
    def test_wall_clock_time_flagged(self):
        assert "DET001" in rules_hit("""\
            import time
            start = time.time()
        """)

    def test_datetime_now_flagged(self):
        assert "DET001" in rules_hit("""\
            from datetime import datetime
            stamp = datetime.now()
        """)

    def test_module_random_flagged(self):
        assert "DET001" in rules_hit("""\
            import random
            value = random.uniform(0.0, 1.0)
        """)

    def test_from_random_import_flagged(self):
        assert "DET001" in rules_hit("""\
            from random import choice
            pick = choice([1, 2, 3])
        """)

    def test_numpy_random_flagged_through_alias(self):
        assert "DET001" in rules_hit("""\
            import numpy as np
            rng = np.random.default_rng()
        """)

    def test_time_monotonic_allowed_for_live_measurement(self):
        assert "DET001" not in rules_hit("""\
            import time
            elapsed = time.monotonic()
        """)

    def test_seeded_stream_usage_clean(self):
        assert "DET001" not in rules_hit("""\
            def jitter(sim):
                rng = sim.streams.get("traffic.jitter")
                return rng.uniform(0.0, 1.0)
        """)

    def test_local_variable_named_random_not_flagged(self):
        assert "DET001" not in rules_hit("""\
            def draw(random):
                return random.uniform(0.0, 1.0)
        """)

    def test_annotation_without_call_not_flagged(self):
        assert "DET001" not in rules_hit("""\
            import numpy as np

            def sample(rng: np.random.Generator) -> float:
                return rng.exponential(1.0)
        """)


class TestDET002SetIteration:
    def test_for_over_set_call_flagged(self):
        assert "DET002" in rules_hit("""\
            for name in set(names):
                handle(name)
        """)

    def test_for_over_set_literal_flagged(self):
        assert "DET002" in rules_hit("""\
            for port in {5201, 5202, 5000}:
                probe(port)
        """)

    def test_comprehension_over_set_flagged(self):
        assert "DET002" in rules_hit("""\
            rates = [lookup(n) for n in set(nodes)]
        """)

    def test_sorted_set_clean(self):
        assert "DET002" not in rules_hit("""\
            for name in sorted(set(names)):
                handle(name)
        """)

    def test_for_over_list_clean(self):
        assert "DET002" not in rules_hit("""\
            for name in names:
                handle(name)
        """)


class TestUNIT001MagicLiterals:
    def test_ms_conversion_flagged(self):
        assert "UNIT001" in rules_hit("delta = delta_input * 1e-3\n")

    def test_seconds_to_ms_conversion_flagged(self):
        assert "UNIT001" in rules_hit("label = rtt * 1e3\n")

    def test_mega_conversion_flagged(self):
        assert "UNIT001" in rules_hit("rate = rate_input * 1e6\n")

    def test_bytes_to_bits_flagged(self):
        assert "UNIT001" in rules_hit("bits = size_bytes * 8\n")

    def test_bits_to_bytes_flagged(self):
        assert "UNIT001" in rules_hit("size = bits / 8\n")

    def test_division_by_1000_flagged(self):
        assert "UNIT001" in rules_hit("kb = mu / 1e3\n")

    def test_helper_call_clean(self):
        assert "UNIT001" not in rules_hit("""\
            from repro.units import bytes_to_bits, ms
            delta = ms(50.0)
            bits = bytes_to_bits(size_bytes)
        """)

    def test_unrelated_arithmetic_clean(self):
        assert "UNIT001" not in rules_hit("""\
            epsilon = wait + 1e-6
            clamped = min(gap, 1e6)
            doubled = count * 2
        """)


class TestUNIT002UnitSuffixedNames:
    def test_ms_parameter_flagged(self):
        assert "UNIT002" in rules_hit("""\
            def schedule(delay_ms):
                return delay_ms
        """)

    def test_kwonly_kbps_parameter_flagged(self):
        assert "UNIT002" in rules_hit("""\
            def build(*, rate_kbps=128):
                return rate_kbps
        """)

    def test_self_attribute_flagged(self):
        assert "UNIT002" in rules_hit("""\
            class Link:
                def __init__(self, delay):
                    self.prop_delay_ms = delay
        """)

    def test_dataclass_field_flagged(self):
        assert "UNIT002" in rules_hit("""\
            from dataclasses import dataclass

            @dataclass
            class Config:
                timeout_us: float = 0.0
        """)

    def test_si_names_clean(self):
        assert "UNIT002" not in rules_hit("""\
            def build(delta, rate_bps, size_bytes):
                return delta * rate_bps

            class Link:
                def __init__(self, prop_delay):
                    self.prop_delay = prop_delay
        """)

    def test_local_display_variable_allowed(self):
        # Locals are display-formatting territory; only the API surface
        # (parameters/attributes) must stay SI.
        assert "UNIT002" not in rules_hit("""\
            from repro.units import seconds_to_ms

            def label(rtt):
                rtt_ms = seconds_to_ms(rtt)
                return f"{rtt_ms:.1f} ms"
        """)


class TestSIM001KernelPrivateAccess:
    def test_foreign_now_access_flagged(self):
        assert "SIM001" in rules_hit("""\
            def rewind(sim):
                sim.now = 0.0
        """)

    def test_foreign_clock_augmented_store_and_delete_flagged(self):
        assert "SIM001" in rules_hit("""\
            def skip(sim, seconds):
                sim.now += seconds
        """)
        assert "SIM001" in rules_hit("""\
            def forget(sim):
                del sim.now
        """)

    def test_clock_read_clean(self):
        assert "SIM001" not in rules_hit("""\
            def stamp(sim, packet):
                packet.created_at = sim.now
                return sim.now + 1.0
        """)

    def test_own_clock_store_clean(self):
        assert "SIM001" not in rules_hit("""\
            class FakeSim:
                def __init__(self):
                    self.now = 0.0

                def advance(self, seconds):
                    self.now += seconds
        """)

    def test_clock_store_inside_kernel_exempt(self):
        source = "def rewind(sim):\n    sim.now = 0.0\n"
        assert audit_source(source, path="src/repro/sim/kernel.py") == []

    def test_foreign_heap_access_flagged(self):
        assert "SIM001" in rules_hit("""\
            def drain(queue):
                return list(queue._heap)
        """)

    def test_public_api_clean(self):
        assert "SIM001" not in rules_hit("""\
            def snapshot(sim):
                return sim.now, sim.pending_events(), sim.events_executed
        """)

    def test_own_private_attribute_clean(self):
        assert "SIM001" not in rules_hit("""\
            class Tracker:
                def __init__(self):
                    self._now = 0.0

                def tick(self, t):
                    self._now = t
        """)

    def test_kernel_itself_exempt(self):
        source = "def peek(sim):\n    return sim._heap, sim._counter\n"
        assert audit_source(source, path="src/repro/sim/kernel.py") == []


class TestEXC001BroadExcept:
    def test_bare_except_flagged(self):
        assert "EXC001" in rules_hit("""\
            try:
                risky()
            except:
                pass
        """)

    def test_except_exception_pass_flagged(self):
        assert "EXC001" in rules_hit("""\
            try:
                risky()
            except Exception:
                pass
        """)

    def test_except_exception_continue_flagged(self):
        assert "EXC001" in rules_hit("""\
            for item in items:
                try:
                    risky(item)
                except Exception:
                    continue
        """)

    def test_wrapping_reraise_clean(self):
        assert "EXC001" not in rules_hit("""\
            from repro.errors import FitError

            try:
                fit()
            except Exception as exc:
                raise FitError(str(exc)) from exc
        """)

    def test_specific_library_error_clean(self):
        assert "EXC001" not in rules_hit("""\
            from repro.errors import PacketFormatError

            try:
                decode(data)
            except PacketFormatError:
                pass
        """)


class TestRuleSelection:
    def test_single_rule_run_in_isolation(self):
        source = ("import random\n"
                  "x = random.random()\n"
                  "y = delta * 1e3\n")
        only_units = audit_source(source, path="m.py",
                                  rules=[get_rule("UNIT001")])
        assert {finding.rule for finding in only_units} == {"UNIT001"}
