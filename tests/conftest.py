"""Shared fixtures.

Expensive calibrated-scenario traces are session-scoped: several analysis
test modules reuse the same measurement rather than re-simulating.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings

from repro.netdyn.session import run_probe_experiment
from repro.netdyn.trace import ProbeTrace
from repro.sim.kernel import Simulator
from repro.topology.inria_umd import build_inria_umd

from tests.topology.single_bottleneck import build_single_bottleneck

# Hypothesis example counts for tests that do not pin their own: the
# tier-1 default keeps the suite fast; CI's fuzz steps select the larger
# "ci" profile through HYPOTHESIS_PROFILE.
settings.register_profile("tier1", max_examples=100)
settings.register_profile("ci", max_examples=2000)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1"))


@pytest.fixture
def sim() -> Simulator:
    """A fresh simulator with a fixed seed."""
    return Simulator(seed=42)


@pytest.fixture(scope="session")
def idle_trace() -> ProbeTrace:
    """Probes over the INRIA-UMd path with no cross traffic or faults."""
    scenario = build_inria_umd(seed=5, utilization_fwd=0.0,
                               utilization_rev=0.0, fault_drop_prob=0.0)
    return run_probe_experiment(scenario.network, scenario.source,
                                scenario.echo, delta=0.05, count=400)


@pytest.fixture(scope="session")
def loaded_trace() -> ProbeTrace:
    """Probes at δ=50 ms over the calibrated INRIA-UMd path (with load)."""
    scenario = build_inria_umd(seed=5)
    scenario.start_traffic()
    return run_probe_experiment(scenario.network, scenario.source,
                                scenario.echo, delta=0.05, count=2400,
                                start_at=30.0)


@pytest.fixture(scope="session")
def loaded_trace_20ms() -> ProbeTrace:
    """Probes at δ=20 ms over the calibrated INRIA-UMd path."""
    scenario = build_inria_umd(seed=6)
    scenario.start_traffic()
    return run_probe_experiment(scenario.network, scenario.source,
                                scenario.echo, delta=0.02, count=6000,
                                start_at=30.0)


@pytest.fixture(scope="session")
def bottleneck_scenario_factory():
    """Factory for small single-bottleneck networks (fast to simulate)."""
    def make(**kwargs):
        return build_single_bottleneck(**kwargs)
    return make


@pytest.fixture
def rng() -> np.random.Generator:
    """A seeded numpy generator for test-local randomness."""
    return np.random.default_rng(1234)
