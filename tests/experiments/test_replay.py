"""Cross-traffic replay reuse: prefix exactness, memoization, executors.

The analytic campaign builds each seed's cross-traffic replay once, at
the grid's longest cell horizon, and slices it per cell.  Correctness
rests on one property — a replay built at a long horizon, cut at a
shorter one, is *bit-identical* to a fresh build at that shorter horizon
(emission generation truncates only the tail and every downstream pass
is causal) — and on the memo being pure execution mechanics: campaign
artifacts equal those of memo-less per-cell runs on every executor, and
memo accounting never leaks outside ``timing.json``.
"""

import dataclasses
import functools
import json

import numpy as np
import pytest

from repro.experiments import cache as cache_module
from repro.experiments import fastforward as ff
from repro.experiments.campaign import (
    CampaignSpec,
    _run_cell,
    cell_key,
    run_campaign,
)
from repro.experiments.config import (PAPER_DELTAS, SCENARIO_BUILDERS,
                                      ExperimentConfig)
from repro.experiments.pool import plan_leases
from repro.experiments.runner import build_scenario, scenario_key
from repro.net.packet import UDP_WIRE_OVERHEAD_BYTES
from repro.net.routing import Network
from repro.obs.spans import PHASE_REPLAY, SpanTracer
from repro.sim.kernel import Simulator
from repro.traffic.sizes import EmpiricalSize, FixedSize
from repro.traffic.telnet import TelnetSource
from repro.units import bytes_to_bits, mbps

#: Light mix so replay builds stay fast; deep buffer so every cell takes
#: the vectorized no-drop path.
LIGHT_KWARGS = {"utilization_fwd": 0.3, "utilization_rev": 0.3,
                "buffer_packets": 512}


def config_for(delta=0.05, duration=5.0, seed=1, **overrides):
    return ExperimentConfig(delta=delta, duration=duration, seed=seed,
                            scenario="inria-umd",
                            scenario_kwargs=dict(LIGHT_KWARGS),
                            mode="analytic", **overrides)


def assert_stream_prefix(long, short):
    """``short`` must be a bitwise prefix of ``long`` (same build rules)."""
    n = short.emit_times.size
    assert np.array_equal(long.emit_times[:n], short.emit_times)
    assert np.array_equal(long.arrivals[:n], short.arrivals)
    assert np.array_equal(long.bits[:n], short.bits)
    assert np.array_equal(long.peak_backlogs[:n], short.peak_backlogs)


class TestPrefixProperty:
    def test_short_build_is_bitwise_prefix_of_long(self):
        long = ff.build_cross_replay(build_scenario(config_for()), 90.0)
        short = ff.build_cross_replay(build_scenario(config_for()), 40.0)
        for side in (0, 1):
            assert_stream_prefix(long.streams[side], short.streams[side])

    def test_slice_matches_fresh_build_across_deltas(self):
        """One long replay serves every δ's horizon bit-for-bit."""
        configs = [config_for(delta=delta)
                   for delta in (0.02, 0.05, 0.1, 0.25)]
        horizons = [ff.cell_horizon(config) for config in configs]
        long = ff.build_cross_replay(build_scenario(configs[0]),
                                     max(horizons))
        for config, horizon in zip(configs, horizons):
            fresh = ff.build_cross_replay(build_scenario(config), horizon)
            for side in (0, 1):
                sliced = ff.slice_stream(long.streams[side], horizon)
                direct = ff.slice_stream(fresh.streams[side], horizon)
                assert np.array_equal(sliced[0], direct[0])
                assert np.array_equal(sliced[1], direct[1])

    def test_slice_certificate_matches_fresh_scan(self):
        """The running-peak lookup equals a fresh max/min certificate."""
        scenario = build_scenario(config_for())
        stream = ff.build_cross_replay(scenario, 60.0).streams[0]
        for horizon in (10.0, 30.0, 60.0):
            cut = int(np.searchsorted(stream.emit_times, horizon,
                                      side="right"))
            # The stored running peak at the cut must equal the fresh
            # full-scan value over the same prefix (identical float ops).
            fresh_build = ff.build_cross_replay(
                build_scenario(config_for()), horizon).streams[0]
            assert stream.peak_backlogs[cut - 1] == \
                fresh_build.peak_backlogs[cut - 1]

    def test_ftp_vectorized_burst_matches_scalar_loop(self):
        """``np.repeat`` burst emission == the per-packet reference loop."""
        from repro.topology.inria_umd import build_inria_umd
        from repro.traffic.ftp import FtpSource

        def reference_loop(source, horizon):
            rng = source.rng
            wire_bits = float(bytes_to_bits(source.payload_bytes
                                            + UDP_WIRE_OVERHEAD_BYTES))
            times, bits = [], []
            t = rng.exponential(source._mean_session_interval)
            while t <= horizon:
                remaining = int(rng.geometric(source._file_size_p))
                tick = t
                while remaining > 0 and tick <= horizon:
                    burst = min(source.window, remaining)
                    for _ in range(burst):
                        times.append(tick)
                        bits.append(wire_bits)
                    remaining -= burst
                    if remaining > 0:
                        tick = tick + source.window_interval
                t = t + rng.exponential(source._mean_session_interval)
            return np.asarray(times, dtype=float), np.asarray(bits)

        def ftp_source(seed):
            scenario = build_inria_umd(seed=seed, **LIGHT_KWARGS)
            source = scenario.mix_fwd.sources[0]
            assert isinstance(source, FtpSource)
            return source

        vec_times, vec_bits = ff._ftp_emissions(ftp_source(7), 60.0)
        ref_times, ref_bits = reference_loop(ftp_source(7), 60.0)
        assert vec_times.size > 0
        assert np.array_equal(vec_times, ref_times)
        assert np.array_equal(vec_bits, ref_bits)

    @pytest.mark.parametrize("sizes", [
        FixedSize(40),
        EmpiricalSize([3, 100, 700], [0.5, 0.3, 0.2]),
    ], ids=["fixed", "empirical"])
    def test_telnet_replay_matches_event_source(self, sizes):
        """``_telnet_emissions`` == what an event-mode source sends."""
        horizon = 30.0

        def telnet_source():
            sim = Simulator(seed=5)
            network = Network(sim)
            network.add_host("tx")
            network.add_host("rx")
            network.link("tx", "rx", rate_bps=mbps(10), prop_delay=0.001)
            network.compute_routes()
            return sim, TelnetSource(network.host("tx"), "rx",
                                     rate_pps=50.0, sizes=sizes)

        sim, source = telnet_source()
        sent = []
        source._send = lambda payload: sent.append((sim.now, payload))
        source.start()
        sim.run(until=horizon)
        event_times = np.array([t for t, _ in sent])
        event_bits = np.array([bytes_to_bits(payload
                                             + UDP_WIRE_OVERHEAD_BYTES)
                               for _, payload in sent], dtype=float)

        times, bits = ff._telnet_emissions(telnet_source()[1], horizon)
        assert times.size > 1000
        assert np.array_equal(times, event_times)
        assert np.array_equal(bits, event_bits)


class TestReplayFingerprint:
    """``scenario_key``: the in-process identity of one seed's replay."""

    def test_ignores_kwargs_order(self):
        reordered = dict(reversed(list(LIGHT_KWARGS.items())))
        assert list(reordered) != list(LIGHT_KWARGS)
        assert scenario_key(config_for()) == scenario_key(
            dataclasses.replace(config_for(), scenario_kwargs=reordered))

    def test_sensitive_to_causal_inputs_only(self):
        key = scenario_key(config_for())
        # Keywords both builders take, so only the scenario name differs.
        shared = {"utilization_fwd": 0.3, "utilization_rev": 0.3}
        assert scenario_key(dataclasses.replace(
            config_for(), scenario_kwargs=shared)) != scenario_key(
            dataclasses.replace(config_for(), scenario="umd-pitt",
                                scenario_kwargs=shared))
        assert key != scenario_key(config_for(seed=2))
        assert key != scenario_key(dataclasses.replace(
            config_for(),
            scenario_kwargs=dict(LIGHT_KWARGS, utilization_fwd=0.4)))

    def test_sensitive_to_the_builder(self, monkeypatch):
        key = scenario_key(config_for())
        build = SCENARIO_BUILDERS["inria-umd"]
        monkeypatch.setitem(SCENARIO_BUILDERS, "inria-umd",
                            functools.wraps(build)(
                                lambda **kwargs: build(**kwargs)))
        assert scenario_key(config_for()) != key
        monkeypatch.setitem(SCENARIO_BUILDERS, "inria-umd", build)
        assert scenario_key(config_for()) == key

    def test_separates_seed_scenario_and_kwargs(self):
        # Values that would run together if the parts were concatenated
        # ("seed 1" + "kwargs 1x" vs "seed 11" + "kwargs x") stay apart.
        one = dataclasses.replace(config_for(seed=1),
                                  scenario_kwargs={"window": "1x"})
        eleven = dataclasses.replace(config_for(seed=11),
                                     scenario_kwargs={"window": "x"})
        assert scenario_key(one) != scenario_key(eleven)
        scenario, builder, kwargs, seed = scenario_key(one)
        assert (scenario, builder, json.loads(kwargs), seed) \
            == ("inria-umd", SCENARIO_BUILDERS["inria-umd"],
                {"window": "1x"}, 1)

    def test_needs_no_cache_salt(self, monkeypatch):
        def unavailable():
            raise AssertionError("scenario_key must not derive the salt")

        monkeypatch.setattr(cache_module, "cache_salt", unavailable)
        assert scenario_key(config_for()) == scenario_key(config_for())

    def test_delta_and_duration_excluded(self):
        """Cells differing only in δ/duration share one replay key."""
        assert scenario_key(config_for(delta=0.02, duration=5.0)) == \
            scenario_key(config_for(delta=0.5, duration=60.0))


class TestCrossReplayMemo:
    def test_covering_horizon_hits(self):
        memo = ff.CrossReplayMemo()
        replay = ff.CrossReplay(horizon=50.0, streams=(None, None))
        memo.put("k", replay)
        assert memo.get("k", 30.0) is replay
        assert memo.get("k", 50.0) is replay
        assert memo.counters() == (2, 0)

    def test_shorter_entry_misses(self):
        memo = ff.CrossReplayMemo()
        memo.put("k", ff.CrossReplay(horizon=20.0, streams=(None, None)))
        assert memo.get("k", 30.0) is None
        assert memo.counters() == (0, 1)

    def test_new_key_replaces_held_replay(self):
        memo = ff.CrossReplayMemo()
        first = ff.CrossReplay(horizon=50.0, streams=(None, None))
        second = ff.CrossReplay(horizon=50.0, streams=(None, None))
        memo.put("k1", first)
        memo.put("k2", second)
        assert memo.get("k2", 30.0) is second
        assert memo.get("k1", 30.0) is None
        assert memo.counters() == (1, 1)


@pytest.fixture()
def fresh_process_memo():
    """Reset the process-global memo so hit/miss counts are deterministic."""
    ff._process_memo = None
    yield
    ff._process_memo = None


class TestGridExecution:
    """The campaign's per-cell call: process memo + grid-max horizon."""

    def spec(self, deltas=(0.02, 0.05, 0.1), seeds=(1, 2), duration=5.0):
        return CampaignSpec(deltas=deltas, seeds=seeds, duration=duration,
                            scenario_kwargs=dict(LIGHT_KWARGS),
                            mode="analytic")

    def test_grid_matches_percell_bitwise(self, fresh_process_memo):
        spec = self.spec()
        for delta, seed in spec.cells():
            cell = _run_cell(spec, delta, seed)
            alone = ff.run_fastforward_experiment(
                config_for(delta=delta, seed=seed))
            assert alone.mode_used == "analytic"
            assert np.array_equal(cell.trace.rtts, alone.trace.rtts,
                                  equal_nan=True)
            assert np.array_equal(cell.trace.send_times,
                                  alone.trace.send_times)
            assert cell.queue_stats == alone.queue_stats
            assert cell.trace.meta == alone.trace.meta

    def test_grid_builds_one_replay_per_seed(self, fresh_process_memo):
        # Lease order (seed-major, the order every campaign serves) with
        # ragged horizons: without the grid-max build every longer δ
        # would miss and rebuild.
        spec = self.spec(deltas=(0.03, 0.07, 0.02), duration=1.0)
        for lease in plan_leases(spec.cells(), 1, "analytic"):
            for delta, seed in lease:
                _run_cell(spec, delta, seed)
        memo = ff.process_replay_memo()
        assert memo.misses == len(spec.seeds)
        assert memo.hits == len(spec.cells()) - len(spec.seeds)

    def test_replay_span_on_miss_only(self):
        memo = ff.CrossReplayMemo()
        tracer = SpanTracer(worker="test")
        config = config_for()
        ff.run_fastforward_experiment(config, memo=memo, tracer=tracer)
        ff.run_fastforward_experiment(config, memo=memo, tracer=tracer)
        replay_spans = [r for r in tracer.records
                        if r.phase == PHASE_REPLAY]
        assert len(replay_spans) == 1    # second run hit the memo


class TestExecutorMatrix:
    """Serial and warm-pool campaigns ⇒ the memo-less per-cell artifacts."""

    DETERMINISTIC = ("manifest.json", "trace_d50_s1.csv",
                     "trace_d50_s2.csv", "trace_d100_s1.csv",
                     "trace_d100_s2.csv")

    def spec(self, tmp_path, name):
        return CampaignSpec(deltas=(0.05, 0.1), seeds=(1, 2), duration=5.0,
                            scenario_kwargs=dict(LIGHT_KWARGS),
                            mode="analytic",
                            output_dir=str(tmp_path / name))

    def read_artifacts(self, tmp_path, name):
        return {artifact: (tmp_path / name / artifact).read_bytes()
                for artifact in self.DETERMINISTIC}

    def test_artifacts_match_memoless_reference(self, tmp_path):
        """Campaign traces and queue stats == per-cell runs without a memo.

        The reference runs every cell on its own through
        :func:`run_fastforward_experiment` (no memo, replay built at the
        cell's own horizon) and writes its CSV the way the merge does.
        """
        spec = self.spec(tmp_path, "reference")
        reference = {}
        for delta, seed in spec.cells():
            result = ff.run_fastforward_experiment(
                config_for(delta=delta, seed=seed, duration=spec.duration))
            path = tmp_path / f"reference-{delta}-{seed}.csv"
            result.trace.save_csv(path)
            reference[(delta, seed)] = (path.read_bytes(),
                                        result.queue_stats)
        cache_module.cache_salt()  # warm before forking: cheap salt checks
        manifests = {}
        for name, workers in (("serial", 1), ("warm", 2)):
            result = run_campaign(self.spec(tmp_path, name),
                                  workers=workers)
            for (delta, seed), (csv, stats) in reference.items():
                written = (tmp_path / name
                           / f"trace_{cell_key(delta, seed)}.csv")
                assert written.read_bytes() == csv, (name, delta, seed)
                assert result.queue_stats[(delta, seed)] == stats
            manifests[name] = (tmp_path / name /
                               "manifest.json").read_bytes()
        assert manifests["serial"] == manifests["warm"]

    def test_serial_replay_accounting_in_timing(self, tmp_path,
                                                fresh_process_memo):
        run_campaign(self.spec(tmp_path, "counted"), workers=1)
        timing = json.loads(
            (tmp_path / "counted" / "timing.json").read_text())
        dispatch = timing["dispatch"]
        # Leases are seed-affine: each seed builds once, its second δ hits.
        assert dispatch["replay_misses"] == 2
        assert dispatch["replay_hits"] == 2

    def test_serial_builds_each_seed_replay_once(self, tmp_path,
                                                 fresh_process_memo):
        # Several seeds and a memo of one replay: in δ-major grid order
        # every cell would evict the replay the next one needs.
        # Seed-affine leases finish a seed before the next one starts.
        seeds = (1, 2, 3, 4, 5, 6)
        spec = dataclasses.replace(self.spec(tmp_path, "many-seeds"),
                                   seeds=seeds)
        dispatch = run_campaign(spec, workers=1).dispatch_stats
        assert dispatch["replay_misses"] == len(seeds)
        assert dispatch["replay_hits"] == len(seeds)

    @pytest.mark.parametrize("deltas, duration", [
        ((0.03, 0.07), 10.0),
        (PAPER_DELTAS, 13.3),
    ])
    def test_ragged_grid_builds_each_seed_replay_once(
            self, tmp_path, fresh_process_memo, deltas, duration):
        # cell_horizon varies with δ on these grids; a replay built only
        # to the first cell's horizon would miss again for a longer δ.
        seeds = (1, 2, 3)
        spec = dataclasses.replace(self.spec(tmp_path, "ragged"),
                                   deltas=deltas, seeds=seeds,
                                   duration=duration)
        horizons = {ff.cell_horizon(config_for(delta=delta,
                                               duration=duration))
                    for delta in deltas}
        assert len(horizons) > 1
        dispatch = run_campaign(spec, workers=1).dispatch_stats
        assert dispatch["replay_misses"] == len(seeds)
        assert dispatch["replay_hits"] == len(spec.cells()) - len(seeds)

    def test_warm_pool_replay_accounting_in_timing(self, tmp_path):
        cache_module.cache_salt()
        result = run_campaign(self.spec(tmp_path, "warm-counted"),
                              workers=2)
        dispatch = result.dispatch_stats
        assert dispatch["pool"] == "warm"
        # Worker scheduling decides the split, but every build and every
        # reuse is accounted: one event per cell.
        assert dispatch["replay_hits"] + dispatch["replay_misses"] == 4
        assert dispatch["replay_misses"] >= 2  # at least one per seed

    def test_replay_accounting_never_in_manifest(self, tmp_path):
        run_campaign(self.spec(tmp_path, "quarantine"), workers=1)
        manifest = (tmp_path / "quarantine" / "manifest.json").read_text()
        assert "replay" not in manifest
        assert "memo" not in manifest
