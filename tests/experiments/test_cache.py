"""Tests for the content-addressed campaign cell cache."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.experiments import cache as cache_module
from repro.experiments.cache import (
    CampaignCache,
    cache_salt,
    cell_fingerprint,
    resolve_cache,
)
from repro.experiments.campaign import CampaignSpec, run_campaign


def small_spec(**kwargs):
    defaults = dict(deltas=(0.1,), seeds=(1,), duration=10.0,
                    scenario_kwargs={"utilization_fwd": 0.3,
                                     "utilization_rev": 0.3})
    defaults.update(kwargs)
    return CampaignSpec(**defaults)


class TestFingerprint:
    def test_stable(self):
        spec = small_spec()
        assert cell_fingerprint(spec, 0.1, 1) == \
            cell_fingerprint(small_spec(), 0.1, 1)

    def test_excludes_output_dir_and_workers(self, tmp_path):
        assert cell_fingerprint(small_spec(), 0.1, 1) == \
            cell_fingerprint(small_spec(output_dir=tmp_path), 0.1, 1)

    @pytest.mark.parametrize("variation", [
        dict(delta=0.2),
        dict(seed=2),
        dict(spec=dict(duration=20.0)),
        dict(spec=dict(scenario="umd-pitt")),
        dict(spec=dict(scenario_kwargs={"utilization_fwd": 0.4,
                                        "utilization_rev": 0.3})),
        dict(spec=dict(mode="analytic")),
        dict(salt="other-salt"),
    ])
    def test_sensitive_to_every_causal_input(self, variation, monkeypatch):
        base = cell_fingerprint(small_spec(), 0.1, 1)
        spec = small_spec(**variation.get("spec", {}))
        if "salt" in variation:
            monkeypatch.setattr(cache_module, "_salt_cache",
                                variation["salt"])
        varied = cell_fingerprint(spec,
                                  variation.get("delta", 0.1),
                                  variation.get("seed", 1))
        assert varied != base

    def test_sensitive_to_probe_bytes(self, monkeypatch):
        base = cell_fingerprint(small_spec(), 0.1, 1)
        monkeypatch.setattr(cache_module, "PROBE_PAYLOAD_BYTES", 64)
        assert cell_fingerprint(small_spec(), 0.1, 1) != base

    def test_code_salt_bump_invalidates(self, monkeypatch):
        base = cell_fingerprint(small_spec(), 0.1, 1)
        monkeypatch.setattr(cache_module, "_salt_cache", "repro-cell-v999")
        # Every fingerprint reads the process's derived salt.
        assert cell_fingerprint(small_spec(), 0.1, 1) != base


class TestDerivedSalt:
    def test_salt_is_derived_from_code(self):
        salt = cache_salt()
        assert salt.startswith("repro-cell-v3-")
        assert salt == cache_salt()  # memoized, stable in-process

    def test_unknown_module_attribute_still_raises(self):
        with pytest.raises(AttributeError):
            cache_module.NOT_A_THING

    def test_fingerprint_defaults_to_derived_salt(self, monkeypatch):
        base = cell_fingerprint(small_spec(), 0.1, 1)
        monkeypatch.setattr(cache_module, "cache_salt",
                            lambda: "repro-cell-v999")
        assert cell_fingerprint(small_spec(), 0.1, 1) != base
        monkeypatch.undo()
        assert cell_fingerprint(small_spec(), 0.1, 1) == base

    def test_cache_defaults_to_derived_salt(self, tmp_path, monkeypatch):
        cache = CampaignCache(tmp_path)
        path = cache.entry_path(small_spec(), 0.1, 1)
        assert path.name.endswith(
            f"-{cell_fingerprint(small_spec(), 0.1, 1)}.npz")
        monkeypatch.setattr(cache_module, "_salt_cache", "repro-cell-v999")
        assert cache.entry_path(small_spec(), 0.1, 1) != path

    def test_salt_never_imports_the_analyzer(self):
        # The salt hashes bytes; the static analyzer (repro.devtools) is a
        # development tool that no campaign process loads.  scipy and
        # networkx stay off every entry point's import path too: scipy is
        # imported where a statistic is computed, and routing is our own.
        env = dict(os.environ,
                   PYTHONPATH=str(Path(repro.__file__).parents[1]))
        result = subprocess.run(
            [sys.executable, "-c",
             "import sys\n"
             "import repro.cli, repro.experiments.campaign\n"
             "import repro.experiments.fastforward\n"
             "from repro.experiments.cache import cache_salt\n"
             "print(cache_salt())\n"
             "print(sorted(m for m in sys.modules\n"
             "             if m.startswith('repro.devtools')\n"
             "             or m.split('.')[0] in ('scipy', 'networkx')))"],
            capture_output=True, text=True, check=True, env=env)
        salt, loaded = result.stdout.splitlines()
        assert salt.startswith("repro-cell-v3-")
        assert loaded == "[]"

    def test_fallback_when_sources_unreadable(self, monkeypatch, caplog):
        monkeypatch.setattr(cache_module, "_salt_cache", None)

        def boom(package_root):
            raise OSError("no sources")

        monkeypatch.setattr(cache_module, "_source_salt", boom)
        with caplog.at_level("WARNING"):
            salt = cache_salt()
        assert salt == cache_module._FALLBACK_SALT
        assert "cache-salt-underivable" in caplog.text
        assert "no sources" in caplog.text
        assert caplog.records[-1].name == "repro.obs.cache"
        monkeypatch.setattr(cache_module, "_salt_cache", None)


class TestCacheSemantics:
    def test_hit_on_identical_spec(self, tmp_path):
        cache = CampaignCache(tmp_path / "cache")
        cold = run_campaign(small_spec(), cache=cache)
        warm = run_campaign(small_spec(), cache=cache)
        assert cold.cache_stats["misses"] == 1
        assert cold.cache_stats["hits"] == 0
        assert warm.cache_stats["hits"] == 1
        assert warm.cache_stats["misses"] == 0
        assert warm.cache_stats["cells"] == {"d100_s1": "hit"}
        assert cold.table() == warm.table()
        assert cold.queue_table() == warm.queue_table()
        np.testing.assert_array_equal(cold.traces[(0.1, 1)].rtts,
                                      warm.traces[(0.1, 1)].rtts)

    def test_miss_on_changed_duration(self, tmp_path):
        cache = CampaignCache(tmp_path)
        run_campaign(small_spec(), cache=cache)
        again = run_campaign(small_spec(duration=12.0), cache=cache)
        assert again.cache_stats["misses"] == 1

    def test_miss_on_changed_scenario_kwargs(self, tmp_path):
        cache = CampaignCache(tmp_path)
        run_campaign(small_spec(), cache=cache)
        again = run_campaign(
            small_spec(scenario_kwargs={"utilization_fwd": 0.4,
                                        "utilization_rev": 0.3}),
            cache=cache)
        assert again.cache_stats["misses"] == 1

    def test_salt_bump_forces_recompute(self, tmp_path, monkeypatch):
        run_campaign(small_spec(), cache=CampaignCache(tmp_path))
        monkeypatch.setattr(cache_module, "_salt_cache", "repro-cell-v999")
        again = run_campaign(small_spec(), cache=CampaignCache(tmp_path))
        assert again.cache_stats["misses"] == 1
        # The original salt's entry is untouched and still hits.
        monkeypatch.undo()
        back = run_campaign(small_spec(), cache=CampaignCache(tmp_path))
        assert back.cache_stats["hits"] == 1

    def test_refresh_forces_recompute_and_overwrites(self, tmp_path):
        run_campaign(small_spec(), cache=CampaignCache(tmp_path))
        refreshed = run_campaign(
            small_spec(), cache=CampaignCache(tmp_path, refresh=True))
        assert refreshed.cache_stats["misses"] == 1
        assert refreshed.cache_stats["refresh"] is True
        assert refreshed.cache_stats["bytes_written"] > 0
        # The refreshed entry is valid: a normal run hits it.
        warm = run_campaign(small_spec(), cache=CampaignCache(tmp_path))
        assert warm.cache_stats["hits"] == 1

    def test_corrupted_entries_recomputed_and_healed(self, tmp_path):
        cache = CampaignCache(tmp_path)
        cold = run_campaign(small_spec(), cache=cache)
        entries = list(tmp_path.glob("*.npz"))
        assert len(entries) == 1
        # Garble the entry: a prefix of valid bytes (truncated zip).
        raw = entries[0].read_bytes()
        entries[0].write_bytes(raw[:len(raw) // 2])
        healed = run_campaign(small_spec(), cache=cache)
        assert healed.cache_stats["misses"] == 1
        assert cache.corrupt_entries == 1
        assert healed.table() == cold.table()
        # The recomputation overwrote the damaged entry.
        warm = run_campaign(small_spec(), cache=cache)
        assert warm.cache_stats["hits"] == 1

    def test_garbage_entry_is_a_miss(self, tmp_path):
        cache = CampaignCache(tmp_path)
        run_campaign(small_spec(), cache=cache)
        entry = next(iter(tmp_path.glob("*.npz")))
        entry.write_bytes(b"not a zip file at all")
        again = run_campaign(small_spec(), cache=cache)
        assert again.cache_stats["misses"] == 1

    def test_no_temp_files_left_behind(self, tmp_path):
        cache = CampaignCache(tmp_path)
        run_campaign(small_spec(), cache=cache)
        run_campaign(small_spec(), cache=cache)
        assert not list(tmp_path.glob(".tmp-*"))

    def test_cache_accepts_plain_directory_path(self, tmp_path):
        cold = run_campaign(small_spec(), cache=tmp_path / "c")
        warm = run_campaign(small_spec(), cache=str(tmp_path / "c"))
        assert cold.cache_stats["misses"] == 1
        assert warm.cache_stats["hits"] == 1

    def test_no_cache_means_no_stats(self):
        result = run_campaign(small_spec())
        assert result.cache_stats is None


class TestColdWarmArtifacts:
    def grid_spec(self, output_dir):
        return small_spec(deltas=(0.1, 0.2), seeds=(1, 2), duration=5.0,
                          output_dir=output_dir)

    def test_cold_and_warm_byte_identical(self, tmp_path):
        cache = CampaignCache(tmp_path / "cache")
        run_campaign(self.grid_spec(tmp_path / "cold"), cache=cache)
        run_campaign(self.grid_spec(tmp_path / "warm"), cache=cache)
        names = ["manifest.json", "trace_d100_s1.csv", "trace_d100_s2.csv",
                 "trace_d200_s1.csv", "trace_d200_s2.csv"]
        for name in names:
            assert (tmp_path / "cold" / name).read_bytes() == \
                (tmp_path / "warm" / name).read_bytes(), name

    def test_warm_parallel_matches_cold_serial(self, tmp_path):
        """cold==warm composes with serial==parallel."""
        cache = CampaignCache(tmp_path / "cache")
        cold = run_campaign(self.grid_spec(tmp_path / "cold"), workers=1,
                            cache=cache)
        warm = run_campaign(self.grid_spec(tmp_path / "warm"), workers=2,
                            cache=cache)
        assert warm.cache_stats["hits"] == 4
        assert cold.table() == warm.table()
        assert (tmp_path / "cold" / "manifest.json").read_bytes() == \
            (tmp_path / "warm" / "manifest.json").read_bytes()

    def test_partial_hits_merge_in_grid_order(self, tmp_path):
        cache = CampaignCache(tmp_path / "cache")
        run_campaign(small_spec(deltas=(0.1,), seeds=(1, 2)), cache=cache)
        # Superset grid: two cells hit, two (new delta) miss.
        mixed = run_campaign(small_spec(deltas=(0.1, 0.2), seeds=(1, 2)),
                             cache=cache)
        assert mixed.cache_stats["hits"] == 2
        assert mixed.cache_stats["misses"] == 2
        reference = run_campaign(small_spec(deltas=(0.1, 0.2), seeds=(1, 2)))
        assert mixed.table() == reference.table()
        assert mixed.queue_table() == reference.queue_table()

    def test_timing_sidecar_records_cache_block(self, tmp_path):
        cache = CampaignCache(tmp_path / "cache")
        run_campaign(small_spec(output_dir=tmp_path / "cold"), cache=cache)
        run_campaign(small_spec(output_dir=tmp_path / "warm"), cache=cache)
        cold = json.loads((tmp_path / "cold" / "timing.json").read_text())
        warm = json.loads((tmp_path / "warm" / "timing.json").read_text())
        assert cold["cache"]["cells"] == {"d100_s1": "miss"}
        assert cold["cache"]["bytes_written"] > 0
        assert warm["cache"]["cells"] == {"d100_s1": "hit"}
        assert warm["cache"]["hits"] == 1
        assert warm["cache"]["bytes_read"] > 0
        assert warm["cache"]["saved_cell_seconds"] > 0

    def test_manifest_never_mentions_cache(self, tmp_path):
        cache = CampaignCache(tmp_path / "cache")
        run_campaign(small_spec(output_dir=tmp_path / "out"), cache=cache)
        manifest = (tmp_path / "out" / "manifest.json").read_text()
        assert "cache" not in json.loads(manifest).get("extra", {})
        assert "cache" not in manifest


class TestResolveCache:
    def test_passthrough(self, tmp_path):
        cache = CampaignCache(tmp_path)
        assert resolve_cache(cache) is cache
        assert resolve_cache(None) is None


class TestLoadMany:
    """The pre-dispatch grid lookup: one per-cell load per grid cell."""

    def grid_spec(self, **kwargs):
        return small_spec(deltas=(0.05, 0.1), seeds=(1, 2),
                          mode="analytic", duration=5.0, **kwargs)

    def populate(self, tmp_path):
        cache = CampaignCache(tmp_path)
        spec = self.grid_spec()
        run_campaign(spec, cache=cache)
        return CampaignCache(tmp_path), spec  # fresh counters

    def test_matches_per_cell_load(self, tmp_path):
        cache, spec = self.populate(tmp_path)
        grid = spec.cells()
        batched = cache.load_many(spec, grid)
        assert set(batched) == set(grid)
        reference = CampaignCache(tmp_path)
        for cell in grid:
            single = reference.load(spec, *cell)
            many = batched[cell]
            np.testing.assert_array_equal(single.trace.rtts,
                                          many.trace.rtts)
            np.testing.assert_array_equal(single.trace.send_times,
                                          many.trace.send_times)
            assert single.queue_stats == many.queue_stats
            assert single.metrics == many.metrics
        assert cache.hits == len(grid)
        assert cache.misses == 0

    def test_partial_population_counts_misses(self, tmp_path):
        cache, spec = self.populate(tmp_path)
        grid = spec.cells()
        extra = [(0.25, 1), (0.25, 2)]
        batched = cache.load_many(spec, grid + extra)
        assert set(batched) == set(grid)
        assert cache.hits == len(grid)
        assert cache.misses == len(extra)

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache, spec = self.populate(tmp_path)
        entry = sorted(tmp_path.glob("*.npz"))[0]
        raw = entry.read_bytes()
        entry.write_bytes(raw[:len(raw) // 3])
        batched = cache.load_many(spec, spec.cells())
        assert len(batched) == len(spec.cells()) - 1
        assert cache.corrupt_entries == 1
        assert cache.misses == 1

    def test_refresh_skips_every_entry(self, tmp_path):
        cache, spec = self.populate(tmp_path)
        refreshing = CampaignCache(tmp_path, refresh=True)
        assert refreshing.load_many(spec, spec.cells()) == {}
        assert refreshing.misses == len(spec.cells())

    def test_empty_directory_all_misses(self, tmp_path):
        cache = CampaignCache(tmp_path / "never-written")
        spec = self.grid_spec()
        assert cache.load_many(spec, spec.cells()) == {}
        assert cache.misses == len(spec.cells())
