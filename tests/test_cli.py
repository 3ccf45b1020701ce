"""Tests for the command-line entry points."""

import json
import re

import pytest

from repro import cli


def read_jsonl(path):
    """One dict per line of a JSONL file."""
    return [json.loads(line) for line in path.read_text().splitlines()]


class TestExperimentCli:
    def test_basic_run(self, capsys):
        code = cli.main_experiment(["--delta-ms", "100", "--duration", "20",
                                    "--seed", "3"])
        assert code == 0
        output = capsys.readouterr().out
        assert "probes sent: 200" in output
        assert "loss: ulp" in output
        assert "delay ms:" in output

    def test_save_trace(self, tmp_path, capsys):
        path = tmp_path / "trace.csv"
        code = cli.main_experiment(["--delta-ms", "100", "--duration", "10",
                                    "--save-trace", str(path)])
        assert code == 0
        assert path.exists()
        from repro.netdyn.trace import ProbeTrace
        trace = ProbeTrace.load_csv(path)
        assert len(trace) == 100

    def test_umd_pitt_scenario(self, capsys):
        code = cli.main_experiment(["--delta-ms", "50", "--duration", "10",
                                    "--scenario", "umd-pitt"])
        assert code == 0

    def test_trace_jsonl(self, tmp_path, capsys):
        path = tmp_path / "events.jsonl"
        code = cli.main_experiment(["--delta-ms", "100", "--duration", "5",
                                    "--trace", str(path)])
        assert code == 0
        output = capsys.readouterr().out
        assert "kernel trace written to" in output
        assert read_jsonl(path)
        assert read_jsonl(tmp_path / "events_hops.jsonl")

    def test_trace_chrome_inferred_from_extension(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        code = cli.main_experiment(["--delta-ms", "100", "--duration", "5",
                                    "--trace", str(path)])
        assert code == 0
        assert "chrome trace written to" in capsys.readouterr().out
        rows = json.loads(path.read_text())["traceEvents"]
        assert {row["cat"] for row in rows} == {"kernel", "packet"}

    @pytest.mark.parametrize("name", ["events.jsonl", "trace.json"])
    def test_trace_reports_overwritten_records(self, name, tmp_path,
                                               capsys, monkeypatch):
        monkeypatch.setattr("repro.obs.tracer.DEFAULT_CAPACITY", 100)
        code = cli.main_experiment(["--delta-ms", "100", "--duration", "5",
                                    "--trace", str(tmp_path / name)])
        assert code == 0
        output = capsys.readouterr().out
        assert "(100 events" in output  # the ring keeps the last 100
        lost = re.search(r"kernel ring full: the (\d+) earliest of (\d+) "
                         r"event records were lost", output)
        assert lost is not None, output
        assert int(lost[2]) - int(lost[1]) == 100

    def test_no_overwrite_report_below_capacity(self, tmp_path, capsys):
        code = cli.main_experiment(["--delta-ms", "100", "--duration", "5",
                                    "--trace", str(tmp_path / "t.jsonl")])
        assert code == 0
        assert "kernel ring full" not in capsys.readouterr().out

    def test_trace_format_override(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        code = cli.main_experiment(["--delta-ms", "100", "--duration", "5",
                                    "--trace", str(path),
                                    "--trace-format", "jsonl"])
        assert code == 0
        assert read_jsonl(path)  # JSONL despite the .json suffix

    def test_metrics_flag(self, capsys):
        code = cli.main_experiment(["--delta-ms", "100", "--duration", "5",
                                    "--metrics"])
        assert code == 0
        output = capsys.readouterr().out
        assert "metrics (" in output
        assert "netdyn/probes_sent = 50" in output

    def test_manifest_flag(self, tmp_path, capsys):
        path = tmp_path / "manifest.json"
        code = cli.main_experiment(["--delta-ms", "100", "--duration", "5",
                                    "--seed", "2", "--manifest", str(path)])
        assert code == 0
        manifest = json.loads(path.read_text())
        assert manifest["config"]["seed"] == 2
        assert manifest["metrics"]["netdyn"]["probes_sent"] == 50

    def test_observed_run_matches_bare_run(self, tmp_path, capsys):
        bare = tmp_path / "bare.csv"
        observed = tmp_path / "observed.csv"
        cli.main_experiment(["--delta-ms", "100", "--duration", "10",
                             "--seed", "5", "--save-trace", str(bare)])
        cli.main_experiment(["--delta-ms", "100", "--duration", "10",
                             "--seed", "5", "--save-trace", str(observed),
                             "--trace", str(tmp_path / "t.json"),
                             "--metrics"])
        assert bare.read_bytes() == observed.read_bytes()


class TestConfigurationErrors:
    """A bad value becomes a one-line usage error (exit 2), not a
    ConfigurationError traceback, and it is reported before any work."""

    @pytest.mark.parametrize("main, argv, message", [
        (cli.main_experiment, ["--delta-ms", "-5"], "delta must be positive"),
        (cli.main_experiment, ["--duration", "0"],
         "duration must be positive"),
        (cli.main_traceroute, ["--seed", "-1"], "seed must be"),
        (cli.main_figures, ["table1", "--seed", "-1"], "seed must be"),
    ])
    def test_usage_error(self, main, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        last = captured.err.strip().splitlines()[-1]
        assert "error: " in last and message in last


class TestCampaignCli:
    def test_basic_grid(self, capsys):
        code = cli.main_campaign(["--deltas-ms", "100", "--seeds", "1", "2",
                                  "--duration", "5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "1 deltas x 2 seeds = 2 cells" in out
        assert "100ms" in out
        assert "drops" in out  # queue table rendered

    def test_output_dir_artifacts(self, tmp_path, capsys):
        out_dir = tmp_path / "campaign"
        code = cli.main_campaign(["--deltas-ms", "100", "--seeds", "1",
                                  "--duration", "5", "--workers", "2",
                                  "--output-dir", str(out_dir)])
        assert code == 0
        assert (out_dir / "trace_d100_s1.csv").exists()
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["extra"]["traces"] == ["trace_d100_s1.csv"]
        timing = json.loads((out_dir / "timing.json").read_text())
        assert timing["workers"] == 2

    def test_workers_validation(self):
        with pytest.raises(SystemExit):
            cli.main_campaign(["--workers", "0"])

    def test_batch_size_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main_campaign(["--batch-size", "2"])
        assert exc.value.code == 2
        assert "--batch-size" in capsys.readouterr().err

    @pytest.mark.parametrize("grid", [
        ["--deltas-ms", "50", "50"],
        ["--seeds", "1", "1"],
    ])
    def test_repeated_cell_is_a_usage_error(self, grid, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main_campaign(grid + ["--duration", "5"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "d50_s1" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag", ["--output-dir", "--cache-dir",
                                      "--spans"])
    def test_uncreatable_directory_is_a_usage_error(self, flag, tmp_path,
                                                    capsys, monkeypatch):
        ran = []
        monkeypatch.setattr(cli, "run_campaign",
                            lambda *args, **kwargs: ran.append(args))
        blocker = tmp_path / "file"
        blocker.write_text("")
        target = str(blocker / "dir")
        code = cli.main_campaign(["--duration", "1", flag, target])
        assert code == 2
        assert ran == []
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.strip().splitlines() == [
            f"repro-campaign: error: cannot create directory {target}: "
            "Not a directory"]

    def test_negative_seed_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main_campaign(["--seeds", "-1", "--duration", "5"])
        assert exc.value.code == 2
        assert "seed" in capsys.readouterr().err

    def test_cache_dir_flag_warm_run_all_hits(self, tmp_path, capsys):
        args = ["--deltas-ms", "100", "--seeds", "1", "--duration", "5",
                "--cache-dir", str(tmp_path / "cache")]
        assert cli.main_campaign(args) == 0
        assert "cache: 0 hits, 1 miss" in capsys.readouterr().out
        assert cli.main_campaign(args) == 0
        assert "cache: 1 hit, 0 misses" in capsys.readouterr().out

    def test_no_cache_overrides_cache_dir(self, tmp_path, capsys):
        code = cli.main_campaign(
            ["--deltas-ms", "100", "--seeds", "1", "--duration", "5",
             "--cache-dir", str(tmp_path / "cache"), "--no-cache"])
        assert code == 0
        assert "cache:" not in capsys.readouterr().out
        assert not (tmp_path / "cache").exists()

    def test_env_var_default_cache_dir(self, tmp_path, capsys,
                                       monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envcache"))
        code = cli.main_campaign(["--deltas-ms", "100", "--seeds", "1",
                                  "--duration", "5"])
        assert code == 0
        assert "cache: 0 hits, 1 miss" in capsys.readouterr().out
        assert list((tmp_path / "envcache").glob("*.npz"))

    def test_refresh_requires_cache_dir(self):
        with pytest.raises(SystemExit):
            cli.main_campaign(["--refresh"])
        with pytest.raises(SystemExit):
            cli.main_campaign(["--refresh", "--no-cache",
                               "--cache-dir", "somewhere"])

    def test_refresh_recomputes(self, tmp_path, capsys):
        base = ["--deltas-ms", "100", "--seeds", "1", "--duration", "5",
                "--cache-dir", str(tmp_path / "cache")]
        assert cli.main_campaign(base) == 0
        capsys.readouterr()
        assert cli.main_campaign(base + ["--refresh"]) == 0
        assert "cache: 0 hits, 1 miss" in capsys.readouterr().out

    def test_spans_flag_writes_span_artifacts(self, tmp_path, capsys):
        out_dir = tmp_path / "campaign"
        code = cli.main_campaign(["--deltas-ms", "100", "--seeds", "1",
                                  "--duration", "5",
                                  "--output-dir", str(out_dir), "--spans"])
        assert code == 0
        assert "spans written to" in capsys.readouterr().out
        assert (out_dir / "spans" / "spans.jsonl").exists()
        assert (out_dir / "spans" / "trace.json").exists()

    def test_spans_explicit_directory(self, tmp_path, capsys):
        span_dir = tmp_path / "telemetry"
        code = cli.main_campaign(["--deltas-ms", "100", "--seeds", "1",
                                  "--duration", "5",
                                  "--spans", str(span_dir)])
        assert code == 0
        assert (span_dir / "spans.jsonl").exists()

    def test_spans_without_output_dir_rejected(self):
        with pytest.raises(SystemExit):
            cli.main_campaign(["--spans"])

    def test_progress_flags_mutually_exclusive(self):
        with pytest.raises(SystemExit):
            cli.main_campaign(["--progress", "--no-progress"])

    def test_progress_auto_off_when_not_a_tty(self, capsys):
        # pytest's captured stderr is not a TTY, so the default (auto)
        # must not draw progress lines into it.
        code = cli.main_campaign(["--deltas-ms", "100", "--seeds", "1",
                                  "--duration", "5"])
        assert code == 0
        assert "\r" not in capsys.readouterr().err

    def test_progress_forced_on(self, capsys):
        code = cli.main_campaign(["--deltas-ms", "100", "--seeds", "1",
                                  "--duration", "5", "--progress"])
        assert code == 0
        err = capsys.readouterr().err
        assert "campaign 1/1 cells" in err

    def test_no_progress_silences(self, capsys):
        code = cli.main_campaign(["--deltas-ms", "100", "--seeds", "1",
                                  "--duration", "5", "--no-progress"])
        assert code == 0
        assert capsys.readouterr().err == ""


class TestFiguresCli:
    def test_single_figure(self, capsys):
        code = cli.main_figures(["table1"])
        assert code == 0
        output = capsys.readouterr().out
        assert "Table 1" in output
        assert "comparison rows passed" in output

    def test_render_flag(self, capsys):
        cli.main_figures(["table1", "--render"])
        output = capsys.readouterr().out
        assert "tom.inria.fr" in output

    def test_unknown_name_rejected(self):
        with pytest.raises(SystemExit):
            cli.main_figures(["figure99"])

    def test_export_dir_writes_csv(self, tmp_path, capsys):
        code = cli.main_figures(["figure1", "--export-dir", str(tmp_path)])
        assert code == 0
        written = sorted(p.name for p in tmp_path.iterdir())
        assert "figure1_trace.csv" in written
        assert "figure1_phase.csv" in written
        assert "figure1_workload_hist.csv" in written
        from repro.netdyn.trace import ProbeTrace
        trace = ProbeTrace.load_csv(tmp_path / "figure1_trace.csv")
        assert len(trace) == 800


TOY_SUITE = '''\
from repro.obs.bench import build_report, metric

SUITE = "toy"


def run_suite(quick=False):
    return build_report(SUITE,
                        {"speed": metric(2.0 if quick else 4.0, "x")},
                        mode="quick" if quick else "full",
                        salt="repro-cell-v2-toy")
'''


class TestBenchCli:
    @pytest.fixture()
    def bench_dir(self, tmp_path):
        directory = tmp_path / "benchmarks"
        directory.mkdir()
        (directory / "toy_suite.py").write_text(TOY_SUITE)
        (directory / "test_perf_toy.py").write_text(
            "SUITE = 'ignored'\n")  # test_ files are never suites
        (directory / "helper.py").write_text("def nothing():\n    pass\n")
        return directory

    def test_run_discovers_and_writes_report(self, bench_dir, capsys):
        code = cli.main_bench(["run", "--benchmarks-dir", str(bench_dir)])
        assert code == 0
        out = capsys.readouterr().out
        assert "toy: speed=4 x" in out
        from repro.obs.bench import read_report
        report = read_report(bench_dir / "BENCH_toy.json")
        assert report["suite"] == "toy"
        assert report["mode"] == "full"

    def test_run_quick_mode(self, bench_dir, capsys):
        code = cli.main_bench(["run", "toy", "--quick",
                               "--benchmarks-dir", str(bench_dir)])
        assert code == 0
        from repro.obs.bench import read_report
        report = read_report(bench_dir / "BENCH_toy.json")
        assert report["mode"] == "quick"
        assert report["metrics"]["speed"]["value"] == 2.0

    def test_run_separate_output_dir(self, bench_dir, tmp_path, capsys):
        out_dir = tmp_path / "artifacts"
        code = cli.main_bench(["run", "toy",
                               "--benchmarks-dir", str(bench_dir),
                               "--output-dir", str(out_dir)])
        assert code == 0
        assert (out_dir / "BENCH_toy.json").exists()
        assert not (bench_dir / "BENCH_toy.json").exists()

    def test_run_unknown_suite_rejected(self, bench_dir):
        with pytest.raises(SystemExit):
            cli.main_bench(["run", "nope",
                            "--benchmarks-dir", str(bench_dir)])

    def test_real_benchmarks_dir_discovered(self, tmp_path, capsys):
        # The repo's own benchmarks/ must expose all five suites without
        # running them: unknown-suite errors list what was discovered.
        with pytest.raises(SystemExit):
            cli.main_bench(["run", "definitely-not-a-suite"])
        err = capsys.readouterr().err
        available = err.rsplit("available: ", 1)[1].split()
        assert [name.rstrip(",") for name in available] \
            == ["cache", "campaign", "fastforward", "kernel", "obs"]

    def compare(self, tmp_path, old_value, new_value, threshold=None):
        from repro.obs.bench import build_report, metric, write_report
        old = tmp_path / "old.json"
        new = tmp_path / "new.json"
        write_report(build_report(
            "toy", {"speed": metric(old_value, "x")},
            salt="repro-cell-v2-toy"), old)
        write_report(build_report(
            "toy", {"speed": metric(new_value, "x")},
            salt="repro-cell-v2-toy"), new)
        args = ["compare", str(old), str(new)]
        if threshold is not None:
            args += ["--threshold", str(threshold)]
        return cli.main_bench(args)

    def test_compare_identical_passes(self, tmp_path, capsys):
        assert self.compare(tmp_path, 4.0, 4.0) == 0
        out = capsys.readouterr().out
        assert "ok  speed" in out
        assert "0 regression(s)" in out

    def test_compare_regression_exits_non_zero(self, tmp_path, capsys):
        # Acceptance criterion: a >= 10% injected regression fails.
        assert self.compare(tmp_path, 4.0, 3.5) == 1
        out = capsys.readouterr().out
        assert "REGRESSION  speed" in out
        assert "1 regression(s)" in out

    def test_compare_threshold_flag(self, tmp_path, capsys):
        assert self.compare(tmp_path, 4.0, 3.5, threshold=0.2) == 0

    def test_compare_unreadable_report_exits_two(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.json"
        bogus.write_text("{}")
        code = cli.main_bench(["compare", str(bogus), str(bogus)])
        assert code == 2
        assert "repro-bench:" in capsys.readouterr().err


class TestTracerouteCli:
    def test_inria_route(self, capsys):
        code = cli.main_traceroute(["--scenario", "inria-umd"])
        assert code == 0
        output = capsys.readouterr().out
        assert "Ithaca.NY.NSS.NSF.NET" in output
        assert "mimsy.umd.edu" in output

    def test_pitt_route(self, capsys):
        code = cli.main_traceroute(["--scenario", "umd-pitt"])
        assert code == 0
        assert "pitt" in capsys.readouterr().out
