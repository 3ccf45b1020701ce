"""Command-line entry points.

Installed as console scripts (see pyproject) and usable via ``python -m``:

* ``repro-experiment`` — run one probe experiment and print its analysis.
* ``repro-campaign`` — run a (δ × seed) campaign grid, optionally parallel.
* ``repro-figures`` — regenerate any/all paper figures and tables.
* ``repro-traceroute`` — traceroute over a calibrated simulated topology.
* ``repro-echo`` — run a live UDP echo server (real sockets).
* ``repro-audit`` — static-analysis lint of the determinism/unit invariants.
* ``repro-bench`` — run benchmark suites / compare two BENCH reports.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import TYPE_CHECKING, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.obs import Observability

from repro.analysis.loss import loss_stats
from repro.analysis.phase import estimate_bottleneck_mu
from repro.analysis.timeseries import summarize
from repro.errors import ConfigurationError
from repro.experiments.cache import CampaignCache, cache_salt
from repro.experiments.campaign import CampaignSpec, run_campaign
from repro.experiments.config import SCENARIO_BUILDERS, ExperimentConfig
from repro.experiments.figures import ALL_FIGURES
from repro.experiments.report import as_text, run_all
from repro.experiments.runner import (
    build_scenario,
    run_experiment,
    run_observed_experiment,
)
from repro.obs.spans import (
    CHROME_SPAN_FILE,
    MERGED_SPAN_FILE,
    resolve_span_dir,
)
from repro.tools.traceroute import format_route_table, traceroute
from repro.units import bps_to_kbps, ms, seconds_to_ms


def main_experiment(argv: Optional[Sequence[str]] = None) -> int:
    """Run one probe experiment and print delay/loss analysis."""
    parser = argparse.ArgumentParser(
        prog="repro-experiment",
        description="Probe a simulated paper topology with NetDyn.")
    parser.add_argument("--delta-ms", type=float, default=50.0,
                        help="probe interval in milliseconds (default 50)")
    parser.add_argument("--duration", type=float, default=120.0,
                        help="probe-train length in seconds (default 120)")
    parser.add_argument("--scenario", choices=tuple(SCENARIO_BUILDERS),
                        default="inria-umd")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--mode", choices=("event", "analytic"),
                        default="event",
                        help="execution mode: exact event simulation "
                             "(default) or the analytic bottleneck "
                             "fast-forward (falls back to event when the "
                             "scenario is not aggregatable)")
    parser.add_argument("--save-trace", metavar="PATH",
                        help="write the trace as CSV")
    parser.add_argument("--trace", metavar="FILE",
                        help="record kernel + packet-lifecycle tracing and "
                             "write it to FILE (.json = Chrome trace_event, "
                             "anything else = JSONL)")
    parser.add_argument("--trace-format", choices=("jsonl", "chrome"),
                        help="override the trace format inferred from the "
                             "--trace extension")
    parser.add_argument("--metrics", action="store_true",
                        help="print the metrics-registry snapshot after "
                             "the run")
    parser.add_argument("--manifest", metavar="PATH",
                        help="write a run manifest (config, seed, versions, "
                             "metrics) as JSON")
    args = parser.parse_args(argv)

    try:
        config = ExperimentConfig(delta=ms(args.delta_ms),
                                  duration=args.duration, seed=args.seed,
                                  scenario=args.scenario, mode=args.mode)
    except ConfigurationError as exc:
        parser.error(str(exc))
    observed = bool(args.trace or args.metrics or args.manifest)
    if observed and args.mode == "analytic":
        parser.error("--trace/--metrics/--manifest record event-kernel "
                     "activity; they cannot combine with --mode analytic")
    obs = None
    if observed:
        trace, _scenario, obs = run_observed_experiment(
            config, trace=bool(args.trace))
    else:
        trace = run_experiment(config)
    stats = loss_stats(trace)
    delay = summarize(trace)
    print(f"probes sent: {len(trace)}  (delta = {args.delta_ms:g} ms)")
    print(f"delay ms: min {seconds_to_ms(delay.minimum):.1f}  "
          f"mean {seconds_to_ms(delay.mean):.1f}  "
          f"p99 {seconds_to_ms(delay.p99):.1f}  "
          f"max {seconds_to_ms(delay.maximum):.1f}")
    print(f"loss: ulp {stats.ulp:.3f}  clp {stats.clp:.3f}  "
          f"plg {stats.plg:.2f}")
    mu = estimate_bottleneck_mu(trace, mu_hint=float(
        trace.meta.get("mu_bps", 128e3)))
    if mu:
        print(f"bottleneck estimate: {bps_to_kbps(mu):.0f} kb/s")
    if args.save_trace:
        trace.save_csv(args.save_trace)
        print(f"trace written to {args.save_trace}")
    if obs is not None:
        _emit_observability(args, config, obs)
    return 0


def _emit_observability(args: argparse.Namespace, config: ExperimentConfig,
                        obs: "Observability") -> None:
    """Write/print whatever --trace / --metrics / --manifest asked for."""
    from pathlib import Path

    from repro.obs.export import write_chrome_trace, write_jsonl
    from repro.obs.manifest import write_manifest

    if args.trace:
        path = Path(args.trace)
        fmt = args.trace_format or (
            "chrome" if path.suffix == ".json" else "jsonl")
        assert obs.kernel is not None and obs.lifecycle is not None
        if fmt == "chrome":
            write_chrome_trace(path, events=obs.kernel.records,
                               hops=obs.lifecycle.records)
            print(f"chrome trace written to {path} "
                  f"({len(obs.kernel)} events, "
                  f"{len(obs.lifecycle.records)} hops)")
        else:
            write_jsonl(obs.kernel.records, path)
            hops_path = path.with_name(
                path.stem + "_hops" + (path.suffix or ".jsonl"))
            write_jsonl(obs.lifecycle.records, hops_path)
            print(f"kernel trace written to {path} "
                  f"({len(obs.kernel)} events)")
            print(f"packet hops written to {hops_path} "
                  f"({len(obs.lifecycle.records)} hops)")
        if obs.kernel.overwritten:
            print(f"kernel ring full: the {obs.kernel.overwritten} earliest "
                  f"of {obs.kernel.events_seen} event records were lost")
    if args.metrics:
        flat = obs.registry.flat_snapshot()
        shown = {name: value for name, value in flat.items() if value}
        print(f"\nmetrics ({len(shown)} non-zero of {len(flat)}):")
        for name in sorted(shown):
            value = shown[name]
            rendered = f"{value:.6g}" if isinstance(value, float) \
                else str(value)
            print(f"  {name} = {rendered}")
    if args.manifest:
        write_manifest(args.manifest, config=config, metrics=obs.snapshot())
        print(f"manifest written to {args.manifest}")


def main_campaign(argv: Optional[Sequence[str]] = None) -> int:
    """Run a (δ × seed) campaign grid and print its summary tables."""
    parser = argparse.ArgumentParser(
        prog="repro-campaign",
        description="Run a grid of probe experiments (δ × seed), "
                    "optionally fanned out over worker processes.  "
                    "Parallel and serial execution produce identical "
                    "results; only timing.json differs.")
    parser.add_argument("--deltas-ms", type=float, nargs="+",
                        default=[50.0], metavar="MS",
                        help="probe intervals in milliseconds "
                             "(default: 50)")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1],
                        metavar="SEED",
                        help="seeds replicating each delta (default: 1)")
    parser.add_argument("--duration", type=float, default=120.0,
                        help="probe-train length per cell in seconds "
                             "(default 120)")
    parser.add_argument("--scenario", choices=tuple(SCENARIO_BUILDERS),
                        default="inria-umd")
    parser.add_argument("--mode", choices=("event", "analytic"),
                        default="event",
                        help="execution mode for every cell: exact event "
                             "simulation (default) or the analytic "
                             "bottleneck fast-forward.  The mode is part "
                             "of each cell's cache fingerprint")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes for the grid (default 1: "
                             "every lease of cells runs in this process; "
                             "N > 1: a warm pool of N salt-verified "
                             "workers runs them).  "
                             "Analytic grids are leased seed by seed so "
                             "each seed's cross-traffic replay is reused "
                             "across its deltas.  Artifacts are "
                             "byte-identical for any worker count")
    parser.add_argument("--output-dir", metavar="DIR",
                        help="write per-cell trace CSVs, manifest.json, "
                             "and timing.json into DIR")
    parser.add_argument("--cache-dir", metavar="DIR",
                        help="content-addressed cell cache: cells already "
                             "cached here are loaded, not re-simulated; "
                             "fresh results are stored back (default: "
                             "$REPRO_CACHE_DIR when set, else no cache)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the cell cache even when --cache-dir "
                             "or $REPRO_CACHE_DIR is set")
    parser.add_argument("--refresh", action="store_true",
                        help="re-simulate every cell and overwrite its "
                             "cache entry (requires a cache directory)")
    parser.add_argument("--spans", nargs="?", const=True, default=None,
                        metavar="DIR",
                        help="record per-phase spans; merged spans.jsonl "
                             "and Chrome trace.json land in DIR (default: "
                             "OUTPUT_DIR/spans; requires --output-dir when "
                             "DIR is omitted).  Span timing goes to "
                             "timing.json only — deterministic artifacts "
                             "stay byte-identical")
    progress_group = parser.add_mutually_exclusive_group()
    progress_group.add_argument("--progress", action="store_true",
                                default=None,
                                help="force the live progress line on "
                                     "(default: on when stderr is a TTY)")
    progress_group.add_argument("--no-progress", dest="progress",
                                action="store_false",
                                help="disable the live progress line")
    args = parser.parse_args(argv)
    if args.workers < 1:
        parser.error(f"--workers must be >= 1, got {args.workers}")
    if args.spans is True and not args.output_dir:
        parser.error("--spans without a directory requires --output-dir")
    cache_dir = None if args.no_cache else (
        args.cache_dir or os.environ.get("REPRO_CACHE_DIR") or None)
    if args.refresh and cache_dir is None:
        parser.error("--refresh needs a cache directory "
                     "(--cache-dir or $REPRO_CACHE_DIR), and conflicts "
                     "with --no-cache")

    try:
        spec = CampaignSpec(deltas=tuple(ms(d) for d in args.deltas_ms),
                            seeds=tuple(args.seeds), duration=args.duration,
                            scenario=args.scenario,
                            output_dir=args.output_dir, mode=args.mode)
    except ConfigurationError as exc:
        parser.error(str(exc))
    from pathlib import Path
    span_dir = resolve_span_dir(args.spans, args.output_dir)
    # A directory that cannot be made is a usage error, reported before
    # any cell runs; an OSError later in the run still propagates.
    for directory in (args.output_dir, cache_dir, span_dir):
        if directory:
            try:
                Path(directory).mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                print(f"repro-campaign: error: cannot create directory "
                      f"{directory}: {exc.strerror or exc}", file=sys.stderr)
                return 2
    cache = CampaignCache(cache_dir, refresh=args.refresh) \
        if cache_dir else None
    progress = {None: "auto", True: "on", False: "off"}[args.progress]
    result = run_campaign(spec, workers=args.workers, cache=cache,
                          spans=args.spans, progress=progress)
    cells = len(spec.deltas) * len(spec.seeds)
    print(f"campaign: {len(spec.deltas)} deltas x {len(spec.seeds)} seeds "
          f"= {cells} cells ({args.workers} worker"
          f"{'s' if args.workers != 1 else ''}, "
          f"{sum(result.cell_wall_seconds.values()):.1f}s of cell work)")
    if result.cache_stats is not None:
        stats = result.cache_stats
        print(f"cache: {stats['hits']} hit"
              f"{'s' if stats['hits'] != 1 else ''}, "
              f"{stats['misses']} miss"
              f"{'es' if stats['misses'] != 1 else ''} "
              f"({stats['saved_cell_seconds']:.1f}s of cell work saved, "
              f"{stats['directory']})")
        if cache is not None:
            print(f"cache salt: {cache_salt()} (digest of the sources)")
    print()
    print(result.table())
    print()
    print(result.queue_table())
    if args.output_dir:
        print(f"\n{cells} trace CSVs + manifest.json + timing.json "
              f"written to {args.output_dir}")
    if span_dir is not None:
        print(f"spans written to {span_dir} "
              f"({MERGED_SPAN_FILE} + {CHROME_SPAN_FILE})")
    return 0


def main_figures(argv: Optional[Sequence[str]] = None) -> int:
    """Regenerate paper figures/tables and print the comparison report."""
    parser = argparse.ArgumentParser(
        prog="repro-figures",
        description="Reproduce the paper's tables and figures.")
    parser.add_argument("names", nargs="*",
                        help=f"subset to run (default all): "
                             f"{', '.join(ALL_FIGURES)}")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--render", action="store_true",
                        help="print ASCII figures, not just comparisons")
    parser.add_argument("--export-dir", metavar="DIR",
                        help="write each figure's data as CSV into DIR")
    args = parser.parse_args(argv)

    unknown = [n for n in args.names if n not in ALL_FIGURES]
    if unknown:
        parser.error(f"unknown figure names: {unknown}")
    try:
        # Each driver builds its configs before simulating anything, so a
        # bad --seed is reported here before any work is done.
        results = run_all(only=args.names or None, seed=args.seed)
    except ConfigurationError as exc:
        parser.error(str(exc))
    print(as_text(results, renderings=args.render))
    if args.export_dir:
        from repro.experiments.report import export_results
        written = export_results(results, args.export_dir)
        print(f"\n{len(written)} data files written to {args.export_dir}")
    return 0 if all(r.all_ok for r in results) else 1


def main_traceroute(argv: Optional[Sequence[str]] = None) -> int:
    """traceroute across a calibrated simulated topology."""
    parser = argparse.ArgumentParser(
        prog="repro-traceroute",
        description="Run traceroute over a simulated paper topology.")
    parser.add_argument("--scenario", choices=tuple(SCENARIO_BUILDERS),
                        default="inria-umd")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    try:
        config = ExperimentConfig(delta=0.05, seed=args.seed,
                                  scenario=args.scenario)
    except ConfigurationError as exc:
        parser.error(str(exc))
    scenario = build_scenario(config)
    hops = traceroute(scenario.network, scenario.source, scenario.echo)
    print(format_route_table(
        hops, title=f"traceroute {scenario.source} -> {scenario.echo}"))
    return 0


def main_echo(argv: Optional[Sequence[str]] = None) -> int:
    """Run a live NetDyn echo server on real UDP sockets."""
    parser = argparse.ArgumentParser(
        prog="repro-echo",
        description="Run a NetDyn-compatible UDP echo server.")
    parser.add_argument("--host", default="0.0.0.0")
    parser.add_argument("--port", type=int, default=5201)
    args = parser.parse_args(argv)
    import asyncio  # only the live echo server needs an event loop

    async def serve() -> None:
        from repro.netdyn.live import serve_echo
        transport, _protocol = await serve_echo(args.host, args.port)
        print(f"echo server on {args.host}:{args.port} (ctrl-C to stop)")
        try:
            await asyncio.Event().wait()
        finally:
            transport.close()

    try:
        asyncio.run(serve())
    except KeyboardInterrupt:
        pass
    return 0


def main_audit(argv: Optional[Sequence[str]] = None) -> int:
    """Run the devtools static analyzer (see repro.devtools.audit)."""
    from repro.devtools.audit import main
    return main(argv)


def _discover_suites(benchmarks_dir: "Path") -> "dict":
    """Map suite name -> loaded module for every benchmark script.

    A benchmark script participates by defining module-level ``SUITE``
    (its name) and ``run_suite(quick=False)`` returning a report in the
    shared :mod:`repro.obs.bench` schema.  Scripts are loaded by path so
    ``benchmarks/`` needs no package machinery.
    """
    import importlib.util

    suites = {}
    for path in sorted(benchmarks_dir.glob("*.py")):
        if path.name.startswith("test_"):
            continue
        spec = importlib.util.spec_from_file_location(
            f"repro_bench_{path.stem}", path)
        if spec is None or spec.loader is None:  # pragma: no cover
            continue
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        suite = getattr(module, "SUITE", None)
        if suite and callable(getattr(module, "run_suite", None)):
            suites[suite] = module
    return suites


def main_bench(argv: Optional[Sequence[str]] = None) -> int:
    """Run benchmark suites or compare two BENCH reports."""
    from pathlib import Path

    from repro.errors import AnalysisError
    from repro.obs.bench import (
        DEFAULT_THRESHOLD,
        compare_reports,
        format_comparison,
        read_report,
        write_report,
    )

    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Run benchmark suites (writing schema-versioned "
                    "BENCH_<suite>.json reports) or compare two reports "
                    "for regressions.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser(
        "run", help="run one or more benchmark suites")
    run_parser.add_argument("suites", nargs="*", metavar="SUITE",
                            help="suites to run (default: all discovered "
                                 "in the benchmarks directory)")
    run_parser.add_argument("--benchmarks-dir", default="benchmarks",
                            metavar="DIR",
                            help="directory holding the benchmark scripts "
                                 "(default: benchmarks)")
    run_parser.add_argument("--output-dir", metavar="DIR",
                            help="write BENCH_<suite>.json here "
                                 "(default: the benchmarks directory)")
    run_parser.add_argument("--quick", action="store_true",
                            help="shrink workloads for smoke testing; "
                                 "reports are marked mode=quick")

    compare_parser = sub.add_parser(
        "compare", help="compare two BENCH reports for regressions")
    compare_parser.add_argument("old", help="baseline BENCH_*.json")
    compare_parser.add_argument("new", help="candidate BENCH_*.json")
    compare_parser.add_argument("--threshold", type=float,
                                default=DEFAULT_THRESHOLD, metavar="FRAC",
                                help="relative worsening that counts as a "
                                     "regression (default: "
                                     f"{DEFAULT_THRESHOLD:g})")
    args = parser.parse_args(argv)

    if args.command == "run":
        benchmarks_dir = Path(args.benchmarks_dir)
        if not benchmarks_dir.is_dir():
            parser.error(f"not a directory: {benchmarks_dir}")
        suites = _discover_suites(benchmarks_dir)
        if not suites:
            parser.error(f"no benchmark suites found in {benchmarks_dir}")
        selected = args.suites or sorted(suites)
        unknown = [name for name in selected if name not in suites]
        if unknown:
            parser.error(f"unknown suites {unknown}; available: "
                         f"{', '.join(sorted(suites))}")
        output_dir = Path(args.output_dir) if args.output_dir \
            else benchmarks_dir
        output_dir.mkdir(parents=True, exist_ok=True)
        for name in selected:
            report = suites[name].run_suite(quick=args.quick)
            out = output_dir / f"BENCH_{name}.json"
            write_report(report, out)
            rendered = ", ".join(
                f"{metric_name}={entry['value']:g} {entry['unit']}"
                for metric_name, entry in sorted(
                    report["metrics"].items()))
            print(f"{name}: {rendered}")
            print(f"  written to {out}")
        return 0

    try:
        old = read_report(args.old)
        new = read_report(args.new)
        comparison = compare_reports(old, new, threshold=args.threshold)
    except (AnalysisError, OSError) as exc:
        print(f"repro-bench: {exc}", file=sys.stderr)
        return 2
    print(format_comparison(comparison))
    return 1 if comparison["regressions"] else 0


if __name__ == "__main__":  # pragma: no cover - manual dispatch
    sys.exit(main_figures())
