"""Command-line interface.

``python -m repro <command>`` drives the pipeline from a shell:

- ``run``      — run the full pipeline and print the headline tables;
  ``--workers N`` shards the observation+curation stage across a worker
  pool, ``--stats`` appends the execution report, ``--stats --json``
  emits it machine-readable for benchmark trajectories.  Observability
  exports: ``--journal RUN.jsonl`` streams the JSONL run journal,
  ``--trace TRACE.json`` writes a Chrome ``trace_event`` file (open in
  ``chrome://tracing`` or Perfetto), ``--metrics-json METRICS.json``
  dumps the metrics registry snapshot.  Resilience:
  ``--inject-faults SPEC`` runs deterministic chaos against the data
  sources, ``--max-retries N`` sets the retry budget, and
  ``--fail-fast``/``--degrade`` choose between aborting on an exhausted
  source and quarantining it (see :mod:`repro.resilience`).
- ``stream``   — run the same pipeline incrementally: bins replay under
  a watermark advancing ``--step`` at a time, live
  ``open``/``update``/``close`` event lifecycles print as they happen
  (``--events`` for every record), and the finalized result is
  byte-identical to ``run``.  ``--inject-faults`` runs chaos against
  the bin source; ``--journal`` records every lifecycle event as a
  ``stream.event`` line and ``--heartbeat`` adds live ``stream``
  blocks (watermark, lag, open events) to the heartbeats.
- ``report``   — regenerate EXPERIMENTS.md.
- ``export``   — write the curated records and harmonized KIO events to
  JSON files (the paper's released dataset artifact).
- ``signals``  — print an ASCII rendering of a country's three signals
  over a UTC time window.
- ``triage``   — run the §7 triage heuristic over the most recent curated
  events.
- ``explain``  — render the full decision chain behind one curated (or
  dismissed) record from a provenance-enabled run's journal:
  ``repro explain RUN RECORD_ID`` (a global record id or a capsule id
  prefix; RUN is a journal path or a registered run ID).
- ``trace``    — ``trace summarize RUN`` replays a run journal (a path
  or a registered run ID) and prints the slowest spans and hottest
  counters; ``trace diff A B`` attributes the wall-time delta between
  two runs to specific span paths (top-N regressed/improved).
- ``health``   — replay the fidelity scorecard journaled by a run
  (``repro health RUN``); exits non-zero on a ``fail`` grade.
- ``runs``     — the cross-run registry (``--runs-dir``): ``runs list``
  renders the trend table across registered runs, ``runs show RUN``
  one run's record (capsule counts and decision tallies included),
  ``runs diff A B`` an exact config and fidelity comparison of two
  registered runs or committed baselines (a baseline JSON path, or a
  name under ``benchmarks/baselines/``; add ``--provenance`` to
  attribute the record delta between two runs to the earliest flipped
  curation decision), and ``runs register RUN.jsonl`` files an
  existing journal.
- ``metrics``  — ``metrics export RUN`` emits the run's final metrics
  snapshot as OpenMetrics/Prometheus text exposition.
- ``serve``    — the async serving layer: ``serve build`` precomputes a
  run's content-addressed artifact store (event feeds, signal tiles,
  reports; blake2b addresses double as HTTP ETags), ``serve run``
  serves it over HTTP until interrupted, and ``serve loadgen`` replays
  a seeded deterministic traffic mix (``--mix
  dashboard|events|zoom``) at ``--concurrency`` simulated clients —
  in-process, ``--tcp`` against a private spawned server, or ``--url``
  against a running one — printing the SLO report (p50/p99 per route,
  throughput, cache hit-rate) with ``--record``/``--compare`` gating
  its request/response counts against a stored baseline.

``run`` also accepts ``--profile`` (per-span CPU/RSS readings into the
span attributes and journal) and ``--profile-alloc DEPTH`` (add
tracemalloc allocation deltas captured at the given stack depth), plus
``--health`` to print the run's fidelity scorecard, ``--heartbeat
INTERVAL`` to stream live ``heartbeat`` events into the journal while
the run executes, and ``--runs-dir`` (global) to file the journal into
the run registry under a content-addressed run ID.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path
from typing import Optional, Sequence

from repro.analysis import (
    analyze_temporal,
    group_country_years,
    observability_table,
    summarize_merged,
)
from repro.analysis.report import build_report, render_markdown
from repro.core.heuristics import ShutdownTriage
from repro import api
from repro.errors import ConfigurationError, ResilienceError, SignalError
from repro.exec import BACKENDS
from repro.resilience import ResilienceConfig, RetryPolicy
from repro.io import dump_kio_events, dump_records, dump_records_csv
from repro.obs import BASELINE_DIR, HealthReport, Observability, \
    PerfBaseline, ProfileConfig, ProvenanceError, RunRegistry, \
    compare_baselines, diff_events, diff_provenance, explain_record, \
    load_baseline, parse_interval, read_journal, save_baseline, \
    snapshot_to_openmetrics, summarize_events, write_chrome_trace
from repro.ioda.platform import IODAPlatform
from repro.signals.entities import Entity
from repro.signals.kinds import SignalKind
from repro.timeutils.timestamps import TimeRange, parse_utc
from repro.world.scenario import STUDY_PERIOD, ScenarioConfig, \
    ScenarioGenerator

__all__ = ["main", "build_parser"]

YEARS = [2018, 2019, 2020, 2021]


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Destination Unreachable' "
                    "(SIGCOMM 2023)")
    parser.add_argument("--seed", type=int, default=2023,
                        help="scenario seed (default 2023)")
    parser.add_argument("--cache-dir", type=Path, default=Path(".cache"),
                        help="curation cache directory (default .cache)")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker pool size for the sharded "
                             "observation+curation stage (default 1)")
    parser.add_argument("--backend", choices=BACKENDS, default="process",
                        help="worker pool backend with --workers 2 or "
                             "more (default process); one worker runs "
                             "serially")
    parser.add_argument("--shards", type=int, default=None,
                        help="shard count override (default: engine "
                             "default, independent of --workers)")
    parser.add_argument("--runs-dir", type=Path, default=None,
                        dest="runs_dir", metavar="DIR",
                        help="run-registry directory: 'repro run' files "
                             "its journal there under a "
                             "content-addressed run ID, and the "
                             "trace/health/runs/metrics commands "
                             "resolve run IDs against it (read "
                             "commands default to runs/)")
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run",
                              help="run the pipeline, print summaries")
    run.add_argument("--stats", action="store_true",
                     help="print the execution report (stage wall time, "
                          "cache hits/misses, shard skew)")
    run.add_argument("--json", action="store_true",
                     help="with --stats, emit the report as JSON only")
    run.add_argument("--trace", type=Path, default=None, metavar="PATH",
                     help="write a Chrome trace_event JSON of the run "
                          "(open in chrome://tracing or Perfetto)")
    run.add_argument("--journal", type=Path, default=None, metavar="PATH",
                     help="stream a JSONL run journal (replay with "
                          "'repro trace summarize PATH')")
    run.add_argument("--metrics-json", type=Path, default=None,
                     metavar="PATH", dest="metrics_json",
                     help="write the metrics registry snapshot as JSON")
    run.add_argument("--inject-faults", metavar="SPEC", default=None,
                     dest="inject_faults",
                     help="deterministically inject source faults; SPEC "
                          "is ';'-joined key=value clauses, e.g. "
                          "'fail_first=2;seed=5', 'rate=0.1', "
                          "'permanent=SY+IR' (lists use '+'); implies "
                          "an uncached curate stage")
    run.add_argument("--max-retries", type=int, default=None,
                     dest="max_retries", metavar="N",
                     help="retry budget per source operation "
                          "(default 3; enables the resilience layer)")
    failure_mode = run.add_mutually_exclusive_group()
    failure_mode.add_argument(
        "--fail-fast", dest="fail_fast", action="store_true",
        help="abort the run on the first source that exhausts its "
             "retries")
    failure_mode.add_argument(
        "--degrade", dest="fail_fast", action="store_false",
        help="quarantine exhausted countries and merge the survivors, "
             "reporting degraded=True (the default)")
    run.set_defaults(fail_fast=False)
    run.add_argument("--profile", action="store_true",
                     help="sample per-span CPU time and peak-RSS growth "
                          "into span attributes (and the journal as "
                          "'profile' events); never perturbs results")
    run.add_argument("--profile-alloc", type=int, default=None,
                     metavar="DEPTH", dest="profile_alloc",
                     help="also trace Python allocations per span via "
                          "tracemalloc, capturing DEPTH stack frames "
                          "per site (implies --profile; slower)")
    run.add_argument("--health", action="store_true",
                     help="print the run's fidelity scorecard (with "
                          "--stats --json, embed it under a 'health' "
                          "key)")
    run.add_argument("--heartbeat", metavar="INTERVAL", default=None,
                     help="stream live 'heartbeat' events (shard "
                          "progress + ETA, open spans, counter deltas, "
                          "histogram tails, RSS/CPU) into the run "
                          "journal every INTERVAL (e.g. 1s, 500ms); "
                          "heartbeats are journal-only, so pair with "
                          "--journal or --runs-dir")
    run.add_argument("--provenance", action="store_true",
                     help="capture a lineage capsule at every curation "
                          "decision point (journaled as 'provenance' "
                          "events; render one with 'repro explain'); "
                          "journal-only, so pair with --journal or "
                          "--runs-dir")
    run.add_argument("--run-name", dest="run_name", default=None,
                     metavar="NAME",
                     help="label for the registry entry (with "
                          "--runs-dir; default: the run ID prefix)")
    stream = commands.add_parser(
        "stream",
        help="run the pipeline incrementally under an advancing "
             "watermark, printing the live event lifecycle")
    stream.add_argument("--step", default="7d", metavar="SPAN",
                        help="watermark step per advance (e.g. 12h, "
                             "7d, 604800; default 7d)")
    stream.add_argument("--events", action="store_true",
                        help="print every open/update/close lifecycle "
                             "event as it is emitted (default: one "
                             "progress line per advance)")
    stream.add_argument("--journal", type=Path, default=None,
                        metavar="PATH",
                        help="stream the run journal (stream.event "
                             "lines included) to PATH")
    stream.add_argument("--inject-faults", metavar="SPEC", default=None,
                        dest="inject_faults",
                        help="deterministic chaos against the bin "
                             "source (site stream.source); a recovered "
                             "stream finalizes byte-identical")
    stream.add_argument("--max-retries", type=int, default=None,
                        dest="max_retries",
                        help="retry budget per unit of work")
    stream.add_argument("--heartbeat", metavar="INTERVAL", default=None,
                        help="live heartbeats with a 'stream' block "
                             "(watermark, lag, open events); "
                             "journal-only, pair with --journal or "
                             "--runs-dir")
    stream.add_argument("--health", action="store_true",
                        help="print the finalized run's fidelity "
                             "scorecard")
    stream.add_argument("--provenance", action="store_true",
                        help="capture lineage capsules; every "
                             "journaled lifecycle event references its "
                             "capsule_id (journal-only, pair with "
                             "--journal or --runs-dir)")
    stream.add_argument("--run-name", dest="run_name", default=None,
                        metavar="NAME",
                        help="label for the registry entry (with "
                             "--runs-dir)")

    report = commands.add_parser(
        "report", help="regenerate the EXPERIMENTS.md comparison")
    report.add_argument("--output", type=Path,
                        default=Path("EXPERIMENTS.md"))

    export = commands.add_parser(
        "export", help="export curated records and KIO events to JSON")
    export.add_argument("--output-dir", type=Path, default=Path("export"))

    figures = commands.add_parser(
        "figures", help="export every figure's data series as CSV")
    figures.add_argument("--output-dir", type=Path,
                         default=Path("figures"))

    signals = commands.add_parser(
        "signals", help="render a country's signals over a window")
    signals.add_argument("country", help="ISO code or name")
    signals.add_argument("start", help="UTC start (YYYY-MM-DD[ HH:MM])")
    signals.add_argument("end", help="UTC end (YYYY-MM-DD[ HH:MM])")

    triage = commands.add_parser(
        "triage", help="triage the most recent curated events")
    triage.add_argument("--limit", type=int, default=10)

    trace = commands.add_parser(
        "trace", help="inspect observability artifacts of past runs")
    trace_commands = trace.add_subparsers(dest="trace_command",
                                          required=True)
    summarize = trace_commands.add_parser(
        "summarize", help="replay a JSONL run journal: slowest spans, "
                          "hottest counters")
    summarize.add_argument("journal",
                           help="path to a RUN.jsonl journal, or a "
                                "registered run ID (see --runs-dir)")
    summarize.add_argument("--top", type=int, default=10,
                           help="rows per section (default 10)")
    trace_diff = trace_commands.add_parser(
        "diff", help="attribute the wall-time delta between two runs "
                     "to specific span paths")
    trace_diff.add_argument("run_a",
                            help="baseline run: journal path or "
                                 "registered run ID")
    trace_diff.add_argument("run_b",
                            help="compared run: journal path or "
                                 "registered run ID")
    trace_diff.add_argument("--top", type=int, default=5,
                            help="paths per direction (default 5)")

    explain = commands.add_parser(
        "explain",
        help="render the decision chain behind one record from a "
             "provenance-enabled run")
    explain.add_argument("journal",
                         help="path to a RUN.jsonl journal, or a "
                              "registered run ID (see --runs-dir)")
    explain.add_argument("record",
                         help="global record id (as printed by export/"
                              "triage) or a capsule id prefix (so "
                              "dismissed candidates are explainable "
                              "too)")

    health = commands.add_parser(
        "health", help="replay the fidelity scorecard a run journaled")
    health.add_argument("journal",
                        help="path to a RUN.jsonl journal, or a "
                             "registered run ID (see --runs-dir)")
    health.add_argument("--json", action="store_true",
                        help="emit the scorecard as JSON")
    health.add_argument("--strict", action="store_true",
                        help="exit non-zero on warn as well as fail")

    runs = commands.add_parser(
        "runs", help="the cross-run registry (see --runs-dir)")
    runs_commands = runs.add_subparsers(dest="runs_command",
                                        required=True)
    runs_commands.add_parser(
        "list", help="render the trend table across registered runs")
    runs_show = runs_commands.add_parser(
        "show", help="print one registered run's record")
    runs_show.add_argument("run", help="run ID (or unique prefix/name)")
    runs_diff = runs_commands.add_parser(
        "diff", help="compare two runs' config and fidelity exactly "
                     "(perf rows are trend data); exits non-zero on "
                     "regression")
    runs_diff.add_argument("run_a",
                           help="baseline: run ID, or a baseline JSON "
                                "path or name (under "
                                f"{BASELINE_DIR})")
    runs_diff.add_argument("run_b",
                           help="compared run: run ID, or a baseline "
                                "JSON path or name")
    runs_diff.add_argument("--provenance", action="store_true",
                           help="diff the runs' lineage capsules "
                                "instead: attribute the record delta "
                                "to the earliest flipped curation "
                                "decision (both runs must have been "
                                "executed with --provenance); exits 1 "
                                "when the decision chains differ")
    runs_register = runs_commands.add_parser(
        "register", help="file an existing journal into the registry")
    runs_register.add_argument("journal", type=Path,
                               help="path to a RUN.jsonl journal")
    runs_register.add_argument("--name", default=None,
                               help="label for the registry entry")

    metrics = commands.add_parser(
        "metrics", help="metrics export surfaces")
    metrics_commands = metrics.add_subparsers(dest="metrics_command",
                                              required=True)
    metrics_export = metrics_commands.add_parser(
        "export", help="emit a run's final metrics snapshot as "
                       "OpenMetrics text exposition")
    metrics_export.add_argument("journal",
                                help="path to a RUN.jsonl journal, or "
                                     "a registered run ID")
    metrics_export.add_argument("--output", "-o", type=Path,
                                default=None,
                                help="write to a file instead of "
                                     "stdout")

    serve = commands.add_parser(
        "serve", help="build / run / load-test the async serving layer")
    serve_commands = serve.add_subparsers(dest="serve_command",
                                          required=True)
    serve_build = serve_commands.add_parser(
        "build", help="precompute a run's servable artifact store")
    serve_build.add_argument("--out", type=Path,
                             default=Path("artifacts/store"),
                             help="store directory (default "
                                  "artifacts/store)")
    serve_build.add_argument("--countries", type=int, default=None,
                             metavar="N",
                             help="cap the tile pyramid at the N "
                                  "most-evented countries (default: "
                                  "all countries with curated records)")
    serve_build.add_argument("--zooms", default="0,1,2",
                             help="comma-separated zoom levels "
                                  "(default 0,1,2)")
    serve_build.add_argument("--tile-bins", type=int, dest="tile_bins",
                             default=None, metavar="N",
                             help="max points per tile (default 512)")
    serve_run = serve_commands.add_parser(
        "run", help="serve a built store over HTTP until interrupted")
    serve_run.add_argument("--store", type=Path,
                           default=Path("artifacts/store"),
                           help="store directory (default "
                                "artifacts/store)")
    serve_run.add_argument("--host", default="127.0.0.1")
    serve_run.add_argument("--port", type=int, default=8099)
    serve_loadgen = serve_commands.add_parser(
        "loadgen", help="run a seeded load burst; print the SLO report")
    serve_loadgen.add_argument("--store", type=Path,
                               default=Path("artifacts/store"),
                               help="store directory (default "
                                    "artifacts/store)")
    serve_loadgen.add_argument("--mix", default="dashboard",
                               choices=("dashboard", "events", "zoom"),
                               help="client behaviour mix (default "
                                    "dashboard)")
    serve_loadgen.add_argument("--concurrency", type=int, default=256,
                               help="concurrent simulated clients "
                                    "(default 256)")
    serve_loadgen.add_argument("--requests", type=int, default=40,
                               dest="requests_per_client",
                               help="requests per client, including "
                                    "the index bootstrap (default 40)")
    serve_loadgen.add_argument("--loadgen-seed", type=int, default=1,
                               dest="loadgen_seed",
                               help="client-mix seed (default 1)")
    serve_loadgen.add_argument("--tcp", action="store_true",
                               help="drive a private server over real "
                                    "sockets instead of in-process "
                                    "calls")
    serve_loadgen.add_argument("--url", default=None,
                               help="target an already-running server "
                                    "(http://host:port) instead of "
                                    "spawning one; cache counters are "
                                    "then unavailable")
    serve_loadgen.add_argument("--report", type=Path, default=None,
                               metavar="PATH",
                               help="write the SLO report JSON here")
    serve_loadgen.add_argument("--json", action="store_true",
                               help="print the SLO report as JSON")
    serve_loadgen.add_argument("--record", default=None, metavar="NAME",
                               help="store the SLO statistics as a "
                                    "named perf baseline")
    serve_loadgen.add_argument("--compare", default=None, metavar="NAME",
                               help="diff the SLO statistics against a "
                                    "stored baseline; exits non-zero "
                                    "on regression")
    serve_loadgen.add_argument("--dir", type=Path, default=BASELINE_DIR,
                               dest="baseline_dir",
                               help=f"baseline directory (default "
                                    f"{BASELINE_DIR})")
    return parser


def _usable_cache_dir(cache_dir: Optional[Path]) -> Optional[Path]:
    """Probe the cache directory; warn and disable caching if unusable.

    An unwritable ``--cache-dir`` (bad permissions, a file in the way,
    a read-only mount) should cost the run its cache, not crash it
    mid-stage: the probe creates the directory and round-trips a
    scratch file before the pipeline commits to caching.
    """
    if cache_dir is None:
        return None
    try:
        cache_dir.mkdir(parents=True, exist_ok=True)
        probe = cache_dir / ".write-probe"
        probe.write_text("", encoding="utf-8")
        probe.unlink()
    except OSError as exc:
        print(f"repro: warning: cache dir {cache_dir} is not writable "
              f"({exc}); running uncached", file=sys.stderr)
        return None
    return cache_dir


def _resilience(args: argparse.Namespace) -> Optional[ResilienceConfig]:
    """The resilience config the run flags ask for (None = disabled)."""
    spec = getattr(args, "inject_faults", None)
    max_retries = getattr(args, "max_retries", None)
    fail_fast = getattr(args, "fail_fast", False)
    if spec is None and max_retries is None and not fail_fast:
        return None
    retry = (RetryPolicy(max_retries=max_retries)
             if max_retries is not None else RetryPolicy())
    return ResilienceConfig(faults=spec, retry=retry, fail_fast=fail_fast)


def _profile_config(args: argparse.Namespace) -> Optional[ProfileConfig]:
    """The profiling config the run flags ask for (None = disabled)."""
    alloc_depth = getattr(args, "profile_alloc", None)
    if alloc_depth is not None:
        return ProfileConfig(tracemalloc=True, tracemalloc_depth=alloc_depth)
    if getattr(args, "profile", False):
        return ProfileConfig()
    return None


def _observability(args: argparse.Namespace) -> Observability:
    """The run's session, from its ``--journal``, ``--profile``,
    ``--profile-alloc``, ``--heartbeat`` and ``--provenance`` flags."""
    return Observability(
        journal=getattr(args, "journal", None),
        profile=_profile_config(args),
        telemetry=getattr(args, "heartbeat", None),
        provenance=getattr(args, "provenance", False))


def _run(args: argparse.Namespace,
         observability: Observability | None = None) -> api.RunResult:
    """One pipeline execution through the :mod:`repro.api` facade.

    Every data-producing subcommand funnels through here, so the CLI
    exercises exactly the surface downstream callers program against.
    ``ScenarioConfig`` and ``STUDY_PERIOD`` are read off this module so
    tests can shrink the run while keeping the real flag wiring.
    """
    return api.run(
        scenario_config=ScenarioConfig(seed=args.seed),
        study_period=STUDY_PERIOD,
        workers=args.workers,
        backend=args.backend,
        shards=args.shards,
        cache_dir=_usable_cache_dir(args.cache_dir),
        observability=(observability if observability is not None
                       else _observability(args)),
        resilience=_resilience(args),
        runs_dir=getattr(args, "runs_dir", None),
        run_name=getattr(args, "run_name", None))


def _registry(args: argparse.Namespace) -> RunRegistry:
    """The registry the read commands resolve run IDs against."""
    return RunRegistry(getattr(args, "runs_dir", None) or Path("runs"))


def _resolve_journal(token: str,
                     args: argparse.Namespace) -> Optional[Path]:
    """A journal path from a path-or-run-ID token (None = unresolvable).

    Paths win; anything that is not an existing file is resolved
    against the run registry.  Errors print to stderr so callers can
    exit 2 without a traceback.
    """
    path = Path(token)
    if path.exists():
        return path
    try:
        record = _registry(args).get(token)
    except KeyError as exc:
        print(f"repro: error: no such journal or run: {token} "
              f"({exc.args[0]})", file=sys.stderr)
        return None
    journal = record.journal_path
    if journal is None or not journal.exists():
        print(f"repro: error: run {record.run_id} has no journal file",
              file=sys.stderr)
        return None
    return journal


def _read_events(token: str, args: argparse.Namespace):
    """Replayed journal events for a token, or None (error printed)."""
    journal = _resolve_journal(token, args)
    if journal is None:
        return None
    try:
        events = read_journal(journal)
    except OSError as exc:
        print(f"repro: error: cannot read journal {journal}: {exc}",
              file=sys.stderr)
        return None
    if not events:
        print(f"repro: error: empty or unreadable journal: {journal}",
              file=sys.stderr)
        return None
    return events


def _resolve_baseline(token: str, args: argparse.Namespace,
                      directory: Path = BASELINE_DIR
                      ) -> Optional[PerfBaseline]:
    """The baseline a token names; None (error printed) if nowhere.

    A path (or any ``.json`` token) is a baseline file; any other token
    is a registered run, else a baseline named under ``directory``.
    """
    path = where = Path(token)
    if path.suffix != ".json" and not path.exists():
        try:
            return _registry(args).get(token).as_baseline()
        except KeyError as exc:
            path = directory / f"{token}.json"
            where = f"{path} ({exc.args[0]})"
    if not path.exists():
        print(f"repro: error: no such baseline: {where}", file=sys.stderr)
        return None
    try:
        return load_baseline(path)
    except (OSError, ValueError):
        print(f"repro: error: not a baseline: {path}", file=sys.stderr)
        return None


def _heartbeat_ok(args: argparse.Namespace) -> bool:
    """Validate ``--heartbeat`` (error printed on False); warn when no
    journal will keep the heartbeats."""
    if args.heartbeat is None:
        return True
    try:
        parse_interval(args.heartbeat)
    except ValueError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return False
    if args.journal is None and args.runs_dir is None:
        print("repro: warning: --heartbeat without --journal or "
              "--runs-dir; heartbeats are journal-only and will "
              "be discarded", file=sys.stderr)
    return True


def _cmd_run(args: argparse.Namespace) -> int:
    import json

    if not _heartbeat_ok(args):
        return 2
    if args.provenance and args.journal is None and args.runs_dir is None:
        print("repro: warning: --provenance without --journal or "
              "--runs-dir; capsules are journal-only and 'repro "
              "explain' needs the journal", file=sys.stderr)
    obs = _observability(args)
    result = _run(args, obs)
    exported = []
    if args.trace:
        exported.append(write_chrome_trace(obs.tracer.spans(), args.trace))
    if result.journal_path is not None:
        exported.append(result.journal_path)
    if args.metrics_json:
        args.metrics_json.parent.mkdir(parents=True, exist_ok=True)
        args.metrics_json.write_text(
            json.dumps(obs.metrics_snapshot(), indent=2),
            encoding="utf-8")
        exported.append(args.metrics_json)
    if result.run_id is not None:
        print(f"registered run {result.run_id} under {args.runs_dir}",
              file=sys.stderr)
    if args.stats and args.json:
        payload = result.stats.as_dict()
        if args.health:
            payload["health"] = result.health.as_dict()
        print(json.dumps(payload, indent=2))
        for path in exported:
            print(f"wrote {path}", file=sys.stderr)
        return 0
    print("== Table 2 ==")
    print("\n".join(summarize_merged(result.merged).rows()))
    print("\n== Table 3 ==")
    print("\n".join(group_country_years(result.merged, YEARS).rows()))
    print("\n== Figures 10-15 ==")
    print("\n".join(analyze_temporal(result.merged).rows()))
    print("\n== Figure 16 ==")
    print("\n".join(observability_table(result.merged).rows()))
    if args.stats:
        print("\n== Execution ==")
        print("\n".join(result.stats.rows()))
    if args.health:
        print("\n== Health ==")
        print("\n".join(result.health.rows()))
    for path in exported:
        print(f"wrote {path}")
    return 0


_STEP_UNITS = {"s": 1, "m": 60, "h": 3600, "d": 86400, "w": 7 * 86400}


def _parse_step(spec: str) -> int:
    """Seconds from a watermark-step spec: ``7d``, ``12h``, ``604800``."""
    text = spec.strip().lower()
    scale = 1
    if text and text[-1] in _STEP_UNITS:
        scale = _STEP_UNITS[text[-1]]
        text = text[:-1]
    try:
        seconds = int(float(text) * scale)
    except (ValueError, OverflowError):   # int() of nan or inf
        raise ConfigurationError(
            f"unparseable step {spec!r}; expected e.g. '12h', '7d', or "
            f"seconds") from None
    if seconds <= 0:
        raise ConfigurationError(f"step must be positive: {spec!r}")
    return seconds


def _cmd_stream(args: argparse.Namespace) -> int:
    step = _parse_step(args.step)
    if not _heartbeat_ok(args):
        return 2
    session = api.stream(
        scenario_config=ScenarioConfig(seed=args.seed),
        study_period=STUDY_PERIOD,
        workers=args.workers,
        backend=args.backend,
        observability=_observability(args),
        resilience=_resilience(args),
        runs_dir=getattr(args, "runs_dir", None),
        run_name=getattr(args, "run_name", None))
    counts = {"open": 0, "update": 0, "close": 0, "recorded": 0}
    advances = 0
    try:
        for events in session.replay(step):
            advances += 1
            for event in events:
                counts[event.state] += 1
                if event.outcome == "recorded":
                    counts["recorded"] += 1
                if args.events:
                    span = f"[{event.span.start}, {event.span.end})"
                    tail = f" -> {event.outcome}" if event.outcome else ""
                    print(f"{event.seq:6d} {event.state:>6} "
                          f"{event.key:<16} {span}{tail}")
            if not args.events:
                print(f"watermark {session.watermark}: "
                      f"{len(events)} events "
                      f"({counts['open']} open / {counts['update']} "
                      f"update / {counts['close']} close so far)")
        result = session.finalize()
    except BaseException:
        session.close()
        raise
    print(f"\nstreamed to horizon in {advances} advances: "
          f"{counts['open']} opened, {counts['update']} updated, "
          f"{counts['close']} closed ({counts['recorded']} recorded); "
          f"{len(result.curated_records)} curated records")
    if result.journal_path is not None:
        print(f"wrote {result.journal_path}")
    if result.run_id is not None:
        print(f"registered run {result.run_id} under {args.runs_dir}",
              file=sys.stderr)
    if args.health:
        print("\n== Health ==")
        print("\n".join(result.health.rows()))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    result = _run(args)
    rows = build_report(result.events)
    args.output.write_text(render_markdown(rows, args.seed),
                           encoding="utf-8")
    print(f"wrote {args.output} ({len(rows)} comparison rows)")
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    result = _run(args)
    args.output_dir.mkdir(parents=True, exist_ok=True)
    records_path = args.output_dir / "ioda_outage_records.json"
    csv_path = args.output_dir / "ioda_outage_records.csv"
    kio_path = args.output_dir / "kio_events.json"
    dump_records(result.curated_records, records_path)
    dump_records_csv(result.curated_records, csv_path)
    dump_kio_events(result.kio_events, kio_path)
    print(f"wrote {records_path} ({len(result.curated_records)} records)")
    print(f"wrote {csv_path} (Table 1 layout)")
    print(f"wrote {kio_path} ({len(result.kio_events)} events)")
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    from repro.analysis.figures import write_csvs

    result = _run(args)
    written = write_csvs(result.events, args.output_dir)
    for path in written:
        print(f"wrote {path}")
    return 0


def _cmd_signals(args: argparse.Namespace) -> int:
    from repro.viz import sparkline

    # Probe the cache dir for the same not-writable warning a full run
    # would emit (signals itself never touches the stage cache).
    _usable_cache_dir(args.cache_dir)
    scenario = ScenarioGenerator(ScenarioConfig(seed=args.seed)).generate()
    country = scenario.registry.lookup(args.country)
    window = TimeRange(parse_utc(args.start), parse_utc(args.end))
    platform = IODAPlatform(scenario)
    print(f"{country} over {window}:")
    for kind in SignalKind:
        series = platform.signal(Entity.country(country.iso2), kind,
                                 window)
        print(f"  {kind.label:<15} |{sparkline(series)}|  "
              f"max={series.values.max():.0f}")
    return 0


def _cmd_triage(args: argparse.Namespace) -> int:
    result = _run(args).events
    merged = result.merged
    registry = merged.registry
    libdem = {
        (registry.by_name(r.country_name).iso2, r.year):
            r.liberal_democracy
        for r in result.vdem}
    cells = set()
    for dataset in (result.coups, result.elections, result.protests):
        for record in dataset:
            cells.add((registry.by_name(record.country_name).iso2,
                       record.day))
    triage = ShutdownTriage(registry, cells, libdem, result.state_shares)
    recent = sorted(merged.ioda_records,
                    key=lambda r: r.span.start)[-args.limit:]
    for record in recent:
        year = time.gmtime(record.span.start).tm_year
        assessment = triage.assess(record, year)
        print("\n".join(assessment.rows()))
        print()
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    if args.trace_command == "summarize":
        events = _read_events(args.journal, args)
        if events is None:
            return 2
        print("\n".join(summarize_events(events).rows(top=args.top)))
        return 0
    if args.trace_command == "diff":
        events_a = _read_events(args.run_a, args)
        if events_a is None:
            return 2
        events_b = _read_events(args.run_b, args)
        if events_b is None:
            return 2
        diff = diff_events(events_a, events_b,
                           label_a=args.run_a, label_b=args.run_b)
        print("\n".join(diff.rows(top=args.top)))
        return 0
    return 2


def _cmd_explain(args: argparse.Namespace) -> int:
    events = _read_events(args.journal, args)
    if events is None:
        return 2
    report = explain_record(events, args.record)
    print("\n".join(report.rows()))
    return 0


def _cmd_runs(args: argparse.Namespace) -> int:
    registry = _registry(args)
    if args.runs_command == "list":
        print("\n".join(registry.rows()))
        return 0
    if args.runs_command == "register":
        if not args.journal.exists():
            print(f"repro: error: no such journal: {args.journal}",
                  file=sys.stderr)
            return 2
        record = registry.register(args.journal, name=args.name)
        print(f"registered run {record.run_id} ({record.name}) "
              f"under {registry.root}")
        return 0
    if args.runs_command == "show":
        try:
            record = registry.get(args.run)
        except KeyError as exc:
            print(f"repro: error: {exc.args[0]}", file=sys.stderr)
            return 2
        print("\n".join(record.rows()))
        return 0
    if args.runs_command == "diff" and args.provenance:
        try:
            record_a = registry.get(args.run_a)
            record_b = registry.get(args.run_b)
        except KeyError as exc:
            print(f"repro: error: runs diff --provenance reads two "
                  f"registered runs' journals, and a baseline has none: "
                  f"{exc.args[0]}", file=sys.stderr)
            return 2
        events = []
        for record in (record_a, record_b):
            journal = record.journal_path
            if journal is None or not journal.exists():
                print(f"repro: error: run {record.run_id} has no "
                      f"journal file", file=sys.stderr)
                return 2
            events.append(read_journal(journal))
        diff = diff_provenance(events[0], events[1])
        print("\n".join(diff.rows(label_a=record_a.name,
                                  label_b=record_b.name)))
        return 0 if diff.empty else 1
    if args.runs_command == "diff":
        baseline = _resolve_baseline(args.run_a, args)
        current = (_resolve_baseline(args.run_b, args)
                   if baseline is not None else None)
        if current is None:
            return 2
        comparison = compare_baselines(current, baseline)
        print("\n".join(comparison.rows()))
        return 0 if comparison.ok else 1
    return 2


def _cmd_metrics(args: argparse.Namespace) -> int:
    if args.metrics_command != "export":
        return 2
    events = _read_events(args.journal, args)
    if events is None:
        return 2
    snapshots = [e for e in events if e.get("type") == "metrics"]
    if not snapshots:
        print(f"repro: error: no metrics snapshot in journal for "
              f"{args.journal}", file=sys.stderr)
        return 2
    # Snapshots are cumulative; the final one is the run's registry.
    text = snapshot_to_openmetrics(snapshots[-1])
    if args.output is not None:
        args.output.parent.mkdir(parents=True, exist_ok=True)
        args.output.write_text(text, encoding="utf-8")
        print(f"wrote {args.output}")
    else:
        print(text, end="")
    return 0


def _cmd_health(args: argparse.Namespace) -> int:
    import json

    events = _read_events(args.journal, args)
    if events is None:
        return 2
    records = [e for e in events if e.get("type") == "health"]
    if not records:
        print(f"repro: error: no health record in {args.journal} "
              f"(was the run journaled with this version?)",
              file=sys.stderr)
        return 2
    try:
        report = HealthReport.from_dict(records[-1])
    except ValueError as exc:  # a row this version cannot grade
        print(f"repro: error: unreadable health record in "
              f"{args.journal}: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report.as_dict(), indent=2))
    else:
        print("\n".join(report.rows()))
    if report.grade == "fail":
        return 1
    if report.grade == "warn" and args.strict:
        return 1
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import json

    from repro.errors import ServeError
    from repro.serve import ArtifactStore, LoadgenConfig, ServeApp, \
        build_store, run_loadgen, serve_forever
    from repro.serve.artifacts import check_build_options

    if args.serve_command == "build":
        try:
            zooms = tuple(int(z) for z in args.zooms.split(","))
        except ValueError:
            print(f"repro: error: bad --zooms spec: {args.zooms!r}",
                  file=sys.stderr)
            return 2
        build_options = {"zooms": zooms, "max_countries": args.countries}
        if args.tile_bins is not None:
            build_options["tile_bins"] = args.tile_bins
        check_build_options(**build_options)
        result = _run(args)
        started = time.time()
        store = build_store(result, args.out, **build_options)
        resources = store.resources()
        print(f"built {args.out}: {len(resources)} artifacts "
              f"({store.meta.get('records')} events, "
              f"{store.meta.get('countries')} tile countries, "
              f"zooms {store.meta.get('zooms')}) "
              f"in {time.time() - started:.1f}s")
        return 0

    try:
        store = ArtifactStore.open(args.store)
    except ServeError as exc:
        if args.serve_command == "loadgen" and args.url is not None:
            store = None
        else:
            print(f"repro: error: {exc}", file=sys.stderr)
            return 2

    if args.serve_command == "run":
        serve_forever(ServeApp(store), host=args.host, port=args.port)
        return 0

    if args.serve_command == "loadgen":
        config = LoadgenConfig(
            mix=args.mix, concurrency=args.concurrency,
            requests_per_client=args.requests_per_client,
            seed=args.loadgen_seed)
        report = run_loadgen(store, url=args.url, config=config,
                             tcp=args.tcp)
        if args.json:
            print(json.dumps(report.as_dict(), indent=2))
        else:
            print("\n".join(report.rows()))
        if args.report is not None:
            path = report.save(args.report)
            print(f"wrote {path}")
        if args.record is not None:
            baseline = PerfBaseline.capture(
                name=args.record, config=config.as_dict(),
                statistics=report.statistics())
            path = save_baseline(
                baseline, args.baseline_dir / f"{args.record}.json")
            print(f"wrote {path}")
        if args.compare is not None:
            baseline = _resolve_baseline(args.compare, args,
                                         args.baseline_dir)
            if baseline is None:
                return 2
            current = PerfBaseline.capture(
                name="current", config=config.as_dict(),
                statistics=report.statistics())
            comparison = compare_baselines(current, baseline)
            print("\n".join(comparison.rows()))
            return 0 if comparison.ok else 1
        return 0
    return 2


_COMMANDS = {
    "run": _cmd_run,
    "stream": _cmd_stream,
    "report": _cmd_report,
    "export": _cmd_export,
    "figures": _cmd_figures,
    "signals": _cmd_signals,
    "triage": _cmd_triage,
    "explain": _cmd_explain,
    "trace": _cmd_trace,
    "health": _cmd_health,
    "runs": _cmd_runs,
    "metrics": _cmd_metrics,
    "serve": _cmd_serve,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit status."""
    args = build_parser().parse_args(argv)
    try:
        status = _COMMANDS[args.command](args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # The reader closed stdout early (``repro runs list | head``).
        # Point stdout at devnull so the interpreter's exit-time flush
        # cannot raise again, and stop without a traceback.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    except ConfigurationError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    except SignalError as exc:
        # E.g. an empty merged dataset leaves Figure 16 with nothing to
        # summarize; exit cleanly instead of tracebacking.
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    except ResilienceError as exc:
        # A --fail-fast run hit a source that exhausted its retries (or
        # tripped its breaker); surface the failure, not a traceback.
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    except ProvenanceError as exc:
        # explain / runs diff --provenance on a journal without
        # capsules, or an unknown record/capsule token: one line, no
        # traceback.
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
