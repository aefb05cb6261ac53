"""One benchmark job in a fresh interpreter.

Usage: ``python perfbench/child.py JOB.json`` with ``src`` on
``PYTHONPATH``.  The job file names the job kind (``import``, ``batch``,
``stream``, ``serve-setup`` or ``serve-loop``), its seeds and knobs, and
the path the result JSON is written to.  The child prints ``ready`` once
``repro.api`` is imported, so the parent can time interpreter start
plus import as set-up (host-speed probes run during the import, and the
result carries the ratio the parent rescales that time by); everything
after that line is the job.  A job
that raises writes ``{"error": traceback}`` as its result: a failed
run, which the parent counts, not a missing program.

With ``"trace": true`` the job runs under :class:`ledger.Tracer` and the
result carries the span totals; otherwise the program runs untouched,
and its timed stretches also take host-speed probes (:mod:`hostspeed`)
from a timer signal between the program's bytecodes.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from hostspeed import Sampler


def digest(records) -> str:
    """sha256 over the curated records' canonical JSON, in order."""
    from repro.io import record_to_dict

    h = hashlib.sha256()
    for record in records:
        h.update(json.dumps(record_to_dict(record), sort_keys=True)
                 .encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


def counter_sum(counters: Dict[str, float], name: str) -> float:
    """Sum a counter over all its label sets."""
    return float(sum(v for k, v in counters.items()
                     if k == name or k.startswith(name + "{")))


def program_counters(obs, stats) -> Dict[str, float]:
    """What the program already counts, read from its own surfaces."""
    counters = obs.metrics_snapshot()["counters"]
    hits = getattr(stats, "signal_cache_hits", 0)
    queries = hits + getattr(stats, "signal_cache_misses", 0)
    curate = next((s.seconds for s in stats.stages if s.name == "curate"),
                  0.0)
    shard_max = max(stats.shard_seconds.values(), default=0.0)
    return {
        "platform.signal_cache.hit_ratio":
            hits / queries if queries else 0.0,
        "curation.candidates":
            counter_sum(counters, "curation.candidates_clustered"),
        "curation.recorded":
            counter_sum(counters, "curation.decision.recorded"),
        "curation.dismissed":
            counter_sum(counters, "curation.decision.dismissed"),
        "rng.substreams": counter_sum(counters, "rng.substreams"),
        "matching.window_comparisons":
            counter_sum(counters, "matching.window_comparisons"),
        "exec.shards": float(len(stats.shard_seconds)),
        "exec.shard_max_s": shard_max,
        "exec.shard_skew": stats.shard_skew,
        "exec.dispatch_s": curate - shard_max if stats.shard_seconds
        else 0.0,
    }


def host_speed(tracer) -> Sampler:
    """A started host-speed sampler; untraced runs only, so the traced
    run's overhead is the tracer's alone."""
    sampler = Sampler()
    if tracer is None:
        sampler.start()
    return sampler


def run_batch(api, job: Dict[str, Any], tracer) -> Dict[str, Any]:
    obs = api.Observability()
    sampler = host_speed(tracer)
    started = time.perf_counter()
    result = api.run(seed=job["seed"], workers=job["workers"],
                     backend=job["backend"], observability=obs)
    ended = time.perf_counter()
    sampler.stop()
    return {"run_s": ended - started,
            "quiet_s": sampler.quiet_seconds(started, ended),
            "probes": len(sampler.samples),
            "records": len(result.curated_records),
            "digest": digest(result.curated_records),
            "health": result.health.grade,
            "counters": program_counters(obs, result.stats)}


def reduced_config(api, seed: int):
    """The one-year (2018) scenario and study period."""
    from repro.timeutils.timestamps import utc

    return (api.ScenarioConfig(seed=seed, years=(2018,)),
            api.TimeRange(utc(2018, 1, 1), utc(2019, 1, 1)))


def run_stream(api, job: Dict[str, Any], tracer) -> Dict[str, Any]:
    from repro.timeutils.timestamps import HOUR

    config, period = reduced_config(api, job["seed"])
    obs = api.Observability()
    spans: List[Tuple[float, float]] = []
    sampler = host_speed(tracer)
    started = time.perf_counter()
    session = api.stream(scenario_config=config, study_period=period,
                         observability=obs)
    replay = session.replay(6 * HOUR)
    while True:
        step_started = time.perf_counter()
        try:
            if tracer is not None:
                tracer.span("stream.replay_step", next, replay)
            else:
                next(replay)
        except StopIteration:
            break
        spans.append((step_started, time.perf_counter()))
    result = session.finalize()
    ended = time.perf_counter()
    sampler.stop()
    return {"run_s": ended - started,
            "quiet_s": sampler.quiet_seconds(started, ended),
            "probes": len(sampler.samples),
            "steps": [end - begin for begin, end in spans],
            "quiet_steps": [sampler.quiet_seconds(begin, end)
                            for begin, end in spans],
            "events": len(session.events()),
            "bins": obs.metrics_snapshot()["counters"].get(
                "stream.bins_pushed", 0),
            "records": len(result.curated_records),
            "digest": digest(result.curated_records),
            "counters": program_counters(obs, result.stats)}


def run_serve_setup(api, job: Dict[str, Any], tracer) -> Dict[str, Any]:
    config, period = reduced_config(api, job["seed"])
    obs = api.Observability()
    sampler = host_speed(tracer)
    started = time.perf_counter()
    result = api.run(scenario_config=config, study_period=period,
                     observability=obs)
    built = time.perf_counter()
    store = result.serve(job["store"], max_countries=8, zooms=(0, 1, 2),
                         tile_bins=256)
    done = time.perf_counter()
    sampler.stop()
    out = {"run_s": done - started,
           "quiet_s": sampler.quiet_seconds(started, done),
           "build_s": done - built,
           "records": len(result.curated_records),
           "digest": digest(result.curated_records),
           # The health artifact embeds the run's own timings, so only
           # the other artifacts are reproducible build to build.
           "artifacts": {name: entry["etag"] for name, entry
                         in store.manifest["resources"].items()
                         if name != "health"},
           "resources": len(store.resources()),
           "counters": program_counters(obs, result.stats)}
    if job.get("plan_requests"):
        # The load generator's own in-process replay of the seeded plan:
        # the request and status counts every timed pass must match.
        from repro.serve.loadgen import LoadgenConfig, run_loadgen

        report = run_loadgen(store, config=LoadgenConfig(
            mix="dashboard", concurrency=job["clients"],
            requests_per_client=job["plan_requests"],
            seed=job["plan_seed"]))
        out["expected"] = {"requests": report.requests, "ok": report.ok,
                           "not_modified": report.not_modified,
                           "errors": report.errors}
    return out


def run_serve_loop(api, job: Dict[str, Any], tracer) -> Dict[str, Any]:
    """Replay the load generator's plan against one app until ``seconds``
    have passed; the first pass only warms the cache.

    ``run_loadgen(tcp=True)`` serves the app from this process on a
    private port, so the server and the closed-loop keep-alive clients
    share one event loop and a round trip never waits for another
    process to be scheduled on a busy machine.  Its histograms are
    bucketed and do not say which request took how long, so each
    request is timed by wrapping ``_Client._fetch`` from outside.

    Every pass replays the same plan, so the ``n``-th fetch of one
    target (plain or conditional) is the same request in every pass;
    ``best`` keeps each such request's fastest time over the timed
    passes.  Pass and request times are rescaled to the host's quiet
    speed (:mod:`hostspeed`); a probe that lands while a request is in
    flight is left out of its time.
    """
    from repro.serve import ArtifactStore, ServeApp
    from repro.serve import loadgen

    fetched: List[Tuple[str, bool, float, float]] = []
    fetch = loadgen._Client._fetch

    async def timed_fetch(self, target: str,
                          conditional: bool = False) -> bytes:
        started = time.perf_counter()
        body = await fetch(self, target, conditional)
        fetched.append((target, conditional, started, time.perf_counter()))
        return body

    loadgen._Client._fetch = timed_fetch
    config = loadgen.LoadgenConfig(
        mix="dashboard", concurrency=job["clients"],
        requests_per_client=job["requests"], seed=job["seed"])
    sampler = host_speed(None)

    def latencies() -> List[float]:
        return [sampler.quiet_seconds(begin, end)
                for _, _, begin, end in fetched]

    def one_pass() -> Dict[str, Any]:
        fetched.clear()
        started = time.perf_counter()
        try:
            report = loadgen.run_loadgen(app=app, tcp=True, config=config)
        except Exception as exc:  # a transport error ends the loop
            return {"error": repr(exc), "requests": len(fetched),
                    "latencies": latencies()}
        ended = time.perf_counter()
        return {"requests": report.requests, "ok": report.ok,
                "not_modified": report.not_modified,
                "errors": report.errors, "wall_s": report.elapsed_seconds,
                "run_s": report.elapsed_seconds * sampler.quiet_seconds(
                    started, ended) / (ended - started),
                "latencies": latencies()}

    started = time.perf_counter()
    app = ServeApp(ArtifactStore.open(job["store"]))
    warm = one_pass()
    warmed = time.perf_counter()
    cache_before = cache_counters(app)
    routes_before = {key: list(histogram.counts) for key, histogram
                     in app.metrics.histograms().items()}
    passes: List[Dict[str, Any]] = []
    best: Dict[Tuple[str, bool, int], float] = {}
    while "error" not in warm and (
            not passes or time.perf_counter() - warmed < job["seconds"]):
        passes.append(one_pass())
        if "error" in passes[-1]:
            break
        occurrences: Dict[Tuple[str, bool], int] = {}
        for (target, conditional, _, _), seconds in zip(
                fetched, passes[-1]["latencies"]):
            n = occurrences[target, conditional] = \
                occurrences.get((target, conditional), 0) + 1
            key = (target, conditional, n)
            best[key] = min(best.get(key, seconds), seconds)
    sampler.stop()
    cache = {key: value - cache_before[key]
             for key, value in cache_counters(app).items()}
    return {"start_warm_s": sampler.quiet_seconds(started, warmed),
            "warm": warm, "passes": passes,
            "best": list(best.values()), "cache": cache,
            "route_p50_ms": route_p50_ms(app, routes_before)}


def cache_counters(app) -> Dict[str, float]:
    return {key: float(getattr(app.cache, key))
            for key in ("hits", "misses", "coalesced", "evictions")}


def route_p50_ms(app, before: Dict[str, List[int]]) -> Dict[str, float]:
    """Median server-side latency per route histogram, over what was
    observed after ``before`` (bucket counts per series key)."""
    from repro.obs.metrics import Histogram

    out: Dict[str, float] = {}
    for key, after in app.metrics.histograms().items():
        delta = Histogram(after.buckets)
        delta.counts = [a - b for a, b in zip(
            after.counts, before.get(key, [0] * len(after.counts)))]
        delta.count = sum(delta.counts)
        delta.minimum, delta.maximum = after.minimum, after.maximum
        out[key] = (delta.percentile(50) or 0.0) * 1e3
    return out


JOBS = {"batch": run_batch, "stream": run_stream,
        "serve-setup": run_serve_setup, "serve-loop": run_serve_loop}


def span_totals(tracer, run_s: float) -> Dict[str, Any]:
    """Reduce the recorded spans to the totals the parent reports."""
    from ledger import Totals

    spans, batches = tracer.collect()
    main = Totals()
    main.add(spans)
    every = Totals()
    every.add(spans)
    for batch in batches:
        every.add(batch)
    return {"run_s": run_s, "covered_s": main.covered,
            "layer_self": main.layer_self(),
            "spans": {name: [every.calls[name], every.total[name],
                             every.self_s[name]]
                      for name in sorted(every.calls)},
            "signal": every.signal,
            "control_signal_s": every.signal_under_adjudication,
            "source_s": every.source_s}


def main() -> int:
    job = json.loads(Path(sys.argv[1]).read_text())
    importing = Sampler()
    importing.start()
    started = time.perf_counter()
    import repro.api as api

    imported = time.perf_counter()
    importing.stop()
    print("ready", flush=True)
    tracer: Optional[Any] = None
    if job.get("trace"):
        from ledger import Tracer

        tracer = Tracer(Path(job["trace_dir"]))
        missing = tracer.install()
    out: Dict[str, Any] = {}
    try:
        if job["kind"] in JOBS:
            out = JOBS[job["kind"]](api, job, tracer)
        if tracer is not None:
            out["ledger"] = span_totals(tracer, out["run_s"])
            out["ledger"]["missing"] = missing
    except Exception:
        # A raised run is a failed operation, not a missing program.
        out = {"error": traceback.format_exc()}
    # Quiet-speed seconds per wall second over the import, by which the
    # parent rescales the set-up time it measured.
    out["import_quiet_ratio"] = (importing.quiet_seconds(started, imported)
                                 / (imported - started))
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(job["out"]).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
