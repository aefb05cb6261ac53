"""The repository benchmark: four workloads, E2E metrics, a per-layer ledger.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload batch-serial --seed 2023 \\
        --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --trace 1   # every table

Workloads (why each exists, and its input size, are in
``perfbench/layers.json``):

- ``batch-serial``   ``api.run(seed)`` on the canonical scenario, one worker.
- ``batch-process``  the same run on two process workers.
- ``stream-replay``  ``api.stream`` over the 2018 scenario, replayed in
  6 h watermark steps, then finalized.
- ``serve-dashboard`` a closed loop of two keep-alive clients on the
  seeded dashboard mix against the HTTP server, over TCP, in one fresh
  interpreter.

Every workload observes the same world (:data:`WORLD_SEED`); ``--seed``
seeds the serve request plan.

Every timed result runs in a fresh interpreter (``perfbench/child.py``)
because CLI users pay for imports and lazy set-up on every run.  Runs
repeat until ``--seconds`` of run time is measured (at least one).
Every timing is wall time rescaled to the host's quiet speed by probes
taken in the measured process (:mod:`hostspeed`); the plain wall time of
``run_s`` is printed, not gated, as ``wall_run_s``.

With ``--trace 0`` the last stdout line is the JSON result carrying the
end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` the run
also makes one traced run (:mod:`ledger`) and the JSON carries the
per-layer metrics instead.  Before it, a table lists every metric with
its unit.  The exit code is 1 when an output check fails or a run
raises (it counts as a failed operation), and 2, with no JSON, when
there is no program source under ``src/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

KINDS = ("bgp", "active-probing", "telescope")
#: The scenario seed of every workload's world.  ``--seed`` seeds what a
#: client controls (the serve request plan), not the world: worlds of
#: different seeds differ by up to a third in curated records and
#: streamed bins, which would swamp the bounds with input size rather
#: than program speed.  Seed 2023 is the calibrated world whose outputs
#: ``digests.json`` pins.
WORLD_SEED = 2023
#: End-to-end numbers printed beside the gated ones of ``BENCHMARK.json``:
#: unit and why each is not gated.
UNGATED = {
    "wall_run_s": ("s", "run_s before host-speed rescaling"),
    "op_p99_ms": ("ms", "tail-bound on a shared machine"),
    "ops_per_s": ("1/s", "tail-bound on a shared machine"),
}
#: Timed-loop clients and requests per client per pass on serve.
SERVE_CLIENTS = 2
SERVE_REQUESTS = 1000
#: Set-up samples per run (fresh interpreter + ``import repro.api``).
SETUP_SAMPLES = 5
CHILD_TIMEOUT = 150.0


# -- child processes ----------------------------------------------------------


def _children(pid: int) -> List[int]:
    found: List[int] = []
    try:
        tids = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return found
    for tid in tids:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as handle:
                found.extend(int(p) for p in handle.read().split())
        except OSError:
            pass
    return found


def vm_hwm_kb(pid: int) -> int:
    """The kernel's peak resident set (``VmHWM``) of one process."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class TreePeak:
    """Polls the per-process peak RSS of a process and its descendants.

    The tree's peak is reported as the sum of each process's own peak
    (an upper bound on the simultaneous peak; pool workers live for
    the whole curate stage, so polling sees their final peaks).
    """

    def __init__(self, pid: int, interval: float = 0.05):
        self._pid = pid
        self._interval = interval
        self.peaks: Dict[int, int] = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self) -> None:
        while not self._stop.is_set():
            pending = [self._pid]
            while pending:
                pid = pending.pop()
                hwm = vm_hwm_kb(pid)
                if hwm:
                    self.peaks[pid] = max(self.peaks.get(pid, 0), hwm)
                pending.extend(_children(pid))
            self._stop.wait(self._interval)

    def stop(self, own_peak_kb: int) -> int:
        """Stop polling; ``own_peak_kb`` is the root's exact final peak."""
        self._stop.set()
        self._thread.join()
        self.peaks[self._pid] = max(self.peaks.get(self._pid, 0),
                                    own_peak_kb)
        return sum(self.peaks.values())


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


@dataclass
class Spawned:
    """A finished child job: set-up seconds, result, process-tree peak."""

    setup_s: float
    out: Dict[str, Any]
    peak_kb: int


def spawn(work: Path, job: Dict[str, Any]) -> Spawned:
    """Run one job in a fresh interpreter and wait for it."""
    tag = f"{job['kind']}-{time.monotonic_ns()}"
    job = dict(job, out=str(work / f"{tag}.out.json"))
    job_path = work / f"{tag}.job.json"
    job_path.write_text(json.dumps(job))
    err_path = work / f"{tag}.stderr"
    with open(err_path, "wb") as stderr:
        started = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(job_path)],
            stdout=subprocess.PIPE, stderr=stderr, env=child_env(),
            cwd=ROOT)
        peak = TreePeak(proc.pid)
        assert proc.stdout is not None
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - started
            # Drain anything else the program prints so it never blocks.
            threading.Thread(target=proc.stdout.read, daemon=True).start()
            code = proc.wait(timeout=CHILD_TIMEOUT)
        except subprocess.TimeoutExpired:
            code = "timeout"
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    out_path = Path(job["out"])
    if code != 0 or not ready.startswith(b"ready") \
            or not out_path.exists():
        peak.stop(0)
        tail = err_path.read_text(errors="replace")[-2000:]
        return Spawned(setup_s, {"error": f"exited {code}:\n{tail}"}, 0)
    out = json.loads(out_path.read_text())
    # Rescaled to the host's quiet speed as the child's probes saw it
    # during the import, which is most of the set-up.
    return Spawned(setup_s * out["import_quiet_ratio"], out,
                   peak.stop(int(out["maxrss_kb"])))


def setup_samples(work: Path, have: List[float],
                  result: "Outcome") -> List[float]:
    """Top ``have`` up to :data:`SETUP_SAMPLES` import-only spawns."""
    samples = list(have)
    while len(samples) < SETUP_SAMPLES:
        run = spawn(work, {"kind": "import"})
        if result.raised(run):
            break
        samples.append(run.setup_s)
    return samples


# -- output checks ------------------------------------------------------------


class Checks:
    """Output checks; every failure makes the run incorrect."""

    def __init__(self) -> None:
        self.rows: List[Tuple[str, bool, str]] = []
        self._committed = json.loads((HERE / "digests.json").read_text())

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.rows.append((name, bool(ok), detail))
        return bool(ok)

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.rows)

    def records(self, scope: str, seed: int, out: Dict[str, Any]) -> bool:
        """Curated records against the committed digest for ``seed``
        (serial = process and stream = serve set-up follow, since each
        must equal the same digest)."""
        committed = self._committed.get(scope, {}).get(str(seed))
        if committed is None:
            return True
        got = {"records": out["records"], "sha256": out["digest"]}
        want = {k: committed[k] for k in ("records", "sha256")}
        ok = self.check(f"{scope} records = committed digest",
                        got == want, f"{got} vs {want}")
        if "health" in committed:
            ok &= self.check(f"{scope} health = committed grade",
                             out["health"] == committed["health"],
                             f"{out['health']}")
        return ok

    def serve_counts(self, seed: int, expected: Dict[str, int]) -> bool:
        committed = self._committed.get("serve", {}).get(str(seed))
        if committed is None:
            return True
        return self.check("serve plan counts = committed",
                          expected == committed,
                          f"{expected} vs {committed}")


# -- metrics ------------------------------------------------------------------


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def end_to_end(setup: List[float], run_s: List[float],
               wall_run_s: List[float], op_latencies: List[float], ops: int,
               op_seconds: float, peak_kb: int, extra_setup_s: float = 0.0,
               op_p50_s: Optional[float] = None) -> Dict[str, float]:
    """``wall_run_s`` are the wall times behind ``run_s``; ``op_p50_s``
    overrides the median of ``op_latencies``."""
    return {
        "setup_s": statistics.median(setup) + extra_setup_s,
        "run_s": statistics.median(run_s),
        "wall_run_s": statistics.median(wall_run_s),
        "peak_rss_mb": peak_kb / 1024,
        "op_p50_ms": (statistics.median(op_latencies) if op_p50_s is None
                      else op_p50_s) * 1e3,
        "op_p99_ms": percentile(op_latencies, 99) * 1e3,
        "ops_per_s": ops / op_seconds,
    }


def per_layer(ledger: Dict[str, Any], counters: Dict[str, float],
              untraced_run_s: float) -> Dict[str, float]:
    """Per-layer metrics from the traced run's spans and the program's
    own counters (read in the untraced run)."""
    spans = ledger["spans"]

    def calls(name: str) -> float:
        return float(spans.get(name, [0, 0.0, 0.0])[0])

    def total(name: str) -> float:
        return spans.get(name, [0, 0.0, 0.0])[1]

    def self_s(name: str) -> float:
        return spans.get(name, [0, 0.0, 0.0])[2]

    m: Dict[str, float] = {"world.generate_s": total("world.generate")}
    for kind in KINDS:
        n, seconds, bins = ledger["signal"].get(kind, [0, 0.0, 0])
        m[f"platform.signal_calls.{kind}"] = float(n)
        m[f"platform.signal_s.{kind}"] = seconds
        m[f"platform.signal_bins.{kind}"] = float(bins)
    candidates = counters["curation.candidates"]
    m.update({
        "platform.control_signal_s": ledger["control_signal_s"],
        "platform.signal_cache.hit_ratio":
            counters["platform.signal_cache.hit_ratio"],
        "detect.series": calls("detect.stream_episodes"),
        "detect.s": total("detect.stream_episodes"),
        "stream.detect.feed_calls": calls("detect.feed"),
        "stream.detect.feed_s": total("detect.feed"),
        "curation.windows": calls("curation.adjudicate_window"),
        "curation.candidates": candidates,
        "curation.recorded": counters["curation.recorded"],
        "curation.dismissed": counters["curation.dismissed"],
        "curation.record_ratio":
            counters["curation.recorded"] / candidates if candidates
            else 0.0,
        "curation.adjudicate_s": self_s("curation.adjudicate_window"),
        "rng.substreams": counters["rng.substreams"],
        "obs.counter_calls": calls("obs.counter"),
        "obs.counter_s": total("obs.counter"),
        "exec.shards": counters["exec.shards"],
        "exec.shard_max_s": counters["exec.shard_max_s"],
        "exec.shard_skew": counters["exec.shard_skew"],
        "exec.world_builds": calls("world.generate"),
        "exec.dispatch_s": counters["exec.dispatch_s"],
        "kio.compile_s": total("kio.compile"),
        "merge.s": total("merge.build"),
        "matching.window_comparisons":
            counters["matching.window_comparisons"],
        "datasets.load_s": total("datasets.load"),
        "stream.push_s": total("stream.push"),
        "stream.advance_s": self_s("stream.advance"),
        "stream.source_s": ledger["source_s"],
        "stream.cluster_calls": calls("curation.cluster_episodes"),
        "stream.cluster_s": total("curation.cluster_episodes"),
        "stream.finalize_s": total("stream.finalize"),
        "trace.run_s": ledger["run_s"],
        "trace.uncovered_s": ledger["run_s"] - ledger["covered_s"],
        "trace.overhead": ledger["run_s"] / untraced_run_s,
    })
    for layer, seconds in ledger["layer_self"].items():
        m[f"self_s.{layer}"] = seconds
    return m


# -- workloads ----------------------------------------------------------------


@dataclass
class Outcome:
    """What a workload run produced, before formatting."""

    e2e: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    notes: List[str] = field(default_factory=list)
    #: Traced boundaries the program no longer has.
    missing: List[str] = field(default_factory=list)

    def raised(self, run: Spawned) -> bool:
        """Count a job that raised (or died) as one failed operation."""
        if "error" not in run.out:
            return False
        self.attempted += 1
        self.failed += 1
        self.notes.append("RAISED: " + run.out["error"].strip()
                          .splitlines()[-1])
        return True


def _repeat(work: Path, job: Dict[str, Any], seconds: float,
            result: Outcome) -> List[Spawned]:
    """Fresh-interpreter runs until ``seconds`` of run time (at least one
    attempt); a raised run ends the loop."""
    runs: List[Spawned] = []
    while not runs or sum(r.out["run_s"] for r in runs) < seconds:
        run = spawn(work, job)
        if result.raised(run):
            break
        runs.append(run)
    return runs


def _traced(work: Path, job: Dict[str, Any]) -> Spawned:
    trace_dir = tempfile.mkdtemp(prefix="trace-", dir=work)
    return spawn(work, dict(job, trace=True, trace_dir=trace_dir))


def batch(args, work: Path, checks: Checks, workers: int,
          backend: str) -> Outcome:
    result = Outcome()
    job = {"kind": "batch", "seed": WORLD_SEED, "workers": workers,
           "backend": backend}
    runs = _repeat(work, job, args.seconds, result)
    if not runs:
        return result
    for run in runs:
        result.attempted += 1
        result.failed += not checks.records("canonical", WORLD_SEED,
                                            run.out)
    times = [r.out["run_s"] for r in runs]
    quiet = [r.out["quiet_s"] for r in runs]
    setup = setup_samples(work, [r.setup_s for r in runs], result)
    result.e2e = end_to_end(setup, quiet, times, quiet, len(runs),
                            sum(times), max(r.peak_kb for r in runs))
    result.notes.append(f"{len(runs)} complete run(s); "
                        f"{runs[0].out['records']} curated records; "
                        f"{runs[0].out['probes']} host-speed probes")
    if args.trace:
        traced = _traced(work, job)
        if result.raised(traced):
            return result
        result.attempted += 1
        result.failed += not checks.check(
            "traced records = untraced records",
            traced.out["digest"] == runs[0].out["digest"])
        result.layers = per_layer(traced.out["ledger"],
                                  runs[0].out["counters"],
                                  statistics.median(times))
        result.missing = traced.out["ledger"]["missing"]
    return result


def stream_replay(args, work: Path, checks: Checks) -> Outcome:
    result = Outcome()
    job = {"kind": "stream", "seed": WORLD_SEED}
    runs = _repeat(work, job, args.seconds, result)
    if not runs:
        return result
    steps: List[float] = []
    for run in runs:
        result.attempted += len(run.out["steps"]) + 1
        result.failed += not checks.records("2018", WORLD_SEED, run.out)
        steps.extend(run.out["quiet_steps"])
    times = [r.out["run_s"] for r in runs]
    setup = setup_samples(work, [r.setup_s for r in runs], result)
    result.e2e = end_to_end(setup, [r.out["quiet_s"] for r in runs], times,
                            steps, len(steps),
                            sum(sum(r.out["steps"]) for r in runs),
                            max(r.peak_kb for r in runs))
    first = runs[0].out
    result.notes.append(
        f"{len(runs)} complete run(s); {first['probes']} host-speed "
        f"probes; {len(first['steps'])} steps, "
        f"{first['bins']:.0f} bins, {first['events']} lifecycle events, "
        f"{first['records']} curated records")
    if args.trace:
        traced = _traced(work, job)
        if result.raised(traced):
            return result
        result.attempted += 1
        result.failed += not checks.check(
            "traced records = untraced records",
            traced.out["digest"] == first["digest"])
        result.layers = per_layer(traced.out["ledger"], first["counters"],
                                  statistics.median(times))
        result.missing = traced.out["ledger"]["missing"]
        result.layers["stream.events"] = float(first["events"])
    return result


def serve_dashboard(args, work: Path, checks: Checks) -> Outcome:
    result = Outcome()
    job = {"kind": "serve-setup", "seed": WORLD_SEED, "plan_seed": args.seed,
           "store": str(work / "store"), "plan_requests": SERVE_REQUESTS,
           "clients": SERVE_CLIENTS}
    setup = spawn(work, job)
    if result.raised(setup):
        return result
    result.attempted += 1
    result.failed += not checks.records("2018", WORLD_SEED, setup.out)
    expected = setup.out["expected"]
    checks.serve_counts(args.seed, expected)
    loop = spawn(work, {"kind": "serve-loop", "seed": args.seed,
                        "store": job["store"], "clients": SERVE_CLIENTS,
                        "requests": SERVE_REQUESTS,
                        "seconds": args.seconds})
    if result.raised(loop):
        return result
    passes = [loop.out["warm"], *loop.out["passes"]]
    for p in passes:
        # A raised pass loses the request it raised in.
        result.attempted += p["requests"] + ("error" in p)
        result.failed += p.get("errors", 0) + ("error" in p)
        if "error" in p:
            result.notes.append(f"RAISED in a pass: {p['error']}")
    mismatched = [p for p in passes
                  if {k: p.get(k) for k in expected} != expected]
    checks.check(f"every pass's counts = load generator's in-process "
                 f"plan ({len(passes)} passes)", not mismatched,
                 f"{[{k: p.get(k) for k in expected} for p in mismatched[:1]]}"
                 f" vs {expected}")
    timed = [p for p in loop.out["passes"] if "error" not in p]
    if not timed:
        return result
    latencies = [x for p in timed for x in p["latencies"]]
    pass_s = [p["run_s"] for p in timed]
    # Every pass repeats the same plan on a warm cache, so each request's
    # fastest time across the passes (timeit's best of N), at quiet host
    # speed, is the program's cost of it: op_p50_ms is the median over
    # the plan's requests, run_s their sum per client (one client's
    # dashboard session, as a pass would take with every request at its
    # best).  Over eight runs on a 2-vCPU VM that sum spread 0.025
    # IQR/median, the fastest whole pass 0.10: a pass also pays for its
    # private server's start and stop and for every slow request.
    best = loop.out["best"]
    result.e2e = end_to_end(
        setup_samples(work, [setup.setup_s, loop.setup_s], result),
        [sum(best) / SERVE_CLIENTS], [min(p["wall_s"] for p in timed)],
        latencies, len(latencies), sum(pass_s), loop.peak_kb,
        extra_setup_s=setup.out["quiet_s"] + loop.out["start_warm_s"],
        op_p50_s=statistics.median(best))
    result.notes.append(
        f"{len(timed)} timed passes of {expected['requests']} requests "
        f"({expected['not_modified']} conditional); "
        f"{setup.out['resources']} store artifacts; "
        f"{setup.out['records']} curated records")
    if args.trace:
        traced = _traced(work, dict(job, store=str(work / "store-traced"),
                                    plan_requests=0))
        if result.raised(traced):
            return result
        result.attempted += 1
        differ = sorted(
            name for name in set(traced.out["artifacts"])
            | set(setup.out["artifacts"])
            if traced.out["artifacts"].get(name)
            != setup.out["artifacts"].get(name))
        result.failed += not checks.check(
            "traced store = untraced store",
            traced.out["digest"] == setup.out["digest"] and not differ,
            f"differing artifacts: {differ[:5]}")
        result.layers = per_layer(traced.out["ledger"],
                                  setup.out["counters"],
                                  setup.out["run_s"])
        result.missing = traced.out["ledger"]["missing"]
        result.layers.update(_serve_layers(loop.out, timed,
                                           setup.out["build_s"]))
    return result


def _serve_layers(loop: Dict[str, Any], timed: List[Dict[str, Any]],
                  build_s: float) -> Dict[str, float]:
    """Serve-layer numbers from the app's own cache counters and route
    histograms, as deltas over the timed passes."""
    cache = loop["cache"]
    looked = cache["hits"] + cache["misses"]
    out = {
        "serve.build_s": build_s,
        "serve.cache.hit_ratio": cache["hits"] / looked if looked else 0.0,
        "serve.cache.misses": cache["misses"],
        "serve.cache.coalesced": cache["coalesced"],
        "serve.cache.evictions": cache["evictions"],
        "serve.not_modified_ratio": sum(p["not_modified"] for p in timed)
        / sum(p["requests"] for p in timed),
    }
    for family in ("tiles", "events"):
        out[f"serve.route_p50_ms.{family}"] = loop["route_p50_ms"].get(
            f"serve.request.latency.{family}", 0.0)
    return out


WORKLOADS: Dict[str, Callable[..., Outcome]] = {
    "batch-serial": lambda a, w, c: batch(a, w, c, 1, "serial"),
    "batch-process": lambda a, w, c: batch(a, w, c, 2, "process"),
    "stream-replay": stream_replay,
    "serve-dashboard": serve_dashboard,
}


# -- reporting ----------------------------------------------------------------


def _metric_specs() -> Tuple[List[Dict[str, Any]], List[Dict[str, Any]]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["end_to_end"], spec["per_layer"]


def _format(value: float) -> str:
    return f"{value:.6g}"


def report(args, workload: str, outcome: Outcome,
           checks: Checks) -> Dict[str, Any]:
    e2e_specs, layer_specs = _metric_specs()
    mapping = json.loads((HERE / "layers.json").read_text())["per_layer"]
    print(f"workload {workload}  seed {args.seed} (world seed "
          f"{WORLD_SEED})  seconds {args.seconds}  trace {args.trace}")
    for note in outcome.notes:
        print(f"  {note}")
    print("\nend-to-end metrics")
    for spec in e2e_specs:
        value = outcome.e2e.get(spec["name"], 0.0)
        print(f"  {spec['name']:<14} {_format(value):>14} {spec['unit']}")
    for name, (unit, why) in UNGATED.items():
        print(f"  {name:<14} {_format(outcome.e2e.get(name, 0.0)):>14} "
              f"{unit:<5} (reported, not gated: {why})")
    fail_ratio = outcome.failed / max(outcome.attempted, 1)
    print(f"  {'fail_ratio':<14} {_format(fail_ratio):>14} "
          f"({outcome.failed} of {outcome.attempted} operations)")
    if args.trace:
        # Zero for layers this workload does not exercise.
        layers = {spec["name"]: outcome.layers.get(spec["name"], 0.0)
                  for spec in layer_specs}
        print("\nper-layer ledger (traced run)")
        for spec in layer_specs:
            print(f"  {spec['name']:<34} {_format(layers[spec['name']]):>12}"
                  f" {spec['unit']:<6} -> {mapping.get(spec['name'], '')}")
        covered = sum(value for name, value in layers.items()
                      if name.startswith("self_s."))
        for boundary in outcome.missing:
            print(f"  NOT WRAPPED (gone from the program): {boundary}")
        print(f"  self times {covered:.4f} s + uncovered "
              f"{layers['trace.uncovered_s']:.4f} s = traced run_s "
              f"{layers['trace.run_s']:.4f} s")
        metrics = {spec["name"]: {"value": layers[spec["name"]],
                                  "unit": spec["unit"]}
                   for spec in layer_specs}
    else:
        metrics = {spec["name"]: {"value": outcome.e2e.get(spec["name"],
                                                           0.0),
                                  "unit": spec["unit"]}
                   for spec in e2e_specs}
    print("\noutput checks")
    for name, ok, detail in checks.rows:
        print(f"  {'ok  ' if ok else 'FAIL'} {name}"
              + ("" if ok else f": {detail}"))
    return {"correct": checks.ok and outcome.failed == 0,
            "attempted": outcome.attempted, "failed": outcome.failed,
            "metrics": metrics}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, default=2023)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "api.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    work = (ROOT / ".bench_build" / "perfbench"
            / f"run-{os.getpid()}-{time.time_ns()}")
    work.mkdir(parents=True)
    try:
        # An unmeasured first interpreter start, so bytecode compilation
        # of a fresh checkout is not charged to one set-up sample.
        spawn(work, {"kind": "import"})
        names = list(WORKLOADS) if args.workload == "all" \
            else [args.workload]
        results = {}
        for name in names:
            checks = Checks()
            outcome = WORKLOADS[name](args, work, checks)
            results[name] = report(args, name, outcome, checks)
            print()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(results if args.workload == "all"
                     else results[args.workload]))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
