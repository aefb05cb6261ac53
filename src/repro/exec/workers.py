"""The sharded curation executor.

Splits the scenario's triggered countries into shards
(:mod:`repro.exec.shards`), serves warm shards from the content-addressed
cache (:mod:`repro.exec.cachestore`), runs cold shards inline or in a
process pool, and merges the per-country outputs through
:func:`repro.ioda.curation.finalize_records` so the parallel result is
byte-identical to a serial run.

Backends:

- ``serial``  — in-process loop over the shards.
- ``process`` — :class:`~concurrent.futures.ProcessPoolExecutor`; the
  world is **worker-resident**: a pool initializer (plus a module-level
  memo keyed by the config fingerprint) makes each worker process
  regenerate the deterministic scenario and build its platform exactly
  once per run, reusing them across every shard it executes.  Only
  small config dataclasses and the shard's investigation windows cross
  the process boundary.

Batch and stream dispatch share one rule (:func:`pool_size`): a pool
starts only when two or more workers would get work, so a one-worker
run, or a run with one cold shard, executes inline whatever the
backend; :func:`backend_label` is the name such a run records.

The full-world investigation-window map is computed once, in
:meth:`ShardedCurationExecutor.curate` — it feeds both the LPT shard
weights and, restricted to each shard's countries, the shard's own
work list, so no shard recomputes it.

When an observability session is active (:mod:`repro.obs`), every
executed shard is traced as an ``exec.shard`` span under the curate
stage: inline shards record straight into the session, and process
workers collect into a worker-local session whose
:class:`~repro.obs.runtime.WorkerReport` the parent adopts on
completion.  Cache hits/misses are counted into the session's metrics
registry.  None of this touches the RNG substreams, so results remain
byte-identical with tracing on or off.

With a :class:`repro.resilience.ResilienceConfig`, each country becomes
one retried, breaker-guarded unit of work: transient source failures
back off and retry deterministically, and a country that exhausts its
budget is quarantined — the merge proceeds with the survivors and the
run reports ``degraded=True`` (or, under ``fail_fast``, the first
exhausted country aborts the run).  Runs with an active fault plan
bypass the shard cache entirely, in both directions.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro import io
from repro.errors import CircuitOpenError, ConfigurationError, \
    RetriesExhaustedError, SchemaError
from repro.exec.cachestore import CacheStore, fingerprint
from repro.exec.shards import DEFAULT_N_SHARDS, Shard, ShardPlan
from repro.exec.stats import SHARD_SPAN, ExecStats, publish_shard_done, \
    publish_shard_plan
from repro.obs.runtime import WorkerReport, WorkerSettings, current, \
    run_reported
from repro.ioda.curation import CurationConfig, CurationPipeline, \
    finalize_records
from repro.ioda.platform import IODAPlatform, PlatformConfig
from repro.ioda.records import OutageRecord
from repro.resilience import BreakerBoard, ResilienceConfig, \
    call_with_retry, inject
from repro.timeutils.timestamps import TimeRange
from repro.world.scenario import ScenarioConfig, ScenarioGenerator, \
    WorldScenario

__all__ = ["BACKENDS", "ExecutorConfig", "ShardedCurationExecutor",
           "backend_label", "pool_size", "resident_world", "worker_init"]

BACKENDS = ("serial", "process")

#: Stage name under which curated shards are cached.
_CURATE_STAGE = "curate"


@dataclass(frozen=True, kw_only=True)
class ExecutorConfig:
    """How the observation+curation stage is scheduled."""

    workers: int = 1
    backend: str = "process"
    n_shards: Optional[int] = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ConfigurationError(f"workers must be >= 1: {self.workers}")
        if self.backend not in BACKENDS:
            raise ConfigurationError(
                f"unknown backend {self.backend!r}; expected one of "
                f"{BACKENDS}")
        if self.n_shards is not None and self.n_shards < 1:
            raise ConfigurationError(
                f"n_shards must be >= 1: {self.n_shards}")


def pool_size(backend: str, workers: int, units: int) -> int:
    """Worker processes to run ``units`` of work on; 0 means inline.

    A pool pays for its start-up only when at least two workers get
    work, so the ``process`` backend runs inline below that.
    """
    size = min(workers, units)
    return size if backend == "process" and size > 1 else 0


def backend_label(backend: str, workers: int) -> str:
    """The backend a run records: one worker always runs serially."""
    return backend if workers > 1 else "serial"


#: Per-country curated records, in the country order of the owning shard.
_ShardRecords = List[Tuple[str, List[OutageRecord]]]

#: Countries a shard gave up on (retries exhausted / breaker open).
_Quarantined = Tuple[str, ...]

#: What curating one shard produced: the surviving countries' records
#: plus the countries quarantined along the way.
_ShardResult = Tuple[_ShardRecords, _Quarantined]


def _curate_shard(scenario: WorldScenario,
                  platform_config: PlatformConfig,
                  curation_config: CurationConfig,
                  period: TimeRange, countries: Tuple[str, ...],
                  windows: Optional[
                      Mapping[str, Sequence[TimeRange]]] = None,
                  platform: Optional[IODAPlatform] = None,
                  resilience: Optional[ResilienceConfig] = None
                  ) -> _ShardResult:
    """Curate one shard's countries over a scenario.

    The per-country RNG substreams make this independent of every other
    shard; the only shared object is the (effectively read-only)
    platform, which callers pass in to share its country caches across
    shards.

    ``windows`` is the shard's own countries' investigation windows,
    already computed by the executor (which needs the full-world map
    for shard weighting anyway) — the shard never recomputes the
    world-wide map.  Direct callers may omit it and pay for the
    computation here.

    With a :class:`~repro.resilience.ResilienceConfig`, each country is
    one retried unit of work guarded by its own circuit breaker: the
    investigation runs under a per-attempt fault scope (which is what
    keys deterministic injection), transient failures back off and
    retry, and a country that exhausts its budget is either quarantined
    (returned in the second slot; the merge proceeds without it) or —
    under ``fail_fast`` — aborts the whole run.  Because curation is a
    pure function of the scenario, a retried attempt reproduces the
    fault-free bytes exactly.
    """
    if platform is None:
        platform = IODAPlatform(scenario, platform_config)
    pipeline = CurationPipeline(platform, curation_config)
    if windows is None:
        windows = pipeline.country_windows(period)
    if resilience is None:
        return ([(iso2,
                  pipeline.investigate_country(iso2, windows[iso2], period))
                 for iso2 in countries], ())
    board = BreakerBoard(resilience.breaker)
    survivors: _ShardRecords = []
    quarantined: List[str] = []
    for iso2 in countries:
        try:
            records = call_with_retry(
                lambda iso2=iso2: pipeline.investigate_country(
                    iso2, windows[iso2], period),
                policy=resilience.retry, key=iso2, site="curate.country",
                breaker=board.get(iso2))
        except (RetriesExhaustedError, CircuitOpenError):
            if resilience.fail_fast:
                raise
            quarantined.append(iso2)
            continue
        survivors.append((iso2, records))
    return survivors, tuple(quarantined)


#: What one scheduled shard sends back: records, quarantined countries,
#: wall seconds, and — from a process worker under an observability
#: session — the worker's report for the parent to adopt.
_ShardOutcome = Tuple[_ShardRecords, _Quarantined, float,
                      Optional[WorkerReport]]

#: The worker-resident world: one (scenario, platform) pair per process,
#: keyed by the fingerprint of everything that shaped it.  A pool worker
#: executing several shards of one run reuses the entry; a key change
#: (different run config in a hypothetically reused process) rebuilds
#: and replaces it.  Lives at module level so it survives across
#: :func:`_curate_shard_subprocess` calls within one worker process —
#: worker processes are forked per run, so entries never leak between
#: runs.
_WORKER_WORLD: Dict[str, Tuple[WorldScenario, IODAPlatform]] = {}

#: How many times this process built the world (the acceptance check
#: that the process backend generates the scenario once per worker per
#: run reads this through a per-pid gauge).
_WORLD_BUILDS = 0


def resident_world(scenario_config: ScenarioConfig,
                    platform_config: PlatformConfig
                    ) -> Tuple[WorldScenario, IODAPlatform]:
    """This process's scenario+platform, built at most once per config.

    Scenario generation is deterministic, so the resident world matches
    the parent's exactly; the platform's country caches accumulate
    across all shards the worker executes.
    """
    global _WORLD_BUILDS
    key = fingerprint(scenario_config, platform_config)
    entry = _WORKER_WORLD.get(key)
    if entry is None:
        scenario = ScenarioGenerator(scenario_config).generate()
        platform = IODAPlatform(scenario, platform_config)
        _WORKER_WORLD.clear()
        entry = _WORKER_WORLD[key] = (scenario, platform)
        _WORLD_BUILDS += 1
    return entry


def worker_init(scenario_config: ScenarioConfig,
                 platform_config: PlatformConfig) -> None:
    """Pool initializer: pre-build the resident world once per process.

    Runs before the worker's first shard, outside any fault scope or
    observability session (fault hooks are inert outside a scope, so
    generation here matches generation inside a chaos run byte for
    byte).  The build is memoized, so the first shard call finds it.
    """
    resident_world(scenario_config, platform_config)


def _curate_shard_subprocess(
        scenario_config: ScenarioConfig,
        platform_config: PlatformConfig,
        curation_config: CurationConfig,
        period: TimeRange,
        countries: Tuple[str, ...],
        shard_index: int = -1,
        resilience: Optional[ResilienceConfig] = None,
        windows: Optional[Mapping[str, Sequence[TimeRange]]] = None,
        settings: Optional[WorkerSettings] = None) -> _ShardOutcome:
    """Process-pool entry point: curate over the worker-resident world.

    Module-level so it pickles by reference.  The scenario and platform
    come from the per-process memo (:func:`resident_world`) — built by
    the pool initializer, reused by every shard this worker executes —
    so a shard call ships only configs and its own countries' windows
    across the process boundary.  With the parent session's
    ``settings`` the shard runs under a worker-local session
    (:func:`repro.obs.runtime.run_reported`) whose report rides home in
    the outcome.  The fault plan does not survive the process boundary
    as ambient state, so the worker re-installs it from the (picklable)
    resilience config — injection decisions are pure functions of the
    plan, so the worker faults exactly where the serial backend would.
    """
    started = time.perf_counter()
    plan = resilience.fault_plan if resilience is not None else None

    def shard() -> _ShardResult:
        obs = current()
        with obs.span(SHARD_SPAN, shard=shard_index,
                      countries=len(countries), backend="process"):
            scenario, platform = resident_world(scenario_config,
                                                platform_config)
            result = _curate_shard(
                scenario, platform_config, curation_config, period,
                countries, windows=windows, platform=platform,
                resilience=resilience)
        # Gauges merge last-write-wins per series, so each worker
        # process reports its cumulative build count under its own pid
        # — the parent-side sum counts world builds per process (the
        # "generated at most once per worker per run" assertion).
        obs.metrics.gauge("exec.worker.world_builds",
                          pid=os.getpid()).set(float(_WORLD_BUILDS))
        return result

    with inject(plan):
        (records, quarantined), report = run_reported(settings, shard)
    return records, quarantined, time.perf_counter() - started, report


class ShardedCurationExecutor:
    """Runs the observation+curation stage sharded, cached, and merged."""

    def __init__(self, *, study_period: TimeRange,
                 platform_config: PlatformConfig | None = None,
                 curation_config: CurationConfig | None = None,
                 cache: CacheStore | None = None,
                 config: ExecutorConfig | None = None,
                 resilience: ResilienceConfig | None = None):
        self._period = study_period
        self._platform_config = platform_config or PlatformConfig()
        self._curation_config = curation_config or CurationConfig()
        self._cache = cache
        self._config = config or ExecutorConfig()
        self._resilience = resilience

    @property
    def config(self) -> ExecutorConfig:
        return self._config

    # -- main entry -------------------------------------------------------------

    def curate(self, scenario: WorldScenario,
               stats: ExecStats | None = None) -> List[OutageRecord]:
        """Curate every triggered country of ``scenario``, in shards."""
        obs = current()
        stats = stats if stats is not None else ExecStats()
        stats.workers = self._config.workers
        stats.backend = backend_label(self._config.backend,
                                      self._config.workers)
        obs.annotate(workers=stats.workers, backend=stats.backend)

        platform = IODAPlatform(scenario, self._platform_config)
        pipeline = CurationPipeline(platform, self._curation_config)
        # Computed once, here: the full-world window map feeds the LPT
        # weights below, and each shard receives just its own
        # countries' slice — no shard recomputes the world-wide map.
        windows = pipeline.country_windows(self._period)
        # Weight = total window seconds: curation cost is dominated by
        # how much signal the dashboards must replay per country.
        weights = {
            iso2: float(sum(w.duration for w in country_windows))
            for iso2, country_windows in windows.items()}
        plan = ShardPlan.split(
            sorted(windows), self._config.n_shards or DEFAULT_N_SHARDS,
            weights=weights)
        stats.n_shards = len(plan)
        obs.annotate(n_shards=len(plan))
        publish_shard_plan(obs.metrics, len(plan))

        # Chaos runs never touch the shard cache: a planted payload could
        # mask the very failures being exercised, and a degraded shard
        # must never be served to a later clean run.  Provenance runs
        # bypass it too — a warm hit would skip the adjudication whose
        # lineage capsules the run exists to capture (the records are
        # identical either way, so cached entries stay valid).
        use_cache = (self._cache is not None
                     and obs.provenance is None
                     and (self._resilience is None
                          or self._resilience.fault_plan is None))

        by_shard: Dict[int, _ShardRecords] = {}
        cold: List[Shard] = []
        for shard in plan:
            cached = self._cache_get(scenario, shard) if use_cache else None
            if cached is not None:
                by_shard[shard.index] = cached
                stats.cache_hits += 1
            else:
                cold.append(shard)
        stats.cache_misses = len(cold)
        obs.metrics.counter("exec.cache.hits").inc(stats.cache_hits)
        obs.metrics.counter("exec.cache.misses").inc(len(cold))
        publish_shard_done(obs.metrics, stats.cache_hits)

        quarantined: List[str] = []
        if cold:
            executed = self._execute(scenario, platform, windows, cold,
                                     stats)
            for shard, (shard_records, shard_quarantined) \
                    in executed.items():
                by_shard[shard.index] = shard_records
                quarantined.extend(shard_quarantined)
                if use_cache and not shard_quarantined:
                    self._cache_put(scenario, shard, shard_records)

        stats.degraded = bool(quarantined)
        stats.quarantined = tuple(sorted(quarantined))
        obs.annotate(degraded=stats.degraded,
                     quarantined=list(stats.quarantined))
        for iso2 in stats.quarantined:
            obs.metrics.counter("resilience.quarantined",
                                country=iso2).inc()

        dropped = set(quarantined)
        by_country = {iso2: records
                      for shard_records in by_shard.values()
                      for iso2, records in shard_records}
        merged = finalize_records(
            by_country[iso2] for iso2 in plan.countries
            if iso2 not in dropped)
        stats.n_records = len(merged)
        obs.annotate(n_records=len(merged))
        return merged

    # -- scheduling -------------------------------------------------------------

    def _execute(self, scenario: WorldScenario, platform: IODAPlatform,
                 windows: Mapping[str, List[TimeRange]],
                 cold: List[Shard],
                 stats: ExecStats) -> Dict[Shard, _ShardResult]:
        obs = current()

        def shard_windows(shard: Shard) -> Dict[str, List[TimeRange]]:
            return {iso2: windows[iso2] for iso2 in shard.countries}
        workers = pool_size(self._config.backend, self._config.workers,
                            len(cold))
        results: Dict[Shard, _ShardResult] = {}
        if not workers:
            for shard in cold:
                started = time.perf_counter()
                with obs.span(SHARD_SPAN, shard=shard.index,
                              countries=len(shard.countries),
                              backend="serial"):
                    results[shard] = _curate_shard(
                        scenario, self._platform_config,
                        self._curation_config, self._period,
                        shard.countries, windows=shard_windows(shard),
                        platform=platform, resilience=self._resilience)
                stats.record_shard(
                    shard.index, time.perf_counter() - started)
                publish_shard_done(obs.metrics)
            return results

        # Worker spans are recorded in other processes; they are
        # adopted under the curate stage's span, captured here.
        parent_id = obs.tracer.current_id()
        with ProcessPoolExecutor(
                max_workers=workers, initializer=worker_init,
                initargs=(scenario.config, self._platform_config)) as pool:
            futures = {
                pool.submit(
                    _curate_shard_subprocess, scenario.config,
                    self._platform_config, self._curation_config,
                    self._period, shard.countries, shard.index,
                    self._resilience, windows=shard_windows(shard),
                    settings=obs.worker_settings(),
                ): shard
                for shard in cold}
            pending = set(futures)
            while pending:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    shard = futures[future]
                    records, quarantined, seconds, report = future.result()
                    results[shard] = (records, quarantined)
                    stats.record_shard(shard.index, seconds)
                    publish_shard_done(obs.metrics)
                    obs.adopt(report, parent_id)
        return results

    # -- cache ------------------------------------------------------------------

    def _shard_key(self, scenario: WorldScenario,
                   shard: Shard) -> Tuple[object, ...]:
        return (scenario.config, self._platform_config,
                self._curation_config, self._period, shard.countries)

    def _cache_get(self, scenario: WorldScenario,
                   shard: Shard) -> Optional[_ShardRecords]:
        if self._cache is None:
            return None
        payload = self._cache.get(
            _CURATE_STAGE, *self._shard_key(scenario, shard))
        if payload is None:
            return None
        try:
            return [(iso2, [io.record_from_dict(d) for d in dicts])
                    for iso2, dicts in payload["records"]]
        except (KeyError, TypeError, ValueError, SchemaError):
            return None

    def _cache_put(self, scenario: WorldScenario, shard: Shard,
                   shard_records: _ShardRecords) -> None:
        if self._cache is None:
            return
        payload = {
            "records": [
                [iso2, [io.record_to_dict(r) for r in records]]
                for iso2, records in shard_records],
        }
        self._cache.put(_CURATE_STAGE, payload,
                        *self._shard_key(scenario, shard))
