"""The sharded curation executor and the one worker pool.

Splits the scenario's triggered countries into shards
(:mod:`repro.exec.shards`), serves warm shards from the content-addressed
cache (:mod:`repro.exec.cachestore`), runs cold shards through a
:class:`WorkerPool`, and merges the per-country outputs through
:func:`repro.ioda.curation.finalize_records` so the parallel result is
byte-identical to a serial run.

:class:`WorkerPool` is the one dispatcher of per-country work: batch
shards here, and the stream engine's window adjudication
(:mod:`repro.stream.engine`).  It applies one rule, :func:`pool_size`:
a unit list runs inline on the parent's world unless two or more
workers would get work, in which case it runs on a
:class:`~concurrent.futures.ProcessPoolExecutor` whose workers hold a
**worker-resident** world — the initializer, :func:`resident_world`,
regenerates the deterministic scenario and builds its platform once
per worker, and every unit that worker runs reuses them.  Only small
config dataclasses and each unit's own arguments cross the process
boundary.  :func:`backend_label` is the name such a run records.

The full-world investigation-window map is computed once, in
:meth:`ShardedCurationExecutor.curate` — it feeds both the LPT shard
weights and, restricted to each shard's countries, the shard's own
work list, so no shard recomputes it.

When an observability session is active (:mod:`repro.obs`), every
executed shard is traced as an ``exec.shard`` span under the curate
stage: inline units record straight into the session, and pooled units
collect into a worker-local session whose
:class:`~repro.obs.runtime.WorkerReport` the pool adopts on
completion.  Cache hits/misses are counted into the session's metrics
registry.  None of this touches the RNG substreams, so results remain
byte-identical with tracing on or off.

With a :class:`repro.resilience.ResilienceConfig`, each country becomes
one retried, breaker-guarded unit of work: transient source failures
back off and retry deterministically, and a country that exhausts its
budget is quarantined — the merge proceeds with the survivors and the
run reports ``degraded=True`` (or, under ``fail_fast``, the first
exhausted country aborts the run).  Pool workers re-install the
parent's ambient fault plan, so they fault exactly where an inline run
does.  Runs with an active fault plan bypass the shard cache entirely,
in both directions.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Iterator, List, Mapping, \
    Optional, Sequence, Tuple

from repro import io
from repro.errors import CircuitOpenError, ConfigurationError, \
    RetriesExhaustedError, SchemaError
from repro.exec.cachestore import CacheStore, fingerprint
from repro.exec.shards import DEFAULT_N_SHARDS, Shard, ShardPlan
from repro.exec.stats import SHARD_SPAN, publish_shard_done, \
    publish_shard_plan
from repro.obs.runtime import WorkerReport, WorkerSettings, current, \
    run_reported
from repro.ioda.curation import CurationConfig, CurationPipeline, \
    finalize_records
from repro.ioda.platform import IODAPlatform, PlatformConfig
from repro.ioda.records import OutageRecord
from repro.resilience import BreakerBoard, FaultPlan, ResilienceConfig, \
    call_with_retry, inject
from repro.resilience.faults import active_plan
from repro.timeutils.timestamps import TimeRange
from repro.world.scenario import ScenarioConfig, ScenarioGenerator, \
    WorldScenario

__all__ = ["BACKENDS", "ExecutorConfig", "ShardedCurationExecutor",
           "WorkerPool", "backend_label", "pool_size", "resident_world"]

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


#: The worker-resident world: one platform (and the scenario it
#: observes) per process, keyed by the fingerprint of everything that
#: shaped it.  A pool worker reuses the entry for every unit of work it
#: runs; a key change rebuilds and replaces it.  Lives at module level
#: so it survives across units within one worker process — worker
#: processes are forked per pool, so entries never leak between runs.
_WORKER_WORLD: Dict[str, IODAPlatform] = {}

#: How many times this process built the world (each pool worker
#: reports it through a per-pid gauge, which is how a run shows that
#: every worker built the world once).
_WORLD_BUILDS = 0


def resident_world(scenario_config: ScenarioConfig,
                   platform_config: PlatformConfig) -> IODAPlatform:
    """This process's platform, built at most once per config.

    The pool initializer: it runs before a worker's first unit, outside
    any fault scope or observability session (fault hooks are inert
    outside a scope, so generation here matches generation inside a
    chaos run byte for byte).  Scenario generation is deterministic, so
    the resident world matches the parent's exactly; the platform's
    country caches accumulate across every unit the worker runs.
    """
    global _WORLD_BUILDS
    key = fingerprint(scenario_config, platform_config)
    platform = _WORKER_WORLD.get(key)
    if platform is None:
        scenario = ScenarioGenerator(scenario_config).generate()
        _WORKER_WORLD.clear()
        platform = _WORKER_WORLD[key] = IODAPlatform(scenario,
                                                     platform_config)
        _WORLD_BUILDS += 1
    return platform


#: A unit of work: ``fn(platform, backend, *args)``, with ``fn``
#: module-level so it pickles by reference.
_Unit = Callable[..., Any]


def _run_unit(world: Tuple[ScenarioConfig, PlatformConfig],
              plan: Optional[FaultPlan],
              settings: Optional[WorkerSettings], fn: _Unit,
              args: tuple) -> Tuple[Any, Optional[WorkerReport]]:
    """Pool-side: run one unit over the resident world, reported home.

    ``plan`` is the fault plan ambient in the parent when the unit was
    handed over, installed here for the unit — injection decisions are
    pure functions of the plan, so the worker faults exactly where an
    inline run would.
    """
    platform = resident_world(*world)

    def unit() -> Any:
        result = fn(platform, "process", *args)
        # Gauges merge last-write-wins per series, so each worker
        # reports its cumulative build count under its own pid.
        current().metrics.gauge("exec.worker.world_builds",
                                pid=os.getpid()).set(float(_WORLD_BUILDS))
        return result

    with inject(plan):
        return run_reported(settings, unit)


class WorkerPool:
    """The one dispatcher of per-country work, batch and stream alike.

    :meth:`map` runs ``fn(platform, backend, *args)`` for each ``args``
    of a list of units and yields the results in order.  Where follows
    :func:`pool_size`: below two busy workers every unit runs inline on
    the parent's ``platform`` (``backend="serial"``); otherwise on a
    process pool whose initializer is :func:`resident_world`
    (``backend="process"``), so each worker builds the world once.  A
    pooled unit runs under :func:`~repro.obs.runtime.run_reported` with
    the parent's ambient fault plan re-installed, and its report is
    adopted under the span open where :meth:`map` is iterated.

    ``max_units`` is the most units one call will hand over; it sizes
    the pool, which starts on first use and lives until :meth:`close`,
    so a stream's advances share one set of workers.
    ``heartbeats=False`` keeps workers from sampling telemetry of their
    own, for units far shorter than a heartbeat interval.
    """

    def __init__(self, config: ExecutorConfig, platform: IODAPlatform,
                 max_units: int, *, heartbeats: bool = True):
        self._platform = platform
        self._size = pool_size(config.backend, config.workers, max_units)
        self._heartbeats = heartbeats
        self._pool: Optional[ProcessPoolExecutor] = None

    def map(self, fn: _Unit, units: Sequence[tuple]) -> Iterator[Any]:
        """Yield ``fn(platform, backend, *args)`` per unit, in order."""
        if min(self._size, len(units)) < 2:
            for args in units:
                yield fn(self._platform, "serial", *args)
            return
        obs = current()
        settings = obs.worker_settings()
        if settings is not None and not self._heartbeats:
            settings = replace(settings, telemetry=None)
        world = (self._platform.scenario.config, self._platform.config)
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self._size, initializer=resident_world,
                initargs=world)
        futures = [self._pool.submit(_run_unit, world, active_plan(),
                                     settings, fn, args)
                   for args in units]
        # Worker spans were recorded in other processes; they join the
        # tree under the caller's span.
        parent_id = obs.tracer.current_id()
        for future in futures:
            result, report = future.result()
            obs.adopt(report, parent_id)
            yield result

    def close(self) -> None:
        """Shut the pool down (a no-op if no unit ever needed it)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def _curate_shard_subprocess(platform: IODAPlatform, backend: str,
                             curation_config: CurationConfig,
                             period: TimeRange, countries: Tuple[str, ...],
                             shard_index: int,
                             windows: Mapping[str, Sequence[TimeRange]],
                             resilience: Optional[ResilienceConfig]
                             ) -> _ShardResult:
    """One shard as a :class:`WorkerPool` unit, inline or in a worker.

    Traced as an ``exec.shard`` span, whose duration is the shard's
    time in the execution report.  ``perfbench/ledger.py`` wraps this
    function by name, and pool workers resolve it by name, so each
    worker's shard is one top-level span in the benchmark ledger.
    """
    with current().span(SHARD_SPAN, shard=shard_index,
                        countries=len(countries), backend=backend):
        return _curate_shard(
            platform.scenario, platform.config, curation_config, period,
            countries, windows=windows, platform=platform,
            resilience=resilience)


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

    def curate(self, scenario: WorldScenario) -> List[OutageRecord]:
        """Curate every triggered country of ``scenario``, in shards.

        The run's shape and outcome are annotated on the active
        session's open span (a pipeline's ``stage:curate``), where
        :meth:`repro.exec.stats.ExecStats.from_obs` reads them.
        """
        obs = current()
        obs.annotate(workers=self._config.workers,
                     backend=backend_label(self._config.backend,
                                           self._config.workers))

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
            else:
                cold.append(shard)
        obs.metrics.counter("exec.cache.hits").inc(len(by_shard))
        obs.metrics.counter("exec.cache.misses").inc(len(cold))
        publish_shard_done(obs.metrics, len(by_shard))

        quarantined: List[str] = []
        if cold:
            executed = self._execute(platform, windows, cold)
            for shard, (shard_records, shard_quarantined) \
                    in executed.items():
                by_shard[shard.index] = shard_records
                quarantined.extend(shard_quarantined)
                if use_cache and not shard_quarantined:
                    self._cache_put(scenario, shard, shard_records)

        quarantined.sort()
        obs.annotate(degraded=bool(quarantined), quarantined=quarantined)
        for iso2 in quarantined:
            obs.metrics.counter("resilience.quarantined",
                                country=iso2).inc()

        dropped = set(quarantined)
        by_country = {iso2: records
                      for shard_records in by_shard.values()
                      for iso2, records in shard_records}
        merged = finalize_records(
            by_country[iso2] for iso2 in plan.countries
            if iso2 not in dropped)
        obs.annotate(n_records=len(merged))
        return merged

    # -- scheduling -------------------------------------------------------------

    def _execute(self, platform: IODAPlatform,
                 windows: Mapping[str, List[TimeRange]],
                 cold: List[Shard]) -> Dict[Shard, _ShardResult]:
        metrics = current().metrics
        units = [(self._curation_config, self._period, shard.countries,
                  shard.index,
                  {iso2: windows[iso2] for iso2 in shard.countries},
                  self._resilience)
                 for shard in cold]
        results: Dict[Shard, _ShardResult] = {}
        with WorkerPool(self._config, platform, len(cold)) as pool:
            for shard, result in zip(
                    cold, pool.map(_curate_shard_subprocess, units)):
                results[shard] = result
                publish_shard_done(metrics)
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
