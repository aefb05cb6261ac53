"""End-to-end stages.

:class:`ReproPipeline` holds the reproduction's stages: generate the
synthetic world, observe it through the IODA platform and curation
pipeline, compile and harmonize the KIO snapshots, emit the auxiliary
datasets, and build the merged/labeled event dataset.  It does not
drive a run: :func:`repro.api.run` (batch) and :func:`repro.api.stream`
(incremental) do, both inside the one run envelope
(:meth:`ReproPipeline.envelope`) and through the one tail
(:meth:`ReproPipeline.finish`), so the two shapes open, close and grade
a run identically.

The observation+curation stage dominates the cost, so it runs through the
sharded executor in :mod:`repro.exec`: countries are split into
deterministic shards, cold shards run in a selectable worker pool, and
every shard's output is disk-cached content-addressed by seed, config
fingerprints, study period, and :data:`repro.exec.CACHE_VERSION` — a
changed config can never be served stale records.  Parallel runs are
byte-identical to serial ones.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, List, Optional

from repro.exec.cachestore import CACHE_VERSION, CacheStore
from repro.exec.stats import ExecStats
from repro.exec.workers import ExecutorConfig, ShardedCurationExecutor
from repro.obs.health import HealthReport, evaluate_run
from repro.obs.runtime import Observability, activate, current
from repro.core.merge import MergedDataset, build_merged_dataset
from repro.datasets import (
    CoupDataset,
    DataReportalDataset,
    DatasetSource,
    ElectionDataset,
    ProtestDataset,
    VDemDataset,
    WorldBankDataset,
    default_sources,
)
from repro.ioda.curation import CurationConfig
from repro.ioda.records import OutageRecord
from repro.kio.compiler import KIOCompiler
from repro.kio.harmonize import Harmonizer
from repro.kio.schema import KIOEvent
from repro.kio.snapshots import AnnualSnapshot
from repro.resilience import (
    BreakerBoard,
    ResilienceConfig,
    call_with_retry,
    inject,
    maybe_fault,
)
from repro.timeutils.timestamps import TimeRange
from repro.topology.metrics import StateShare
from repro.world.scenario import (
    STUDY_PERIOD,
    ScenarioConfig,
    ScenarioGenerator,
    WorldScenario,
)

__all__ = ["CACHE_VERSION", "PipelineResult", "ReproPipeline"]


@dataclass
class PipelineResult:
    """Everything the analysis layer needs."""

    scenario: WorldScenario
    curated_records: List[OutageRecord]
    kio_events: List[KIOEvent]
    merged: MergedDataset
    vdem: VDemDataset
    worldbank: WorldBankDataset
    coups: CoupDataset
    elections: ElectionDataset
    protests: ProtestDataset
    datareportal: DataReportalDataset
    state_shares: dict[str, StateShare]


class ReproPipeline:
    """The reproduction's stages, its run envelope and its tail."""

    def __init__(self, scenario_config: ScenarioConfig | None = None,
                 curation_config: CurationConfig | None = None,
                 study_period: TimeRange = STUDY_PERIOD,
                 cache_dir: Optional[Path] = None,
                 executor: ExecutorConfig | None = None,
                 resilience: ResilienceConfig | None = None):
        self._scenario_config = scenario_config or ScenarioConfig()
        self._study_period = study_period
        self._resilience = resilience
        self._executor = ShardedCurationExecutor(
            study_period=study_period,
            curation_config=curation_config,
            cache=CacheStore(Path(cache_dir)) if cache_dir else None,
            config=executor,
            resilience=resilience)

    @property
    def executor(self) -> ShardedCurationExecutor:
        """The observation+curation stage's executor."""
        return self._executor

    @contextlib.contextmanager
    def envelope(self, obs: Observability) -> Iterator[WorldScenario]:
        """Open a run under ``obs``; yield its world.

        The one run envelope of a batch run (:func:`repro.api.run`) and
        a stream (:class:`~repro.stream.session.StreamSession`): it
        activates the session, installs the fault plan, samples
        heartbeats for the whole run, and opens the ``run`` span, under
        which the ``stage:scenario`` span builds the world.  The
        remaining stages run inside it; the final heartbeat lands on
        exit, before :meth:`finish` journals the closing lines.
        """
        plan = (self._resilience.fault_plan
                if self._resilience is not None else None)
        with activate(obs), inject(plan):
            obs.start_telemetry()
            try:
                with obs.span("run", seed=self._scenario_config.seed):
                    with obs.span("stage:scenario"):
                        scenario = self.build_scenario()
                    yield scenario
            finally:
                obs.stop_telemetry()

    # -- stages ----------------------------------------------------------------

    def build_scenario(self) -> WorldScenario:
        """Stage 1: the synthetic world."""
        return ScenarioGenerator(self._scenario_config).generate()

    def curate(self, scenario: WorldScenario) -> List[OutageRecord]:
        """Stage 2: IODA observation + curation, batch-wise.

        Delegates to the sharded executor under a ``stage:curate`` span
        in the active session: warm shards load from the
        content-addressed cache, cold shards run in the configured
        worker pool, and the merge is byte-identical to a serial run.
        """
        with current().span("stage:curate"):
            return self._executor.curate(scenario)

    def compile_kio(self, scenario: WorldScenario) -> List[KIOEvent]:
        """Stage 3: KIO reporting → annual snapshots → harmonization."""
        compiler = KIOCompiler(scenario.seed, scenario.registry)
        years = list(scenario.config.years)
        canonical = compiler.compile(
            scenario.shutdowns, scenario.restrictions, years)
        snapshots = [AnnualSnapshot.serialize(year, canonical)
                     for year in years]
        return Harmonizer().harmonize(snapshots)

    def complete(self, scenario: WorldScenario,
                 records: List[OutageRecord]) -> PipelineResult:
        """Stages 3–5 over already-curated records.

        Runs KIO compilation, the merge, and the auxiliary datasets —
        with their ``stage:*`` spans recorded into the *active*
        observability session — and assembles the
        :class:`PipelineResult`.  A batch run calls this after
        :meth:`curate`; a :class:`~repro.stream.session.StreamSession`
        calls it at finalize over the records its engine curated
        incrementally.  Identical records in, identical result out.
        """
        obs = current()
        with obs.span("stage:kio"):
            kio_events = self.compile_kio(scenario)
        with obs.span("stage:merge"):
            merged = build_merged_dataset(
                scenario.registry, kio_events, records,
                self._study_period)
        with obs.span("stage:datasets"):
            return self._assemble(scenario, records, kio_events, merged)

    def finish(self, obs: Observability,
               events: PipelineResult) -> tuple[ExecStats, HealthReport]:
        """Grade and close out a run executed under ``obs``.

        Derives the :class:`ExecStats` report from the span tree,
        grades the run against the default policy, journals the health
        event, and finishes the session — the common tail of a batch
        run and a streaming finalize, after :meth:`envelope` closed.
        """
        stats = ExecStats.from_obs(obs)
        health = evaluate_run(events, stats)
        if obs.journal is not None:
            obs.journal.write(health.as_event())
        obs.finish()
        return stats, health

    def _assemble(self, scenario: WorldScenario,
                  records: List[OutageRecord],
                  kio_events: List[KIOEvent],
                  merged: MergedDataset) -> PipelineResult:
        """Load the auxiliary sources and bundle everything.

        Every auxiliary product flows through the uniform
        :class:`~repro.datasets.DatasetSource` protocol
        (:func:`~repro.datasets.default_sources`); each source's name
        matches the :class:`PipelineResult` field it fills.  When the
        run has a resilience config, each load is retried under its own
        circuit breaker — a permanently failing source exhausts the
        budget and aborts the run (a missing dataset cannot be merged
        around, unlike a quarantined country).
        """
        board = (BreakerBoard(self._resilience.breaker)
                 if self._resilience is not None else None)
        products = {source.name: self._load_source(source, scenario, board)
                    for source in default_sources()}
        return PipelineResult(
            scenario=scenario,
            curated_records=records,
            kio_events=kio_events,
            merged=merged,
            **products,
        )

    def _load_source(self, source: DatasetSource, scenario: WorldScenario,
                     board: Optional[BreakerBoard]):
        """Load one source, retried and fault-injectable when configured.

        A load is a pure function of the world, so a retried load
        returns exactly the records a first-try load would — retries
        can never shift the output bytes.
        """
        def load():
            maybe_fault("datasets.load", key=source.name)
            return source.load(world=scenario)

        if self._resilience is None:
            return load()
        return call_with_retry(
            load, policy=self._resilience.retry, key=source.name,
            site="datasets.load", breaker=board.get(source.name))
