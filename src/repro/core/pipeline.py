"""End-to-end orchestration.

:class:`ReproPipeline` runs the whole reproduction: generate the synthetic
world, observe it through the IODA platform and curation pipeline, compile
and harmonize the KIO snapshots, emit the auxiliary datasets, and build
the merged/labeled event dataset.

The observation+curation stage dominates the cost, so it runs through the
sharded executor in :mod:`repro.exec`: countries are split into
deterministic shards, cold shards run in a selectable worker pool, and
every shard's output is disk-cached content-addressed by seed, config
fingerprints, study period, and :data:`repro.exec.CACHE_VERSION` — a
changed config can never be served stale records.  Parallel runs are
byte-identical to serial ones.  Prefer the stable facade
(:func:`repro.api.run`) over constructing this class directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

from repro.core.matching import MatchingConfig
from repro.exec.cachestore import CACHE_VERSION, CacheStore
from repro.exec.stats import ExecStats
from repro.exec.workers import ExecutorConfig, ShardedCurationExecutor
from repro.obs.health import HealthPolicy, HealthReport, evaluate_run
from repro.obs.runtime import Observability, activate
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
from repro.ioda.platform import PlatformConfig
from repro.ioda.records import OutageRecord
from repro.kio.compiler import KIOCompiler, KIOCompilerConfig
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
from repro.rng import substream
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
    """Runs (and caches) the full reproduction."""

    def __init__(self, scenario_config: ScenarioConfig | None = None,
                 platform_config: PlatformConfig | None = None,
                 curation_config: CurationConfig | None = None,
                 kio_config: KIOCompilerConfig | None = None,
                 matching_config: MatchingConfig | None = None,
                 study_period: TimeRange = STUDY_PERIOD,
                 cache_dir: Optional[Path] = None,
                 executor: ExecutorConfig | None = None,
                 observability: Observability | None = None,
                 resilience: ResilienceConfig | None = None,
                 health_policy: HealthPolicy | None = None):
        self._scenario_config = scenario_config or ScenarioConfig()
        self._platform_config = platform_config
        self._curation_config = curation_config
        self._kio_config = kio_config
        self._matching_config = matching_config
        self._study_period = study_period
        self._cache_dir = cache_dir
        self._resilience = resilience
        self._executor = ShardedCurationExecutor(
            study_period=study_period,
            platform_config=platform_config,
            curation_config=curation_config,
            cache=CacheStore(Path(cache_dir)) if cache_dir else None,
            config=executor,
            resilience=resilience)
        self._observability = observability
        self._health_policy = health_policy
        self._last_obs: Optional[Observability] = None
        self._stats: Optional[ExecStats] = None
        self._health: Optional[HealthReport] = None

    @property
    def stats(self) -> Optional[ExecStats]:
        """Execution report of the most recent :meth:`run` (or None)."""
        return self._stats

    @property
    def executor_config(self) -> ExecutorConfig:
        """How the observation+curation stage is scheduled."""
        return self._executor.config

    @property
    def health(self) -> Optional[HealthReport]:
        """Fidelity scorecard of the most recent :meth:`run` (or None).

        Graded by the run's health policy (default: the paper-fidelity
        policy of :func:`repro.obs.health.default_policy`); the same
        report is streamed into the run journal as a ``health`` event.
        """
        return self._health

    @property
    def observability(self) -> Optional[Observability]:
        """The observability session of the most recent :meth:`run`.

        Holds the full span tree and metrics registry — what
        ``--trace`` and ``--metrics-json`` export; :attr:`stats` is the
        condensed view derived from it.
        """
        return self._last_obs

    # -- stages ----------------------------------------------------------------

    def build_scenario(self) -> WorldScenario:
        """Stage 1: the synthetic world."""
        return ScenarioGenerator(self._scenario_config).generate()

    def curate(self, scenario: WorldScenario) -> List[OutageRecord]:
        """Stage 2: IODA observation + curation.

        Delegates to the sharded executor: warm shards load from the
        content-addressed cache, cold shards run in the configured worker
        pool, and the merge is byte-identical to a serial run.
        """
        return self._executor.curate(scenario)

    def compile_kio(self, scenario: WorldScenario) -> List[KIOEvent]:
        """Stage 3: KIO reporting → annual snapshots → harmonization."""
        compiler = KIOCompiler(
            scenario.seed, scenario.registry, self._kio_config)
        years = list(scenario.config.years)
        canonical = compiler.compile(
            scenario.shutdowns, scenario.restrictions, years)
        snapshots = [AnnualSnapshot.serialize(year, canonical)
                     for year in years]
        return Harmonizer().harmonize(snapshots)

    def run(self) -> PipelineResult:
        """Run every stage and assemble the result.

        Every run executes under an observability session
        (:mod:`repro.obs`): the five stages become ``stage:*`` spans,
        the executor's shard work nests under the curate stage, and hot
        paths count into the session's metrics registry.  The
        :class:`ExecStats` report surfaced as :attr:`stats` is derived
        from that span tree afterwards.  Callers wanting a journal,
        profiling, heartbeats, lineage capsules or the Chrome-trace
        export pass their own :class:`Observability` session via the
        ``observability`` constructor argument (see :mod:`repro.api`).

        Afterwards the run is graded against its health policy
        (:attr:`health`; default: paper-fidelity targets), and the
        scorecard is journaled as a ``health`` event.
        """
        obs = self.build_observability()
        plan = (self._resilience.fault_plan
                if self._resilience is not None else None)
        with activate(obs), inject(plan):
            # The heartbeat sampler covers the whole run; its final
            # beat (emitted by stop) lands before the closing metrics
            # snapshot and the journal footer.
            obs.start_telemetry()
            try:
                with obs.span("run", seed=self._scenario_config.seed):
                    with obs.span("stage:scenario"):
                        scenario = self.build_scenario()
                    with obs.span("stage:curate"):
                        records = self.curate(scenario)
                    result = self.complete(scenario, records)
            finally:
                obs.stop_telemetry()
        self.finish(obs, result)
        return result

    def build_observability(self) -> Observability:
        """The run's session: the constructor's, or a fresh one.

        Drivers that own the run loop — the streaming session
        (:mod:`repro.stream.session`) — call this then
        :meth:`complete`/:meth:`finish` around their own stages.
        """
        return (self._observability if self._observability is not None
                else Observability())

    def complete(self, scenario: WorldScenario,
                 records: List[OutageRecord]) -> PipelineResult:
        """Stages 3–5 over already-curated records.

        Runs KIO compilation, the merge, and the auxiliary datasets —
        with their ``stage:*`` spans recorded into the *active*
        observability session — and assembles the
        :class:`PipelineResult`.  :meth:`run` calls this after batch
        curation; a :class:`~repro.stream.session.StreamSession` calls
        it at finalize over the records its engine curated
        incrementally.  Identical records in, identical result out.
        """
        from repro.obs.runtime import current

        obs = current()
        with obs.span("stage:kio"):
            kio_events = self.compile_kio(scenario)
        with obs.span("stage:merge"):
            merged = build_merged_dataset(
                scenario.registry, kio_events, records,
                self._study_period,
                matching=self._matching_config)
        with obs.span("stage:datasets"):
            return self._assemble(scenario, records, kio_events, merged)

    def finish(self, obs: Observability,
               result: PipelineResult) -> tuple[ExecStats, HealthReport]:
        """Grade and close out a run executed under ``obs``.

        Derives the :class:`ExecStats` report from the span tree,
        grades the run against the health policy, journals the health
        event, and finishes the session — the common tail of
        :meth:`run` and of a streaming finalize.
        """
        self._stats = ExecStats.from_obs(obs)
        self._health = evaluate_run(result, self._stats,
                                    self._health_policy)
        if obs.journal is not None:
            obs.journal.write(self._health.as_event())
        self._last_obs = obs
        obs.finish()
        return self._stats, self._health

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

        The source RNG substream is re-derived per attempt so a retried
        load sees exactly the generator state a first-try load would —
        retries can never shift the output bytes.
        """
        def load():
            maybe_fault("datasets.load", key=source.name)
            return source.load(
                world=scenario,
                rng=substream(scenario.seed, "dataset-source", source.name))

        if self._resilience is None:
            return load()
        return call_with_retry(
            load, policy=self._resilience.retry, key=source.name,
            site="datasets.load", breaker=board.get(source.name))
