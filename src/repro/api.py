"""repro.api — the stable top-level facade.

Downstream tools and the bundled examples should program against this
module rather than deep-importing :mod:`repro.core.pipeline`,
:mod:`repro.ioda.platform`, and friends; the internals are free to move,
this surface is not.

    import repro.api as api

    result = api.run(seed=2023, workers=4, cache_dir=".cache")
    result.health.grade         # "pass" / "warn" / "fail"
    result.stats.total_seconds  # execution report
    client = api.client(result)
    page = client.get_events(country_iso2="SY", limit=25)

There are two entry points over the same engine.  :func:`run` executes
the pipeline in one shot and returns a :class:`RunResult` carrying
everything a run produces — the event datasets (``result.events``), the
execution report (``result.stats``), the fidelity scorecard
(``result.health``), and the journal path when one was written.
:func:`stream` opens the same run incrementally: it returns a
:class:`~repro.stream.session.StreamSession` whose bins are pushed (or
replayed) under an advancing watermark, emitting live
``open``/``update``/``close`` event lifecycles, and whose
``finalize()`` yields a :class:`RunResult` byte-identical to
:func:`run`'s.

Everything here is re-exported with keyword-only knobs, so adding a
parameter never breaks a caller.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Mapping, Optional, Tuple, Union

from repro.core.pipeline import PipelineResult, ReproPipeline
from repro.datasets import DatasetSource, default_sources
from repro.exec import ExecStats, ExecutorConfig, backend_label
from repro.exec.cachestore import fingerprint
from repro.io import dump_records, load_records
from repro.ioda.api import IODAClient
from repro.ioda.curation import CurationConfig
from repro.ioda.platform import IODAPlatform
from repro.ioda.records import OutageRecord
from repro.obs import HealthCheck, HealthPolicy, HealthReport, \
    Observability, PerfBaseline, ProfileConfig, RunJournal, RunRecord, \
    RunRegistry, TelemetryConfig, compare_baselines, default_policy, \
    evaluate_run, load_baseline, read_journal, run_statistics, \
    save_baseline, sorted_capsules, summarize_events, write_chrome_trace
from repro.resilience import BreakerPolicy, FaultPlan, ResilienceConfig, \
    RetryPolicy
from repro.stream.models import BinSegment, StreamEvent
from repro.stream.session import StreamSession
from repro.timeutils.timestamps import TimeRange
from repro.world.scenario import STUDY_PERIOD, ScenarioConfig

__all__ = [
    "BinSegment",
    "BreakerPolicy",
    "DatasetSource",
    "ExecStats",
    "FaultPlan",
    "HealthCheck",
    "HealthPolicy",
    "HealthReport",
    "IODAClient",
    "Observability",
    "PerfBaseline",
    "PipelineResult",
    "ProfileConfig",
    "ResilienceConfig",
    "RetryPolicy",
    "RunJournal",
    "RunRecord",
    "RunRegistry",
    "RunResult",
    "StreamEvent",
    "StreamSession",
    "TelemetryConfig",
    "client",
    "compare_baselines",
    "default_policy",
    "default_sources",
    "dump_records",
    "evaluate_run",
    "load_baseline",
    "load_records",
    "read_journal",
    "run",
    "run_statistics",
    "save_baseline",
    "stream",
    "summarize_events",
    "write_chrome_trace",
]


def _open(*, seed: int, workers: int, backend: str,
          shards: Optional[int], cache_dir: Optional[Path | str],
          scenario_config: Optional[ScenarioConfig],
          curation_config: Optional[CurationConfig],
          study_period: TimeRange,
          observability: Optional[Observability],
          resilience: Optional[ResilienceConfig],
          runs_dir: Optional[Path | str], run_name: Optional[str]
          ) -> tuple[ReproPipeline, Observability,
                     Callable[[PipelineResult], "RunResult"]]:
    """The pipeline, session and result tail one run is driven with.

    The session is the caller's (or a fresh one); when ``runs_dir`` is
    set and it has no journal, a pending journal is attached under
    ``runs_dir`` before the run starts, so every span, heartbeat and
    capsule lands in what the registry files.  The tail — shared by
    :func:`run` and a stream's finalize — grades the finished run
    (:meth:`ReproPipeline.finish`), files its journal into the registry
    when ``runs_dir`` is set, and packages the :class:`RunResult`.
    """
    active_config = scenario_config or ScenarioConfig(seed=seed)
    pipeline = ReproPipeline(
        scenario_config=active_config,
        curation_config=curation_config,
        study_period=study_period,
        cache_dir=Path(cache_dir) if cache_dir is not None else None,
        executor=ExecutorConfig(
            workers=workers, backend=backend, n_shards=shards),
        resilience=resilience)
    obs = observability if observability is not None else Observability()
    pending: Optional[Path] = None
    if runs_dir is not None and obs.journal is None:
        Path(runs_dir).mkdir(parents=True, exist_ok=True)
        pending = (Path(runs_dir)
                   / f"pending-{os.getpid()}-{time.time_ns()}.jsonl")
        obs.attach_journal(pending)

    def finish(events: PipelineResult) -> RunResult:
        stats, health = pipeline.finish(obs, events)
        journal_path = obs.journal.path if obs.journal is not None else None
        run_id: Optional[str] = None
        run_dir: Optional[Path] = None
        if runs_dir is not None and journal_path is not None:
            # Journals written directly under the runs dir (ours or a
            # caller's) are moved into their registry slot; journals
            # elsewhere are copied and left in place.
            label = backend_label(backend, workers)
            record = RunRegistry(Path(runs_dir)).register(
                journal_path, name=run_name,
                config={"seed": active_config.seed, "workers": workers,
                        "backend": label},
                fingerprint=fingerprint(active_config, workers, label,
                                        shards),
                move=(pending is not None
                      or Path(journal_path).resolve().parent
                      == Path(runs_dir).resolve()))
            run_id, run_dir = record.run_id, record.path
            journal_path = record.journal_path
        return RunResult(events=events, stats=stats, health=health,
                         journal_path=journal_path, run_id=run_id,
                         run_dir=run_dir,
                         provenance=sorted_capsules(obs.provenance))

    return pipeline, obs, finish


@dataclass(frozen=True)
class RunResult:
    """Everything one pipeline run produces, in one return value.

    ``events`` is the :class:`PipelineResult` the analysis layer
    consumes; ``stats`` the :class:`ExecStats` execution report;
    ``health`` the :class:`HealthReport` fidelity scorecard; and
    ``journal_path`` the JSONL run journal, when one was written
    (``None`` otherwise).  The most common event fields are exposed
    directly (``result.curated_records`` etc.) so casual callers never
    reach through ``events``.
    """

    events: PipelineResult
    stats: ExecStats
    health: HealthReport
    #: The run's JSONL journal.  With ``runs_dir=`` configured the
    #: journal is filed into the run registry, so this points *inside*
    #: the registry slot and the run also gets a ``run_id``.
    journal_path: Optional[Path] = None
    #: Content-addressed registry ID (``runs_dir=`` only).
    run_id: Optional[str] = None
    #: The run's registry directory (``runs_dir=`` only).
    run_dir: Optional[Path] = None
    #: The run's lineage capsules (``Observability(provenance=True)``
    #: only), in a backend-independent order — one per adjudicated
    #: candidate, plus streaming lifecycle capsules.  Journal-only
    #: evidence: the event datasets are byte-identical with or without
    #: them.
    provenance: Tuple[Mapping, ...] = ()

    # -- convenience passthroughs into the event datasets ------------------

    @property
    def scenario(self):
        """The generated world (``events.scenario``)."""
        return self.events.scenario

    @property
    def curated_records(self) -> List[OutageRecord]:
        """The curated outage dataset (``events.curated_records``)."""
        return self.events.curated_records

    @property
    def kio_events(self):
        """Compiled KIO shutdown events (``events.kio_events``)."""
        return self.events.kio_events

    @property
    def merged(self):
        """The merged analysis dataset (``events.merged``)."""
        return self.events.merged

    def serve(self, root: Union[str, Path], **build_options):
        """Precompute this run's servable artifact store under ``root``.

        Convenience front for
        :func:`repro.serve.artifacts.build_store`: event feeds, signal
        tiles, and reports land in a content-addressed store whose
        blake2b addresses double as the HTTP ETags served by ``repro
        serve run``.  Returns the opened
        :class:`~repro.serve.artifacts.ArtifactStore`.
        """
        from repro.serve.artifacts import build_store
        return build_store(self, root, **build_options)


def run(*, seed: int = 2023, workers: int = 1, backend: str = "process",
        shards: Optional[int] = None,
        cache_dir: Optional[Path | str] = None,
        scenario_config: Optional[ScenarioConfig] = None,
        curation_config: Optional[CurationConfig] = None,
        study_period: TimeRange = STUDY_PERIOD,
        observability: Optional[Observability] = None,
        resilience: Optional[ResilienceConfig] = None,
        runs_dir: Optional[Path | str] = None,
        run_name: Optional[str] = None) -> RunResult:
    """Run the full reproduction pipeline; return a :class:`RunResult`.

    The single entry point: one execution produces the event datasets,
    the execution report, and the health scorecard together —
    ``result.events``, ``result.stats``, ``result.health`` (plus
    ``result.journal_path``).  There is nothing a second call could
    add, so there are no variant entry points (the historical
    ``run_with_stats``/``run_with_health`` tuple shims are gone; index
    the :class:`RunResult` instead).  For incremental execution of the
    same pipeline, see :func:`stream`.

    ``workers``/``backend`` schedule the observation+curation stage
    through the sharded executor (results are byte-identical at any
    worker count): its worker pool
    (:class:`repro.exec.workers.WorkerPool`, which :func:`stream`
    shares) curates cold shards on a ``process`` pool (the default
    backend) when two or more workers get shards, and each worker
    process keeps the generated world resident, building it once per
    run; one worker, or ``backend="serial"``, curates inline and the
    run records its backend as ``serial``.  ``cache_dir`` enables the
    content-addressed stage cache so warm re-runs skip straight to the
    merge.  ``seed`` is shorthand for
    ``scenario_config=ScenarioConfig(seed=...)`` and is ignored when an
    explicit ``scenario_config`` is given.

    ``observability`` is the run's :class:`Observability` session and
    the one place its reporting is configured: a journal
    (``Observability(journal=path)``, whose path is returned as
    ``result.journal_path``), per-span profiling (``profile=``), live
    heartbeats (``telemetry=``) and lineage capsules
    (``provenance=True``, returned as ``result.provenance``).
    Afterwards ``observability.tracer.spans()`` feeds
    :func:`write_chrome_trace` and ``observability.metrics_snapshot()``
    is the ``--metrics-json`` payload.  None of it perturbs results:
    event output is byte-identical whatever the session records.

    ``resilience`` (a :class:`ResilienceConfig`) enables the
    resilience layer: its ``faults`` (a :class:`FaultPlan` or CLI-style
    spec string like ``"fail_first=2;seed=5"``) injects deterministic
    source faults, ``retry``/``breaker`` shape how they are absorbed,
    and ``fail_fast`` turns quarantine-and-degrade into abort-on-first
    exhaustion.  A run that fully recovers from its faults is
    byte-identical to a fault-free run.  Note that an active fault plan
    bypasses the shard cache.  Check
    ``result.stats.degraded`` / ``.quarantined`` for what a degraded
    run gave up on.

    Every run is graded against the paper-target fidelity scorecard,
    whose ``result.health.grade`` is ``"pass"``, ``"warn"``, or
    ``"fail"`` and whose ``result.health.rows()`` renders it; the same
    report is streamed into the run journal as a ``health`` event,
    replayable with ``repro health RUN.jsonl``.  To grade against
    another :class:`HealthPolicy`, call
    ``evaluate_run(result.events, result.stats, policy)``.

    ``runs_dir`` enables the cross-run registry: the session's journal
    (or, when it has none, one attached under ``runs_dir`` before the
    run starts) is filed under a content-addressed run ID together
    with the run's health stats and config fingerprint, and the result
    carries ``run_id``/``run_dir``.
    Registered runs power ``repro runs list/show/diff`` and resolve by
    ID anywhere a journal path is accepted (``repro trace summarize``,
    ``repro health``, ``repro trace diff``).  ``run_name`` labels the
    registry entry (default: the ID's first 8 hex chars).
    """
    pipeline, obs, finish = _open(
        seed=seed, workers=workers, backend=backend, shards=shards,
        cache_dir=cache_dir, scenario_config=scenario_config,
        curation_config=curation_config, study_period=study_period,
        observability=observability, resilience=resilience,
        runs_dir=runs_dir, run_name=run_name)
    with pipeline.envelope(obs) as scenario:
        events = pipeline.complete(scenario, pipeline.curate(scenario))
    return finish(events)


def stream(*, seed: int = 2023, workers: int = 1,
           backend: str = "process",
           scenario_config: Optional[ScenarioConfig] = None,
           curation_config: Optional[CurationConfig] = None,
           study_period: TimeRange = STUDY_PERIOD,
           observability: Optional[Observability] = None,
           resilience: Optional[ResilienceConfig] = None,
           runs_dir: Optional[Path | str] = None,
           run_name: Optional[str] = None) -> StreamSession:
    """Open the reproduction as an incremental run; return its session.

    The streaming twin of :func:`run`: the same stages, but the
    observation+curation stage is driven from outside, bin by bin.  The
    returned :class:`~repro.stream.session.StreamSession` accepts
    measurement bins in any order (``session.push``), consumes them as
    the watermark advances (``session.advance_watermark`` — or let
    ``session.replay(step)`` drive both from the scenario's own feed),
    and emits live ``open``/``update``/``close`` event-lifecycle
    records (``session.events()``).  ``session.finalize()`` completes
    the remaining stages and returns a :class:`RunResult`
    **byte-identical** to ``run()`` with the same configuration —
    however the bins were chunked, on every backend.

    ``workers``/``backend`` schedule window adjudication through the
    same worker pool as :func:`run`, one unit per country whose
    windows an advance closes: with two or more workers, ``process``
    (the default) runs an advance with two or more due countries on
    process workers that keep the generated world resident for the
    whole session; one worker, ``serial``, or a single due country
    adjudicates inline.  ``observability=`` works as in :func:`run`;
    a journaled stream additionally records every lifecycle event as a
    ``stream.event`` line, and heartbeats carry a ``stream`` block with
    the live watermark, lag, and open-event count.  ``runs_dir`` files
    the finalized journal into the cross-run registry, so a streamed
    run diffs against a batch run with ``repro runs diff``.

    ``resilience=`` (a :class:`ResilienceConfig`) injects its
    deterministic faults into the session's *bin source* (site
    ``stream.source``): fetches fail, back off, and retry without
    perturbing the streamed bytes, so a recovered stream finalizes
    byte-identical to a calm one.

    A session with ``provenance=True`` has one streaming extra: every
    lifecycle event carries the ``capsule_id`` of the lineage capsule
    behind it (the adjudication capsule on a decided ``close``; a
    lifecycle capsule on provisional states and merges), and the
    finalized ``RunResult.provenance`` holds them all.  The
    record payloads — and the finalized datasets — stay byte-identical
    with provenance on or off, however the bins were chunked.

    The batch executor's knobs that stream curation cannot use
    (``cache_dir``, ``shards``) are absent: a stream is incremental by
    construction and never consults the shard cache.
    """
    pipeline, obs, finish = _open(
        seed=seed, workers=workers, backend=backend, shards=None,
        cache_dir=None, scenario_config=scenario_config,
        curation_config=curation_config, study_period=study_period,
        observability=observability, resilience=resilience,
        runs_dir=runs_dir, run_name=run_name)
    return StreamSession(pipeline, obs, finish=finish)


def client(result: Union[RunResult, PipelineResult]) -> IODAClient:
    """An :class:`IODAClient` over a run's events.

    Accepts the :class:`RunResult` of :func:`run` (or a bare
    :class:`PipelineResult`) and serves its curated records through the
    IODA-style query API — signals, alerts, and the cursor-paginated
    event feed.
    """
    events = result.events if isinstance(result, RunResult) else result
    return IODAClient(IODAPlatform(events.scenario), events.curated_records)
