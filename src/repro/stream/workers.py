"""Per-country adjudication for the stream engine, inline or in a worker.

The engine's feed phase is cheap numpy; the expensive part of an
advance is adjudicating the windows the watermark just closed (control
queries, scope descent).  :func:`adjudicate_country` does that for one
country, inside a ``stream.adjudicate`` span, and is what both backends
run.  Under the ``process`` backend the engine ships the work to
:func:`adjudicate_country_subprocess`, in a pool whose workers hold the
same worker-resident world the batch executor uses
(:func:`repro.exec.workers.resident_world`): only configs, the
windows' accumulated alert episodes, and the country's RNG state cross
the process boundary.

Curation consumes its per-country RNG substream strictly in candidate
order, so the engine ships the generator's exact bit-state out and
takes the advanced state back — the draws land exactly where a serial
run would land them, which is what keeps the process backend
byte-identical.  The country's record-id counter and RNG-draw cursor
(the provenance coordinate) travel the same way.  When the parent
records observability the worker adjudicates under a worker-local
session built from the parent's settings (minus heartbeats, which the
parent's sampler reports), and its spans, metrics and lineage capsules
ride home as one :class:`~repro.obs.runtime.WorkerReport`, which the
parent adopts under its curate span.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.ioda.curation import CurationConfig, CurationPipeline, \
    WindowAdjudication
from repro.ioda.platform import PlatformConfig
from repro.obs.provenance import DrawCursor
from repro.obs.runtime import WorkerReport, WorkerSettings, current, \
    run_reported
from repro.rng import substream
from repro.signals.alerts import AlertEpisode
from repro.signals.kinds import SignalKind
from repro.timeutils.timestamps import TimeRange
from repro.world.scenario import ScenarioConfig

__all__ = ["WindowWork", "adjudicate_country",
           "adjudicate_country_subprocess"]

#: One country's due work: (window, its accumulated per-signal episodes).
WindowWork = Tuple[TimeRange, Dict[SignalKind, List[AlertEpisode]]]


def adjudicate_country(pipeline: CurationPipeline, iso2: str,
                       work: Sequence[WindowWork], period: TimeRange,
                       rng: np.random.Generator, record_ids: Iterator[int],
                       draws: DrawCursor, *, backend: str
                       ) -> List[WindowAdjudication]:
    """Adjudicate one country's closed windows, in window order."""
    with current().span("stream.adjudicate", country=iso2,
                        windows=len(work), backend=backend):
        return [pipeline.adjudicate_window(iso2, window, period, episodes,
                                           rng, record_ids, draws=draws)
                for window, episodes in work]


def adjudicate_country_subprocess(
        scenario_config: ScenarioConfig,
        platform_config: PlatformConfig,
        curation_config: CurationConfig,
        period: TimeRange,
        iso2: str,
        work: Sequence[WindowWork],
        rng_state: dict,
        next_record_id: int,
        draw_index: int,
        settings: Optional[WorkerSettings] = None,
) -> Tuple[List[WindowAdjudication], dict, int, int,
           Optional[WorkerReport]]:
    """Adjudicate one country's closed windows over the resident world.

    Module-level so it pickles by reference.  Returns the adjudications
    in window order, the advanced RNG state, next record id and
    RNG-draw cursor index for the parent to fold back into its country
    state, and the worker's report (``None`` without ``settings``).
    """
    from repro.exec.workers import resident_world

    scenario, platform = resident_world(scenario_config, platform_config)
    pipeline = CurationPipeline(platform, curation_config)
    rng = substream(scenario.seed, "curation", iso2)
    rng.bit_generator.state = rng_state
    record_ids = itertools.count(next_record_id)
    draws = DrawCursor(draw_index)
    adjudications, report = run_reported(
        settings, lambda: adjudicate_country(
            pipeline, iso2, work, period, rng, record_ids, draws,
            backend="process"))
    return (adjudications, rng.bit_generator.state, next(record_ids),
            draws.index, report)
