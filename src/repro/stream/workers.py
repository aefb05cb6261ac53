"""Process-backend adjudication for the stream engine.

The engine's feed phase is cheap numpy; the expensive part of an
advance is adjudicating the windows the watermark just closed (control
queries, scope descent).  Under the ``process`` backend those are
shipped here, to a pool whose workers hold the same worker-resident
world the batch executor uses (:func:`repro.exec.workers.
resident_world`): only configs, the windows' accumulated alert
episodes, and the country's RNG state cross the process boundary.

Curation consumes its per-country RNG substream strictly in candidate
order, so the engine ships the generator's exact bit-state out and
takes the advanced state back — the draws land exactly where a serial
run would land them, which is what keeps the process backend
byte-identical.  Stream workers do not collect spans or heartbeats
(the engine's telemetry reports watermark progress from the parent
side), but when the parent session records provenance they build a
worker-local recorder, thread the country's RNG-draw cursor through
adjudication, and ship the minted lineage capsules home alongside the
advanced cursor — the provenance twin of
:meth:`repro.obs.trace.Tracer.adopt`.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Sequence, Tuple

from repro.ioda.curation import CurationConfig, CurationPipeline, \
    WindowAdjudication
from repro.ioda.platform import PlatformConfig
from repro.obs.provenance import DrawCursor
from repro.obs.runtime import Observability, activate
from repro.rng import substream
from repro.signals.alerts import AlertEpisode
from repro.signals.kinds import SignalKind
from repro.timeutils.timestamps import TimeRange
from repro.world.scenario import ScenarioConfig

__all__ = ["adjudicate_country_subprocess"]

#: One country's due work: (window, its accumulated per-signal episodes).
_WindowWork = Tuple[TimeRange, Dict[SignalKind, List[AlertEpisode]]]


def adjudicate_country_subprocess(
        scenario_config: ScenarioConfig,
        platform_config: PlatformConfig,
        curation_config: CurationConfig,
        period: TimeRange,
        iso2: str,
        work: Sequence[_WindowWork],
        rng_state: dict,
        next_record_id: int,
        provenance: bool = False,
        draw_index: int = 0,
) -> Tuple[List[WindowAdjudication], dict, int, List[dict], int]:
    """Adjudicate one country's closed windows over the resident world.

    Module-level so it pickles by reference.  Returns the adjudications
    in window order plus the advanced RNG state, next record id, any
    lineage capsules captured (empty unless ``provenance``), and the
    advanced RNG-draw cursor index, for the parent to fold back into
    its country state.
    """
    from repro.exec.workers import resident_world

    scenario, platform = resident_world(scenario_config, platform_config)
    pipeline = CurationPipeline(platform, curation_config)
    rng = substream(scenario.seed, "curation", iso2)
    rng.bit_generator.state = rng_state
    record_ids = itertools.count(next_record_id)
    draws = DrawCursor(draw_index)
    if provenance:
        local = Observability()
        local.enable_provenance()
        with activate(local):
            adjudications = [
                pipeline.adjudicate_window(iso2, window, period, episodes,
                                           rng, record_ids, draws=draws)
                for window, episodes in work]
        capsules = list(local.provenance.capsules)
    else:
        adjudications = [
            pipeline.adjudicate_window(iso2, window, period, episodes, rng,
                                       record_ids)
            for window, episodes in work]
        capsules = []
    return (adjudications, rng.bit_generator.state, next(record_ids),
            capsules, draws.index)
