"""The outage curation pipeline (§3.1.2).

The curators' decision procedure, implemented over simulated signals:

1. **Investigation windows.**  Investigations are triggered by dashboard
   alerts, reports from partner organizations, or news coverage.  We open a
   window around every period in which *something* happened (real
   disruptions, measurement artifacts, plus configurable random background
   checks).  The trigger only decides where to look; every recorded detail
   — whether an outage is recorded at all, its start/end, scope, and
   per-signal flags — is derived exclusively from the signals.

2. **Candidate construction.**  Alert episodes from the three signals are
   clustered by temporal overlap into candidates; a *human-visible* drop
   requires a sustained (≥2 bins) episode of signal-specific depth, a
   stricter bar than the automated alerts.

3. **Recording rule.**  A candidate is recorded iff (i) at least two
   signals show temporally overlapping human-visible drops, or (ii) one
   signal shows a drop and an external source (Kentik / Cloudflare Radar
   style) corroborates the event.

4. **Control-group check.**  Before recording, the same signals are pulled
   for unrelated control countries; if a similar drop appears across
   disparate controls the candidate is rejected as an IODA infrastructure
   artifact.

5. **Start/end.**  The start is the time the first (visible) signal drops;
   the end is the time the last signal recovers — exactly the paper's
   field-population rule.

6. **Scope descent.**  If nothing is visible at the country level, the
   curator inspects sub-national region views and records a region-scope
   outage if visible there (AS descent available behind a flag).

7. **Cause attribution.**  A news oracle models the curators' reading of
   media/advocacy reporting: causes of real events are discovered with
   configurable probability; discovered intentional causes are recorded as
   "Government-ordered" / "Exam-related".
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, \
    Sequence, Tuple

import numpy as np

from repro.ioda.calendar import ObservationCalendar
from repro.ioda.dashboard import Dashboard, ioda_url
from repro.ioda.platform import IODAPlatform
from repro.ioda.records import ConfirmationStatus, OutageRecord
from repro.obs.provenance import DrawCursor
from repro.obs.runtime import current
from repro.rng import substream
from repro.signals.alerts import AlertEpisode
from repro.signals.entities import Entity, EntityScope
from repro.signals.kinds import SignalKind
from repro.timeutils.timestamps import DAY, HOUR, TimeRange, bin_floor
from repro.world.disruptions import Cause
from repro.world.scenario import WorldScenario

__all__ = ["CandidateOutcome", "CurationConfig", "CurationPipeline",
           "WindowAdjudication", "finalize_records"]


def finalize_records(
        per_country: Iterable[Sequence[OutageRecord]]) -> List[OutageRecord]:
    """Merge per-country record lists into the canonical curated dataset.

    Countries are curated independently (each with its own RNG substream
    and record ids local to the country), so the same per-country lists
    come out of a serial run and a sharded parallel run.  This step makes
    the global dataset: record ids are reassigned sequentially in
    country-iteration order, then the list is sorted by (start, country)
    exactly as :meth:`CurationPipeline.run` always has.  Feeding the
    per-country lists in the same country order therefore yields
    byte-identical output regardless of how the work was scheduled.

    When a provenance recorder is active, the renumbering is also
    journaled as a ``provenance.manifest`` event mapping each global
    record id back to the capsule minted when the record was
    adjudicated (capsules are keyed by the country-local id, the only
    id that exists at decision time).
    """
    recorder = current().provenance
    ids = itertools.count(1)
    records: List[OutageRecord] = []
    mapping: List[Tuple[int, str, int]] = []
    for country_records in per_country:
        for record in country_records:
            global_id = next(ids)
            if recorder is not None:
                mapping.append((global_id,) + record.lineage_key)
            records.append(replace(record, record_id=global_id))
    records.sort(key=lambda r: (r.span.start, r.country_iso2))
    current().metrics.counter("curation.records_finalized") \
        .inc(len(records))
    if recorder is not None:
        recorder.manifest(mapping)
    return records


@dataclass(frozen=True, kw_only=True)
class CurationConfig:
    """Curation thresholds and window shaping.

    Keyword-only: the constructor surface is part of the stable
    :mod:`repro.api` contract, so fields may be added without breaking
    positional callers.
    """

    #: History lead ahead of a trigger so detectors have baselines.
    window_lead: int = int(3.5 * DAY)
    #: Slack after a trigger.
    window_tail: int = 12 * HOUR
    #: Observation period (events outside are not investigated).
    min_visible_bins: int = 2
    #: Relative drop a reviewer needs to call a signal visibly down.
    human_depth: Mapping[SignalKind, float] = field(
        default_factory=lambda: {
            SignalKind.BGP: 0.12,
            SignalKind.ACTIVE_PROBING: 0.15,
            SignalKind.TELESCOPE: 0.50,
        })
    #: Max gap between per-signal episodes merged into one candidate.
    cluster_gap: int = 90 * 60
    #: How far beyond the anchor episode overlapping drops may extend.
    anchor_margin: int = 15 * 60
    #: Number of control countries consulted per candidate.
    n_controls: int = 4
    #: Fraction of controls that must show a similar drop to reject.
    control_reject_fraction: float = 0.5
    #: Probability the news oracle uncovers the cause of a shutdown.
    p_discover_shutdown_cause: float = 0.85
    #: Probability the news oracle uncovers the cause of an outage.
    p_discover_outage_cause: float = 0.55
    #: Probability an external tracker corroborates a real, single-signal
    #: event (scaled by severity).
    p_external_corroboration: float = 0.6
    #: Random background investigation windows per country (whole period).
    background_windows_per_country: float = 0.0
    #: Whether to descend to AS views when country and region show nothing.
    descend_to_asns: bool = False


_CAUSE_TEXT: Mapping[Cause, str] = {
    Cause.GOVERNMENT_ORDERED: "Government-ordered",
    Cause.EXAM: "Exam-related",
    Cause.CABLE_CUT: "Cable cut",
    Cause.POWER_OUTAGE: "Power outage",
    Cause.NATURAL_DISASTER: "Natural disaster",
    Cause.MISCONFIGURATION: "Routing misconfiguration",
    Cause.DDOS: "DDoS attack",
}


@dataclass(frozen=True)
class _Candidate:
    """A cross-signal cluster of alert episodes."""

    span: TimeRange
    episodes: Mapping[SignalKind, Tuple[AlertEpisode, ...]]

    def signals_present(self) -> Tuple[SignalKind, ...]:
        return tuple(k for k, eps in self.episodes.items() if eps)


@dataclass(frozen=True)
class CandidateOutcome:
    """How one candidate (or descent finding) was adjudicated.

    ``outcome`` is ``"recorded"`` (with the curated record),
    ``"dismissed"`` (investigated, not recorded), or ``"unobserved"``
    (fell in an observation-calendar gap, §3.1.2).  ``signals`` are the
    human-visible signal kinds at adjudication time — the set the
    streaming engine reports on lifecycle ``close`` events.
    ``capsule_id`` is the provenance capsule minted for the decision
    when a recorder was active (``None`` otherwise); it is journal-only
    metadata and never affects the record itself.
    """

    span: TimeRange
    signals: Tuple[SignalKind, ...]
    outcome: str
    record: Optional[OutageRecord] = None
    capsule_id: Optional[str] = None


@dataclass(frozen=True)
class WindowAdjudication:
    """The full result of adjudicating one investigation window.

    ``records`` is exactly what the batch path appends for the window
    (country-level records, then any scope-descent records), in order.
    ``outcomes`` adds the per-candidate verdicts the streaming engine
    turns into lifecycle events; ``descended`` says whether the curator
    fell through to sub-national views.  Frozen and picklable, so a
    process worker of the stream's worker pool ships it home unchanged.
    """

    records: Tuple[OutageRecord, ...]
    outcomes: Tuple[CandidateOutcome, ...]
    descended: bool


class CurationPipeline:
    """Builds the curated outage list from platform signals."""

    def __init__(self, platform: IODAPlatform,
                 config: CurationConfig | None = None,
                 calendar: ObservationCalendar | None = None):
        self._platform = platform
        self._scenario: WorldScenario = platform.scenario
        self._config = config or CurationConfig()
        self._calendar = calendar or ObservationCalendar()
        self._dashboard = Dashboard(platform)

    @property
    def config(self) -> CurationConfig:
        return self._config

    @property
    def platform(self) -> IODAPlatform:
        return self._platform

    # -- top level ---------------------------------------------------------------

    def run(self, period: TimeRange) -> List[OutageRecord]:
        """Curate all outages observable within ``period``.

        Countries are processed independently — each country's random
        draws come from its own ``("curation", iso2)`` substream — so the
        result is identical whether the loop below runs here or the
        countries are fanned out across shards by :mod:`repro.exec`.
        """
        windows = self.country_windows(period)
        return finalize_records(
            self.investigate_country(iso2, windows[iso2], period)
            for iso2 in sorted(windows))

    def investigate_country(self, iso2: str,
                            windows: Sequence[TimeRange],
                            period: TimeRange) -> List[OutageRecord]:
        """Curate one country's investigation windows.

        Record ids are local to the country (1, 2, ...); callers that
        assemble a multi-country dataset renumber them via
        :func:`finalize_records`.
        """
        obs = current()
        with obs.span("curate.country", country=iso2,
                      windows=len(windows)):
            rng = substream(self._scenario.seed, "curation", iso2)
            record_ids = itertools.count(1)
            # One RNG-draw cursor per country so capsules can cite the
            # exact substream coordinate of each probabilistic verdict;
            # only consumed when a provenance recorder is active.
            draws = DrawCursor()
            records: List[OutageRecord] = []
            for window in windows:
                records.extend(
                    self._investigate(iso2, window, period, rng,
                                      record_ids, draws))
        metrics = obs.metrics
        metrics.counter("curation.windows_investigated").inc(len(windows))
        metrics.counter("curation.records_curated", country=iso2) \
            .inc(len(records))
        return records

    def investigate(self, iso2: str, window: TimeRange,
                    period: TimeRange) -> List[OutageRecord]:
        """Investigate one country window; return any recorded outages."""
        return self.investigate_country(iso2, [window], period)

    def _investigate(self, iso2: str, window: TimeRange, period: TimeRange,
                     rng: np.random.Generator,
                     record_ids: Iterator[int],
                     draws: Optional[DrawCursor] = None
                     ) -> List[OutageRecord]:
        entity = Entity.country(iso2)
        episodes = self._dashboard.episodes_by_signal(entity, window)
        return list(self.adjudicate_window(
            iso2, window, period, episodes, rng, record_ids,
            draws=draws).records)

    def adjudicate_window(self, iso2: str, window: TimeRange,
                          period: TimeRange,
                          episodes: Dict[SignalKind, List[AlertEpisode]],
                          rng: np.random.Generator,
                          record_ids: Iterator[int],
                          draws: Optional[DrawCursor] = None
                          ) -> WindowAdjudication:
        """Adjudicate one window given its per-signal alert episodes.

        This is the batch `_investigate` loop with the dashboard pull
        factored out — the streaming engine accumulates the episodes
        incrementally and calls here once the watermark closes the
        window, consuming ``rng`` draws and record ids in exactly the
        order the batch path does, so the records come out identical.

        When the active session has a provenance recorder, every
        candidate's decision chain is sealed into a lineage capsule and
        the outcome carries its capsule id; the capsules are journal-only
        and the records are byte-identical either way.  ``draws`` is the
        country's RNG-draw cursor (threaded across windows so capsule
        coordinates are chunking-independent); it is only consumed when
        a recorder is active.
        """
        entity = Entity.country(iso2)
        obs = current()
        recorder = obs.provenance
        if recorder is None:
            draws = None
        candidates = self._cluster(episodes)
        obs.metrics.counter("curation.candidates_clustered") \
            .inc(len(candidates))
        records: List[OutageRecord] = []
        outcomes: List[CandidateOutcome] = []
        found_visible = False
        for candidate in candidates:
            signals = tuple(self.visible_signals_of(candidate))
            if not self._calendar.observes(candidate.span.start,
                                           self._scenario.seed):
                # Nobody was investigating at the time (§3.1.2 gaps);
                # mark it handled so the descent does not re-find it.
                found_visible = True
                capsule_id = None
                if recorder is not None:
                    capsule_id = recorder.emit(self._capsule_payload(
                        iso2, entity, window, candidate, "unobserved",
                        "calendar_gap", None))
                obs.metrics.counter("curation.decision.unobserved",
                                    reason="calendar_gap").inc()
                outcomes.append(CandidateOutcome(
                    candidate.span, signals, "unobserved",
                    capsule_id=capsule_id))
                continue
            trail: Optional[Dict] = {} if recorder is not None else None
            record, reason = self._adjudicate(
                iso2, entity, candidate, period, rng, record_ids,
                trail=trail, draws=draws)
            outcome = "recorded" if record is not None else "dismissed"
            capsule_id = None
            if recorder is not None:
                capsule_id = recorder.emit(self._capsule_payload(
                    iso2, entity, window, candidate, outcome, reason,
                    trail))
            obs.metrics.counter(f"curation.decision.{outcome}",
                                reason=reason).inc()
            if record is not None:
                found_visible = True
                records.append(record)
                outcomes.append(CandidateOutcome(
                    candidate.span, signals, "recorded", record,
                    capsule_id=capsule_id))
            else:
                outcomes.append(CandidateOutcome(
                    candidate.span, signals, "dismissed",
                    capsule_id=capsule_id))
        descended = not found_visible
        if descended:
            for record, capsule_id in self._descend(iso2, window, period,
                                                    rng, record_ids,
                                                    draws=draws):
                records.append(record)
                outcomes.append(CandidateOutcome(
                    record.span,
                    tuple(k for k in SignalKind if record.human_visible[k]),
                    "recorded", record, capsule_id=capsule_id))
        return WindowAdjudication(
            records=tuple(records), outcomes=tuple(outcomes),
            descended=descended)

    def _capsule_payload(self, iso2: str, entity: Entity, window: TimeRange,
                         candidate: _Candidate, outcome: str, reason: str,
                         trail: Optional[Dict]) -> Dict:
        """Assemble the content-addressed lineage-capsule payload.

        Carries only decision evidence — no timestamps or run-local
        state — so identical decisions hash identically across runs,
        backends, and stream chunkings.
        """
        payload: Dict = {
            "stage": "adjudicate",
            "country_iso2": iso2,
            "entity": entity.identifier,
            "window_start": window.start,
            "span": {"start": candidate.span.start,
                     "end": candidate.span.end},
            "signals": sorted(k.value for k in candidate.signals_present()),
            "outcome": outcome,
            "reason": reason,
            "alert": {
                kind.value: {
                    "episodes": len(eps),
                    "max_depth": round(max(e.depth for e in eps), 9),
                    "span": [min(e.span.start for e in eps),
                             max(e.span.end for e in eps)],
                }
                for kind, eps in candidate.episodes.items() if eps},
            "rng": {"substream": ["curation", iso2]},
        }
        if trail:
            payload.update(trail)
        return payload

    def cluster_episodes(
            self, episodes: Dict[SignalKind, List[AlertEpisode]]
    ) -> List[_Candidate]:
        """Cluster per-signal episodes into candidates (pure, no RNG).

        The streaming engine calls this on every watermark advance to
        refresh its provisional open-event view; unlike
        :meth:`adjudicate_window` it does not touch metrics, the RNG, or
        record ids, so provisional views never perturb the final run.
        """
        return self._cluster(episodes)

    def visible_signals_of(
            self, candidate: _Candidate) -> Dict[SignalKind, List[AlertEpisode]]:
        """The anchored human-visible episodes of a candidate (pure)."""
        return self._anchor_overlapping(self._visible_signals(candidate))

    def observes(self, timestamp: int) -> bool:
        """Whether the observation calendar covers ``timestamp`` (pure)."""
        return self._calendar.observes(timestamp, self._scenario.seed)

    # -- investigation windows -----------------------------------------------------

    def country_windows(
            self, period: TimeRange) -> Dict[str, List[TimeRange]]:
        """Merged investigation windows per country.

        This is the unit of work the sharded executor distributes.  The
        windows depend only on the scenario and config, so any caller
        computes the same map — but the executor computes it exactly
        once per run (it needs the full map for shard weighting) and
        hands each shard just its own countries' slice; shards never
        recompute the world-wide map.
        """
        return {iso2: list(windows)
                for iso2, windows in self._grouped_windows(period).items()}

    def _investigation_windows(
            self, period: TimeRange) -> Iterable[Tuple[str, TimeRange]]:
        """(country, window) pairs to investigate, merged per country."""
        for iso2, windows in sorted(
                self._grouped_windows(period).items()):
            for window in windows:
                yield iso2, window

    def _grouped_windows(
            self, period: TimeRange) -> Dict[str, List[TimeRange]]:
        triggers: Dict[str, List[TimeRange]] = {}
        for disruption in self._scenario.all_disruptions():
            if not period.contains(disruption.span.start):
                continue
            triggers.setdefault(disruption.country_iso2, []).append(
                disruption.span)
        artifact_sample = self._artifact_sample_countries()
        for artifact in self._scenario.artifacts:
            if not artifact.span.overlaps(period):
                continue
            for iso2 in artifact_sample:
                triggers.setdefault(iso2, []).append(artifact.span)
        for iso2, spans in self._background_windows(period).items():
            triggers.setdefault(iso2, []).extend(spans)

        return {iso2: self._merge_windows(triggers[iso2], period)
                for iso2 in sorted(triggers)}

    def _merge_windows(self, spans: Sequence[TimeRange],
                       period: TimeRange) -> List[TimeRange]:
        expanded = sorted(
            (TimeRange(max(period.start - self._config.window_lead,
                           span.start - self._config.window_lead),
                       min(period.end + DAY,
                           span.end + self._config.window_tail))
             for span in spans),
            key=lambda s: s.start)
        merged: List[TimeRange] = []
        for span in expanded:
            if merged and span.start <= merged[-1].end:
                merged[-1] = TimeRange(
                    merged[-1].start, max(merged[-1].end, span.end))
            else:
                merged.append(span)
        return merged

    def _artifact_sample_countries(self) -> List[str]:
        """A spread of countries whose dashboards would surface a global
        artifact (one per region, deterministic)."""
        seen_regions = {}
        for country in self._scenario.registry:
            seen_regions.setdefault(country.region, country.iso2)
        return sorted(seen_regions.values())

    def _background_windows(
            self, period: TimeRange) -> Dict[str, List[TimeRange]]:
        rate = self._config.background_windows_per_country
        windows: Dict[str, List[TimeRange]] = {}
        if rate <= 0:
            return windows
        for country in self._scenario.registry:
            rng = substream(self._scenario.seed, "background", country.iso2)
            for _ in range(int(rng.poisson(rate))):
                start = int(period.start + rng.integers(
                    0, max(1, period.duration - DAY)))
                start = bin_floor(start, 300)
                windows.setdefault(country.iso2, []).append(
                    TimeRange(start, start + 6 * HOUR))
        return windows

    # -- clustering ------------------------------------------------------------------

    def _cluster(self, episodes: Dict[SignalKind, List[AlertEpisode]]
                 ) -> List[_Candidate]:
        """Cluster per-signal episodes into cross-signal candidates."""
        tagged: List[Tuple[SignalKind, AlertEpisode]] = [
            (kind, episode)
            for kind, kind_episodes in episodes.items()
            for episode in kind_episodes]
        tagged.sort(key=lambda item: item[1].span.start)
        candidates: List[_Candidate] = []
        cluster: List[Tuple[SignalKind, AlertEpisode]] = []
        cluster_end = None
        for kind, episode in tagged:
            if (cluster_end is not None
                    and episode.span.start
                    <= cluster_end + self._config.cluster_gap):
                cluster.append((kind, episode))
                cluster_end = max(cluster_end, episode.span.end)
            else:
                if cluster:
                    candidates.append(self._candidate(cluster))
                cluster = [(kind, episode)]
                cluster_end = episode.span.end
        if cluster:
            candidates.append(self._candidate(cluster))
        return candidates

    @staticmethod
    def _candidate(cluster: List[Tuple[SignalKind, AlertEpisode]]
                   ) -> _Candidate:
        by_signal: Dict[SignalKind, List[AlertEpisode]] = {
            kind: [] for kind in SignalKind}
        for kind, episode in cluster:
            by_signal[kind].append(episode)
        span = TimeRange(
            min(e.span.start for _, e in cluster),
            max(e.span.end for _, e in cluster))
        return _Candidate(
            span=span,
            episodes={k: tuple(v) for k, v in by_signal.items()})

    # -- adjudication -------------------------------------------------------------------

    def _adjudicate(self, iso2: str, entity: Entity, candidate: _Candidate,
                    period: TimeRange, rng: np.random.Generator,
                    record_ids: Iterator[int],
                    trail: Optional[Dict] = None,
                    draws: Optional[DrawCursor] = None
                    ) -> Tuple[Optional[OutageRecord], str]:
        """Adjudicate one candidate; return ``(record, reason)``.

        ``reason`` names the decision point that settled the candidate
        (``low_visibility``, ``no_corroboration``, ``control_artifact``,
        ... for dismissals; ``multi_signal``/``corroborated`` for
        records).  ``trail``, when provided, accumulates the evidence
        each decision point saw — the body of the provenance capsule.
        The RNG is consumed identically whether or not a trail is
        collected.
        """
        if not period.contains(candidate.span.start):
            return None, "outside_period"
        if not self._calendar.observes(candidate.span.start,
                                       self._scenario.seed):
            return None, "calendar_gap"
        visible = self._anchor_overlapping(self._visible_signals(candidate))
        if trail is not None:
            trail["visibility"] = {
                "visible": sorted(k.value for k in visible),
                "required": 2}
        if not visible:
            return None, "low_visibility"
        corroborated = False
        if len(visible) < 2:
            corroborated = self._externally_corroborated(
                iso2, candidate, rng, trail=trail, draws=draws)
            if not corroborated:
                return None, "no_corroboration"
        elif trail is not None:
            trail["corroboration"] = {"checked": False}
        if self._is_infrastructure_artifact(iso2, candidate, visible,
                                            trail=trail):
            return None, "control_artifact"
        record = self._record(iso2, entity, candidate, visible, corroborated,
                              rng, record_ids, trail=trail, draws=draws)
        return record, ("corroborated" if corroborated else "multi_signal")

    def _anchor_overlapping(
            self, visible: Dict[SignalKind, List[AlertEpisode]]
    ) -> Dict[SignalKind, List[AlertEpisode]]:
        """Keep only episodes that overlap the deepest drop.

        The paper's recording rule demands drops "overlapping in time";
        anchoring on the deepest episode discards shallow flickers that
        happen to share a candidate cluster (they would otherwise pollute
        the recorded start/end and let two unrelated single-signal blips
        masquerade as two-signal corroboration).
        """
        all_episodes = [e for eps in visible.values() for e in eps]
        if not all_episodes:
            return {}
        anchor = max(all_episodes, key=lambda e: (e.depth, e.n_bins))
        margin = self._config.anchor_margin
        window = anchor.span.expand(before=margin, after=margin)
        anchored: Dict[SignalKind, List[AlertEpisode]] = {}
        for kind, episodes in visible.items():
            keep = [e for e in episodes if e.span.overlaps(window)]
            if keep:
                anchored[kind] = keep
        return anchored

    def _visible_signals(
            self, candidate: _Candidate
    ) -> Dict[SignalKind, List[AlertEpisode]]:
        """Per signal, the episodes a human reviewer would call visibly
        down (sustained and deep enough).  Signals with none are absent."""
        visible: Dict[SignalKind, List[AlertEpisode]] = {}
        for kind in SignalKind:
            qualifying = [
                episode for episode in candidate.episodes.get(kind, ())
                if episode.n_bins >= self._config.min_visible_bins
                and episode.depth >= self._config.human_depth[kind]]
            if qualifying:
                visible[kind] = qualifying
        return visible

    def _externally_corroborated(self, iso2: str, candidate: _Candidate,
                                 rng: np.random.Generator,
                                 trail: Optional[Dict] = None,
                                 draws: Optional[DrawCursor] = None) -> bool:
        """Whether Kentik/Cloudflare-Radar style trackers confirm.

        External trackers observed the real world, so corroboration
        probability is a function of what actually happened: severe, long
        events get noticed; noise does not.  A draw is consumed only
        when a real event overlaps — the trail records its substream
        coordinate so the verdict can be replayed.
        """
        overlapping = [
            d for d in self._scenario.disruptions_in(
                candidate.span.expand(before=2 * HOUR, after=2 * HOUR),
                country_iso2=iso2)
        ]
        if not overlapping:
            overlapping = [
                d for d in self._scenario.country_disruptions(iso2)
                if d.span.overlaps(candidate.span)]
        if not overlapping:
            if trail is not None:
                trail["corroboration"] = {
                    "checked": True, "overlapping": 0,
                    "corroborated": False}
            return False
        strongest = max(overlapping, key=lambda d: d.severity)
        p = (self._config.p_external_corroboration
             * strongest.severity
             * min(1.0, strongest.span.duration / (2 * HOUR)))
        index = draws.take() if draws is not None else None
        corroborated = bool(rng.random() < p)
        if trail is not None:
            trail["corroboration"] = {
                "checked": True,
                "overlapping": len(overlapping),
                "p": round(p, 9),
                "draw": {"substream": ["curation", iso2], "index": index},
                "corroborated": corroborated}
        return corroborated

    def _is_infrastructure_artifact(self, iso2: str, candidate: _Candidate,
                                    visible: Iterable[SignalKind],
                                    trail: Optional[Dict] = None) -> bool:
        """Control-group check: similar simultaneous drop elsewhere?"""
        controls = self._control_countries(iso2)
        if not controls:
            if trail is not None:
                trail["control"] = {
                    "controls": [], "n_similar": 0,
                    "reject_fraction":
                        self._config.control_reject_fraction,
                    "artifact": False}
            return False
        check_window = candidate.span.expand(before=6 * HOUR, after=2 * HOUR)
        n_similar = 0
        for control in controls:
            if self._control_shows_drop(control, check_window, visible):
                n_similar += 1
        artifact = (n_similar / len(controls)
                    >= self._config.control_reject_fraction)
        if trail is not None:
            trail["control"] = {
                "controls": list(controls),
                "n_similar": n_similar,
                "reject_fraction": self._config.control_reject_fraction,
                "artifact": artifact}
        return artifact

    def _control_countries(self, iso2: str) -> List[str]:
        """Deterministic cross-region control group excluding ``iso2``."""
        home_region = self._scenario.registry.get(iso2).region
        picks: List[str] = []
        for country in self._scenario.registry:
            if country.iso2 == iso2 or country.region == home_region:
                continue
            if all(self._scenario.registry.get(p).region != country.region
                   for p in picks):
                picks.append(country.iso2)
            if len(picks) >= self._config.n_controls:
                break
        return picks

    def _control_shows_drop(self, iso2: str, window: TimeRange,
                            signals: Iterable[SignalKind]) -> bool:
        """Whether a control country mirrors the candidate's drop.

        To count as "the same drop elsewhere" the control must dip in
        *every* signal the candidate is visible in — an infrastructure
        artifact depresses the same data source for everyone, whereas a
        control's unrelated noise rarely lines up across signals.
        """
        for kind in signals:
            series = self._platform.signal(
                Entity.country(iso2), kind, window)
            _, values = series.arrays()
            if len(values) < 4:
                return False
            baseline = float(np.median(values))
            if baseline <= 0:
                return False
            # A reviewer compares *sustained* levels, not single noisy
            # bins: smooth over adjacent bins before taking the low point.
            smoothed = np.convolve(values, np.full(3, 1.0 / 3.0),
                                   mode="valid")
            depth = 1.0 - float(smoothed.min()) / baseline
            if depth < self._config.human_depth[kind]:
                return False
        return True

    # -- record construction ----------------------------------------------------------------

    def _record(self, iso2: str, entity: Entity, candidate: _Candidate,
                visible: Dict[SignalKind, List[AlertEpisode]],
                corroborated: bool, rng: np.random.Generator,
                record_ids: Iterator[int],
                trail: Optional[Dict] = None,
                draws: Optional[DrawCursor] = None) -> OutageRecord:
        starts = [min(e.span.start for e in episodes)
                  for episodes in visible.values()]
        ends = [max(e.span.end for e in episodes)
                for episodes in visible.values()]
        span = TimeRange(min(starts), max(ends))
        auto = {kind: bool(candidate.episodes.get(kind))
                for kind in SignalKind}
        human = {kind: kind in visible for kind in SignalKind}
        cause, more_info = self._attribute_cause(iso2, span, rng,
                                                 trail=trail, draws=draws)
        if corroborated or cause is not None:
            confirmation = ConfirmationStatus.CONFIRMED
        elif len(visible) >= 2:
            confirmation = ConfirmationStatus.LIKELY
        else:
            confirmation = ConfirmationStatus.UNCONFIRMED
        record = OutageRecord(
            record_id=next(record_ids),
            country_iso2=iso2,
            span=span,
            scope=entity.scope,
            auto_alerts=auto,
            human_visible=human,
            ioda_url=ioda_url(entity, span),
            cause=cause,
            confirmation=confirmation,
            more_info=more_info,
            region_names=((entity.identifier.split("-", 1)[1],)
                          if entity.scope is EntityScope.REGION else ()),
        )
        if trail is not None:
            trail["record"] = {
                "local_id": record.record_id,
                "span": {"start": span.start, "end": span.end},
                "confirmation": record.confirmation.value,
                "scope": record.scope.value}
        return record

    def _attribute_cause(self, iso2: str, span: TimeRange,
                         rng: np.random.Generator,
                         trail: Optional[Dict] = None,
                         draws: Optional[DrawCursor] = None
                         ) -> Tuple[Optional[str], Tuple[str, ...]]:
        """The news oracle: what reporting would the curators find?"""
        overlapping = [
            d for d in self._scenario.country_disruptions(iso2)
            if d.span.overlaps(
                span.expand(before=2 * HOUR, after=2 * HOUR))]
        if not overlapping:
            if trail is not None:
                trail["cause"] = {"overlapping": 0, "cause": None}
            return None, ()
        truth = max(overlapping, key=lambda d: d.severity)
        p_discover = (self._config.p_discover_shutdown_cause
                      if truth.intentional
                      else self._config.p_discover_outage_cause)
        index = draws.take() if draws is not None else None
        discovered = bool(rng.random() < p_discover)
        if trail is not None:
            trail["cause"] = {
                "overlapping": len(overlapping),
                "p_discover": round(p_discover, 9),
                "draw": {"substream": ["curation", iso2], "index": index},
                "cause": None}
        if not discovered:
            return None, ()
        cause = _CAUSE_TEXT[truth.cause]
        if trail is not None:
            trail["cause"]["cause"] = cause
        info = [f"https://news.example.org/{iso2.lower()}/"
                f"{truth.disruption_id}"]
        if truth.trigger_event_id is not None:
            info.append("Related mobilization event reported; "
                        f"event id {truth.trigger_event_id}")
        return cause, tuple(info)

    # -- scope descent --------------------------------------------------------------------

    def _descend(self, iso2: str, window: TimeRange, period: TimeRange,
                 rng: np.random.Generator,
                 record_ids: Iterator[int],
                 draws: Optional[DrawCursor] = None
                 ) -> List[Tuple[OutageRecord, Optional[str]]]:
        """Inspect region (and optionally AS) views when the country view
        shows nothing.  Returns ``(record, capsule_id)`` pairs; capsule
        ids are ``None`` when no provenance recorder is active."""
        obs = current()
        recorder = obs.provenance
        results: List[Tuple[OutageRecord, Optional[str]]] = []
        network = self._scenario.topology.get(iso2)
        affected_regions: List[Tuple[str, _Candidate, List[SignalKind]]] = []
        for region in network.regions:
            entity = Entity.region(iso2, region.name)
            episodes = self._dashboard.episodes_by_signal(entity, window)
            for candidate in self._cluster(episodes):
                if not period.contains(candidate.span.start):
                    continue
                if not self._calendar.observes(candidate.span.start,
                                               self._scenario.seed):
                    continue
                visible = self._anchor_overlapping(
                    self._visible_signals(candidate))
                if len(visible) >= 2:
                    affected_regions.append(
                        (region.name, candidate, visible))
        # One record per affected region, matching the paper's "record all
        # affected regions" while our schema keeps one region per row.
        for region_name, candidate, visible in affected_regions:
            entity = Entity.region(iso2, region_name)
            trail: Optional[Dict] = {} if recorder is not None else None
            if trail is not None:
                trail["visibility"] = {
                    "visible": sorted(k.value for k in visible),
                    "required": 2}
                trail["corroboration"] = {"checked": False}
            if self._is_infrastructure_artifact(iso2, candidate, visible,
                                                trail=trail):
                if recorder is not None:
                    recorder.emit(self._capsule_payload(
                        iso2, entity, window, candidate, "dismissed",
                        "control_artifact", trail))
                obs.metrics.counter("curation.decision.dismissed",
                                    reason="control_artifact").inc()
                continue
            record = self._record(iso2, entity, candidate, visible,
                                  False, rng, record_ids,
                                  trail=trail, draws=draws)
            capsule_id = None
            if recorder is not None:
                capsule_id = recorder.emit(self._capsule_payload(
                    iso2, entity, window, candidate, "recorded",
                    "region_descent", trail))
            obs.metrics.counter("curation.decision.recorded",
                                reason="region_descent").inc()
            results.append((record, capsule_id))
        return results
