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
   outage if visible there.  A region candidate goes through the same
   decision chain as a country candidate (steps 3–5), but only when two
   signals are visible, so it never asks for external corroboration.

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
    country-iteration order, then the list is sorted by (start,
    country).  Feeding the per-country lists in the same country order
    therefore yields byte-identical output regardless of how the work
    was scheduled.

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
    #: Bins an episode must last for a reviewer to call it visible.
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

    ``outcomes`` are the per-candidate verdicts the streaming engine
    turns into lifecycle events: every country candidate, then the
    recorded scope-descent findings.  Frozen and picklable, so a
    process worker of the stream's worker pool ships it home unchanged.
    """

    outcomes: Tuple[CandidateOutcome, ...]

    @property
    def records(self) -> Tuple[OutageRecord, ...]:
        """What the batch path appends for the window, in order."""
        return tuple(o.record for o in self.outcomes if o.record is not None)


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
        # Control group per country: a pure function of the registry and
        # n_controls, asked for on every control-group check.
        self._controls: Dict[str, Tuple[str, ...]] = {}

    @property
    def config(self) -> CurationConfig:
        return self._config

    @property
    def platform(self) -> IODAPlatform:
        return self._platform

    # -- top level ---------------------------------------------------------------

    def investigate_country(self, iso2: str,
                            windows: Sequence[TimeRange],
                            period: TimeRange) -> List[OutageRecord]:
        """Curate one country's investigation windows.

        Each country's random draws come from its own ``("curation",
        iso2)`` substream, so the result is the same whether countries
        run here one by one or fanned out across shards by
        :mod:`repro.exec`.  Record ids are local to the country (1, 2,
        ...); callers that assemble a multi-country dataset renumber
        them via :func:`finalize_records`.
        """
        obs = current()
        entity = Entity.country(iso2)
        with obs.span("curate.country", country=iso2,
                      windows=len(windows)):
            rng = substream(self._scenario.seed, "curation", iso2)
            record_ids = itertools.count(1)
            # One RNG-draw cursor per country so capsules can cite the
            # exact substream coordinate of each probabilistic verdict.
            draws = DrawCursor()
            records: List[OutageRecord] = []
            for window in windows:
                episodes = self._dashboard.episodes_by_signal(entity, window)
                records.extend(self.adjudicate_window(
                    iso2, window, period, episodes, rng, record_ids,
                    draws).records)
        metrics = obs.metrics
        metrics.counter("curation.windows_investigated").inc(len(windows))
        metrics.counter("curation.records_curated", country=iso2) \
            .inc(len(records))
        return records

    def investigate(self, iso2: str, window: TimeRange,
                    period: TimeRange) -> List[OutageRecord]:
        """Investigate one country window; return any recorded outages."""
        return self.investigate_country(iso2, [window], period)

    def adjudicate_window(self, iso2: str, window: TimeRange,
                          period: TimeRange,
                          episodes: Dict[SignalKind, List[AlertEpisode]],
                          rng: np.random.Generator,
                          record_ids: Iterator[int],
                          draws: DrawCursor) -> WindowAdjudication:
        """Adjudicate one window given its per-signal alert episodes.

        The batch path pulls the episodes from the dashboard; the
        streaming engine accumulates them incrementally and calls here
        once the watermark closes the window, consuming ``rng`` draws
        and record ids in exactly the order the batch path does, so the
        records come out identical.

        Every candidate, country or region, is decided by
        :meth:`_decide`.  When no country candidate was recorded or fell
        in a calendar gap, the curator descends to the region views
        (:meth:`_region_candidates`).  ``draws`` is the country's
        RNG-draw cursor, threaded across windows so capsule coordinates
        are chunking-independent.
        """
        country = Entity.country(iso2)
        candidates = self._cluster(episodes)
        current().metrics.counter("curation.candidates_clustered") \
            .inc(len(candidates))
        outcomes = [
            self._decide(iso2, country, window, period, candidate,
                         self.visible_signals_of(candidate), rng,
                         record_ids, draws)
            for candidate in candidates]
        if all(o.outcome == "dismissed" for o in outcomes):
            for entity, candidate, visible in self._region_candidates(
                    iso2, window, period):
                outcome = self._decide(iso2, entity, window, period,
                                       candidate, visible, rng,
                                       record_ids, draws)
                # A region dismissal leaves its capsule and counter but
                # no outcome, so the stream opens no event for it; a
                # region record reports the record's own span.
                if outcome.record is not None:
                    outcomes.append(replace(outcome,
                                            span=outcome.record.span))
        return WindowAdjudication(tuple(outcomes))

    def _decide(self, iso2: str, entity: Entity, window: TimeRange,
                period: TimeRange, candidate: _Candidate,
                visible: Dict[SignalKind, List[AlertEpisode]],
                rng: np.random.Generator, record_ids: Iterator[int],
                draws: DrawCursor) -> CandidateOutcome:
        """Decide one candidate and seal the decision.

        ``visible`` is the candidate's anchored human-visible episodes
        per signal.  Every decision ticks one
        ``curation.decision.<outcome>{reason=...}`` counter; when a
        provenance recorder is active, the evidence trail is also
        sealed into a lineage capsule whose id the outcome carries.
        """
        trail: Dict = {}
        record, outcome, reason = self._verdict(
            iso2, entity, candidate, visible, period, rng, record_ids,
            trail, draws)
        obs = current()
        capsule_id = None
        if obs.provenance is not None:
            capsule_id = obs.provenance.emit(self._capsule_payload(
                iso2, entity, window, candidate, outcome, reason, trail))
        obs.metrics.counter(f"curation.decision.{outcome}",
                            reason=reason).inc()
        return CandidateOutcome(candidate.span, tuple(visible), outcome,
                                record, capsule_id=capsule_id)

    def _capsule_payload(self, iso2: str, entity: Entity, window: TimeRange,
                         candidate: _Candidate, outcome: str, reason: str,
                         trail: Dict) -> Dict:
        """Assemble the content-addressed lineage-capsule payload.

        Carries only decision evidence — no timestamps or run-local
        state — so identical decisions hash identically across runs,
        backends, and stream chunkings.  The trail's evidence follows
        the fixed fields.
        """
        return {
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
            **trail,
        }

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
        """The anchored human-visible episodes of a candidate (pure).

        Per signal, the episodes a human reviewer would call visibly
        down (:meth:`_qualifies`), kept only where they overlap the
        deepest drop (:meth:`_anchor_overlapping`).  Signals with none
        are absent.
        """
        visible: Dict[SignalKind, List[AlertEpisode]] = {}
        for kind in SignalKind:
            qualifying = [
                episode for episode in candidate.episodes.get(kind, ())
                if self._qualifies(kind, episode)]
            if qualifying:
                visible[kind] = qualifying
        return self._anchor_overlapping(visible)

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

    def _verdict(self, iso2: str, entity: Entity, candidate: _Candidate,
                 visible: Dict[SignalKind, List[AlertEpisode]],
                 period: TimeRange, rng: np.random.Generator,
                 record_ids: Iterator[int], trail: Dict,
                 draws: DrawCursor
                 ) -> Tuple[Optional[OutageRecord], str, str]:
        """The decision chain; return ``(record, outcome, reason)``.

        ``outcome`` is ``recorded``, ``dismissed`` or ``unobserved``;
        ``reason`` names the decision point that settled the candidate
        (``calendar_gap``, ``low_visibility``, ``no_corroboration``,
        ``control_artifact``, ... for the unrecorded;
        ``multi_signal``/``corroborated``/``region_descent`` for
        records).  Each decision point writes the evidence it saw into
        ``trail``, the body of the provenance capsule.
        """
        if not self.observes(candidate.span.start):
            # Nobody was investigating at the time (§3.1.2 gaps).
            return None, "unobserved", "calendar_gap"
        if not period.contains(candidate.span.start):
            return None, "dismissed", "outside_period"
        trail["visibility"] = {
            "visible": sorted(k.value for k in visible), "required": 2}
        if not visible:
            return None, "dismissed", "low_visibility"
        corroborated = False
        if len(visible) < 2:
            corroborated = self._externally_corroborated(
                iso2, candidate, rng, trail, draws)
            if not corroborated:
                return None, "dismissed", "no_corroboration"
        else:
            trail["corroboration"] = {"checked": False}
        if self._is_infrastructure_artifact(iso2, candidate, visible, trail):
            return None, "dismissed", "control_artifact"
        record = self._record(iso2, entity, candidate, visible, corroborated,
                              rng, record_ids, trail, draws)
        if entity.scope is EntityScope.REGION:
            reason = "region_descent"
        else:
            reason = "corroborated" if corroborated else "multi_signal"
        return record, "recorded", reason

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

    def _qualifies(self, kind: SignalKind, episode: AlertEpisode) -> bool:
        """Whether a reviewer would call ``episode`` of signal ``kind``
        visibly down: sustained over ``min_visible_bins`` bins and at
        least ``human_depth[kind]`` deep."""
        return (episode.n_bins >= self._config.min_visible_bins
                and episode.depth >= self._config.human_depth[kind])

    def _externally_corroborated(self, iso2: str, candidate: _Candidate,
                                 rng: np.random.Generator, trail: Dict,
                                 draws: DrawCursor) -> bool:
        """Whether Kentik/Cloudflare-Radar style trackers confirm.

        External trackers observed the real world, so corroboration
        probability is a function of what actually happened: severe, long
        events get noticed; noise does not.  A draw is consumed only
        when a real event overlaps — the trail records its substream
        coordinate so the verdict can be replayed.
        """
        overlapping = self._scenario.disruptions_in(
            candidate.span.expand(before=2 * HOUR, after=2 * HOUR),
            country_iso2=iso2) or [
                d for d in self._scenario.country_disruptions(iso2)
                if d.span.overlaps(candidate.span)]
        if not overlapping:
            trail["corroboration"] = {
                "checked": True, "overlapping": 0, "corroborated": False}
            return False
        strongest = max(overlapping, key=lambda d: d.severity)
        p = (self._config.p_external_corroboration
             * strongest.severity
             * min(1.0, strongest.span.duration / (2 * HOUR)))
        index = draws.take()
        corroborated = bool(rng.random() < p)
        trail["corroboration"] = {
            "checked": True,
            "overlapping": len(overlapping),
            "p": round(p, 9),
            "draw": {"substream": ["curation", iso2], "index": index},
            "corroborated": corroborated}
        return corroborated

    def _is_infrastructure_artifact(self, iso2: str, candidate: _Candidate,
                                    visible: Iterable[SignalKind],
                                    trail: Dict) -> bool:
        """Control-group check: similar simultaneous drop elsewhere?"""
        controls = self._control_countries(iso2)
        check_window = candidate.span.expand(before=6 * HOUR, after=2 * HOUR)
        n_similar = sum(
            1 for control in controls
            if self._control_shows_drop(control, check_window, visible))
        artifact = bool(controls) and (
            n_similar / len(controls)
            >= self._config.control_reject_fraction)
        trail["control"] = {
            "controls": list(controls),
            "n_similar": n_similar,
            "reject_fraction": self._config.control_reject_fraction,
            "artifact": artifact}
        return artifact

    def _control_countries(self, iso2: str) -> Tuple[str, ...]:
        """Deterministic cross-region control group excluding ``iso2``
        (memoized per pipeline)."""
        picks = self._controls.get(iso2)
        if picks is None:
            home_region = self._scenario.registry.get(iso2).region
            regions = {home_region}
            chosen: List[str] = []
            for country in self._scenario.registry:
                if country.iso2 == iso2 or country.region in regions:
                    continue
                regions.add(country.region)
                chosen.append(country.iso2)
                if len(chosen) >= self._config.n_controls:
                    break
            picks = self._controls[iso2] = tuple(chosen)
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
                record_ids: Iterator[int], trail: Dict,
                draws: DrawCursor) -> OutageRecord:
        starts = [min(e.span.start for e in episodes)
                  for episodes in visible.values()]
        ends = [max(e.span.end for e in episodes)
                for episodes in visible.values()]
        span = TimeRange(min(starts), max(ends))
        auto = {kind: bool(candidate.episodes.get(kind))
                for kind in SignalKind}
        human = {kind: kind in visible for kind in SignalKind}
        cause, more_info = self._attribute_cause(iso2, span, rng, trail,
                                                 draws)
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
        trail["record"] = {
            "local_id": record.record_id,
            "span": {"start": span.start, "end": span.end},
            "confirmation": record.confirmation.value,
            "scope": record.scope.value}
        return record

    def _attribute_cause(self, iso2: str, span: TimeRange,
                         rng: np.random.Generator, trail: Dict,
                         draws: DrawCursor
                         ) -> Tuple[Optional[str], Tuple[str, ...]]:
        """The news oracle: what reporting would the curators find?"""
        overlapping = [
            d for d in self._scenario.country_disruptions(iso2)
            if d.span.overlaps(
                span.expand(before=2 * HOUR, after=2 * HOUR))]
        if not overlapping:
            trail["cause"] = {"overlapping": 0, "cause": None}
            return None, ()
        truth = max(overlapping, key=lambda d: d.severity)
        p_discover = (self._config.p_discover_shutdown_cause
                      if truth.intentional
                      else self._config.p_discover_outage_cause)
        index = draws.take()
        discovered = bool(rng.random() < p_discover)
        cause = _CAUSE_TEXT[truth.cause] if discovered else None
        trail["cause"] = {
            "overlapping": len(overlapping),
            "p_discover": round(p_discover, 9),
            "draw": {"substream": ["curation", iso2], "index": index},
            "cause": cause}
        if cause is None:
            return None, ()
        info = [f"https://news.example.org/{iso2.lower()}/"
                f"{truth.disruption_id}"]
        if truth.trigger_event_id is not None:
            info.append("Related mobilization event reported; "
                        f"event id {truth.trigger_event_id}")
        return cause, tuple(info)

    # -- scope descent --------------------------------------------------------------------

    def _region_candidates(
            self, iso2: str, window: TimeRange, period: TimeRange
    ) -> List[Tuple[Entity, _Candidate,
                    Dict[SignalKind, List[AlertEpisode]]]]:
        """The region-view candidates scope descent decides.

        A region candidate is kept only if it starts in the period,
        falls in an observed part of the calendar and shows two anchored
        visible signals; the rest are skipped without a capsule, RNG
        draw or counter.  Every region is pulled before the first
        candidate is decided.

        A record needs two signals, so a region's signals are pulled one
        kind at a time (:meth:`_region_episodes`) and the pull stops
        once two qualifying kinds are out of reach: the telescope series
        is neither synthesized nor detected when BGP and active probing
        show no qualifying episode.  :class:`SignalKind` order puts the
        telescope last: it qualifies in about 85% of region views, so
        pulled earlier it would almost never let the pull stop, and its
        series carries the most bins.
        """
        found = []
        for region in self._scenario.topology.get(iso2).regions:
            entity = Entity.region(iso2, region.name)
            for candidate in self._cluster(
                    self._region_episodes(entity, window)):
                if not (period.contains(candidate.span.start)
                        and self.observes(candidate.span.start)):
                    continue
                visible = self.visible_signals_of(candidate)
                if len(visible) >= 2:
                    found.append((entity, candidate, visible))
        return found

    def _region_episodes(self, entity: Entity, window: TimeRange
                         ) -> Dict[SignalKind, List[AlertEpisode]]:
        """A region's alert episodes, pulled in :class:`SignalKind` order
        (BGP, active probing, telescope) until the kinds with a
        qualifying episode plus the kinds not yet pulled number fewer
        than two.  Kinds not pulled are absent from the mapping."""
        kinds = tuple(SignalKind)
        episodes: Dict[SignalKind, List[AlertEpisode]] = {}
        n_qualifying = 0
        for pulled, kind in enumerate(kinds):
            if n_qualifying + len(kinds) - pulled < 2:
                break
            episodes[kind] = self._dashboard.episodes(entity, kind, window)
            if any(self._qualifies(kind, e) for e in episodes[kind]):
                n_qualifying += 1
        return episodes
