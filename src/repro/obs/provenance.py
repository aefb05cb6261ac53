"""Decision provenance: content-addressed lineage capsules.

The observability layers of :mod:`repro.obs` explain how a run *behaved*
(spans, heartbeats, health grades).  This module explains why any
individual curated record *exists*: every decision point of the curation
pipeline (§3.1.2) — the triggering alert episodes, the human-visibility
check, external corroboration, the control-group artifact check, cause
attribution, and scope descent — deposits its evidence into a **lineage
capsule** the moment the candidate is adjudicated.

Capsules are **content-addressed**: the capsule id is a BLAKE2b digest
of the canonical JSON payload, which carries no timestamps, host names,
or other run-local noise.  Two runs that adjudicate a candidate the same
way therefore mint byte-identical capsules, which is what makes
``repro runs diff --provenance`` meaningful and a self-diff exactly
empty.

Capsules are **journal-only**.  They are emitted as ``provenance``
events on the run journal (or, captured inside a process worker,
buffered and shipped home in the worker's
:class:`~repro.obs.runtime.WorkerReport` for
:meth:`repro.obs.runtime.Observability.adopt`), and they never feed
back into the pipeline: event output is byte-identical with
provenance on or off, on every backend, and under ``api.stream``.

Record ids are local to a country while curation runs and are only
renumbered globally by :func:`repro.ioda.curation.finalize_records`;
the recorder therefore keys capsules by ``(iso2, local id)`` and a
``provenance.manifest`` event journaled at finalize time maps the
global, user-facing record ids back onto capsule ids.  ``repro explain``
accepts either a global record id or a capsule id (so dismissed
candidates, which never receive a record id, stay explainable).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from datetime import datetime, timezone
from hashlib import blake2b
from typing import Any, Dict, Iterable, List, Mapping, Optional, \
    Sequence, Tuple

from repro.errors import ReproError

__all__ = [
    "DECISION_STEPS",
    "DrawCursor",
    "ExplainReport",
    "ProvenanceDiff",
    "ProvenanceError",
    "ProvenanceRecorder",
    "capsule_id_for",
    "capsules_in",
    "diff_provenance",
    "explain_record",
    "record_manifest",
    "sorted_capsules",
]

#: Decision points in adjudication order — the scale ``diff_provenance``
#: walks to attribute an outcome flip to its *earliest* divergence.
DECISION_STEPS: Tuple[str, ...] = (
    "period", "calendar", "visibility", "corroboration", "control",
    "cause", "outcome")


class ProvenanceError(ReproError):
    """A provenance lookup, explain, or diff could not be satisfied."""


def capsule_id_for(payload: Mapping[str, Any]) -> str:
    """The content address of a capsule payload.

    Canonical JSON (sorted keys, no whitespace) hashed with BLAKE2b —
    the same digest the run registry uses for whole journals, so equal
    decisions mint equal ids across runs, backends, and chunkings.
    """
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return blake2b(blob.encode("utf-8"), digest_size=8).hexdigest()


class DrawCursor:
    """Position within one country's ``("curation", iso2)`` RNG substream.

    The curation pipeline advances the cursor at each actual
    ``rng.random()`` call so capsules can record the exact substream
    coordinate that produced a probabilistic verdict.  Streaming keeps
    one cursor per country across watermark advances (process workers
    ship the index back alongside the RNG state), so the coordinates
    match a batch run draw for draw.
    """

    __slots__ = ("index",)

    def __init__(self, index: int = 0):
        self.index = int(index)

    def take(self) -> int:
        """Consume one coordinate and return it."""
        position = self.index
        self.index += 1
        return position


class ProvenanceRecorder:
    """Collects lineage capsules for one observability session.

    Lives on :class:`repro.obs.runtime.Observability` as the
    ``provenance`` attribute (``None`` when the feature is off, so the
    hot path pays a single attribute check).  Capsules stream into the
    run journal when one is attached and always buffer in
    :attr:`capsules` — the buffer is both the ``RunResult.provenance``
    payload and the shuttle process workers ship home for
    :meth:`adopt`.
    """

    def __init__(self, journal=None):
        self.journal = journal
        #: Every capsule captured (or adopted) by this session, in
        #: capture order.
        self.capsules: List[Dict[str, Any]] = []
        #: ``(iso2, local record id) -> capsule id`` for recorded
        #: candidates; feeds the finalize-time manifest.
        self.by_record: Dict[Tuple[str, int], str] = {}
        #: ``global record id -> capsule id`` from the latest manifest.
        self.record_map: Dict[int, str] = {}
        #: Downstream ``provenance.match`` / ``provenance.verdict``
        #: events captured via :meth:`note`.
        self.notes: List[Dict[str, Any]] = []

    def emit(self, payload: Mapping[str, Any]) -> str:
        """Seal ``payload`` into a capsule; return its content address."""
        capsule = dict(payload)
        capsule_id = capsule_id_for(capsule)
        capsule["capsule_id"] = capsule_id
        self._absorb(capsule)
        return capsule_id

    def adopt(self, capsules: Iterable[Mapping[str, Any]]) -> None:
        """Graft capsules captured by a worker session into this one.

        The primitive :meth:`repro.obs.runtime.Observability.adopt`
        calls: workers buffer capsules (no journal attached), the
        parent journals them on arrival.
        """
        for capsule in capsules:
            self._absorb(dict(capsule))

    def note(self, event_type: str, payload: Mapping[str, Any]) -> None:
        """Journal a downstream provenance event (match/verdict)."""
        event = {"type": event_type, **payload}
        self.notes.append(event)
        if self.journal is not None:
            self.journal.write(event)

    def manifest(self, entries: Sequence[Tuple[int, str, int]]) -> None:
        """Map global record ids onto capsules after finalize.

        ``entries`` are ``(global_id, iso2, local_id)`` rows straight
        out of :func:`repro.ioda.curation.finalize_records`.  Streaming
        sessions may finalize provisionally more than once; readers use
        the *last* manifest in a journal.
        """
        rows = []
        for global_id, iso2, local_id in entries:
            capsule_id = self.by_record.get((iso2, local_id))
            rows.append([global_id, iso2, local_id, capsule_id])
            if capsule_id is not None:
                self.record_map[global_id] = capsule_id
        if self.journal is not None:
            self.journal.write(
                {"type": "provenance.manifest", "records": rows})

    def _absorb(self, capsule: Dict[str, Any]) -> None:
        self.capsules.append(capsule)
        record = capsule.get("record")
        if record is not None and "local_id" in record:
            self.by_record[(capsule["country_iso2"],
                            record["local_id"])] = capsule["capsule_id"]
        if self.journal is not None:
            self.journal.write({"type": "provenance", **capsule})


def sorted_capsules(
        recorder: Optional[ProvenanceRecorder]) -> Tuple[Mapping, ...]:
    """The recorder's capsules in a backend-independent order.

    Process shards complete in nondeterministic order, so the raw
    buffer order differs run to run; ``RunResult.provenance`` sorts by
    the capsule's stable coordinates instead.
    """
    if recorder is None:
        return ()
    return tuple(sorted(
        recorder.capsules,
        key=lambda c: (c.get("country_iso2", ""),
                       c.get("window_start", 0),
                       c.get("span", {}).get("start", 0),
                       c.get("stage", ""),
                       c.get("capsule_id", ""))))


# -- reading journals ------------------------------------------------------------


def capsules_in(events: Sequence[Mapping]) -> List[Mapping]:
    """The provenance capsules among journal ``events``."""
    return [e for e in events if e.get("type") == "provenance"]


def record_manifest(events: Sequence[Mapping]) -> Dict[int, Dict[str, Any]]:
    """Global record id -> capsule coordinates, from the last manifest."""
    manifest = None
    for event in events:
        if event.get("type") == "provenance.manifest":
            manifest = event
    if manifest is None:
        return {}
    return {
        int(row[0]): {"country_iso2": row[1], "local_id": row[2],
                      "capsule_id": row[3]}
        for row in manifest.get("records", ())}


def _utc(ts: int) -> str:
    return datetime.fromtimestamp(int(ts), tz=timezone.utc) \
        .strftime("%Y-%m-%dT%H:%MZ")


@dataclass(frozen=True)
class ExplainReport:
    """The rendered decision chain behind one capsule.

    ``record_id`` is the global id when the capsule produced a record
    that survived finalize, else ``None`` (dismissed candidates).
    ``verdict`` and ``matches`` are the downstream
    ``provenance.verdict`` / ``provenance.match`` evidence when the
    journal captured the merge stage.
    """

    capsule: Mapping[str, Any]
    record_id: Optional[int] = None
    verdict: Optional[Mapping[str, Any]] = None

    def rows(self) -> List[str]:
        """One aligned line per decision point, chain order."""
        c = self.capsule
        span = c.get("span", {})
        lines: List[str] = []

        def put(label: str, text: str) -> None:
            lines.append(f"{label:<14}{text}")

        head = (f"record #{self.record_id}" if self.record_id is not None
                else "candidate (no record)")
        put("subject", f"{head} — {c.get('country_iso2', '??')} "
                       f"{c.get('entity', '?')} "
                       f"[{_utc(span.get('start', 0))} .. "
                       f"{_utc(span.get('end', 0))}]")
        put("capsule", f"{c.get('capsule_id', '?')} "
                       f"{c.get('stage', '?')} -> {c.get('outcome', '?')} "
                       f"({c.get('reason', '?')})")
        if "window_start" in c:
            put("window", f"investigation window opened "
                          f"{_utc(c['window_start'])}")
        alert = c.get("alert") or {}
        if alert:
            parts = [
                f"{kind}: {info['episodes']} episode(s), deepest "
                f"{info['max_depth']:.3f} below trailing median"
                for kind, info in sorted(alert.items())]
            put("trigger", "; ".join(parts))
        if c.get("reason") == "outside_period":
            put("period", "candidate starts outside the study period")
        put("calendar", "gap — nobody was observing (§3.1.2)"
            if c.get("reason") in ("calendar_gap",)
            else "observed at candidate start")
        visibility = c.get("visibility")
        if visibility is not None:
            visible = visibility.get("visible", [])
            put("visibility",
                (f"{', '.join(visible)} human-visible "
                 f"({len(visible)} signal(s), "
                 f"{visibility.get('required', 2)} required alone)")
                if visible else "no signal met the human-visibility bar")
        corroboration = c.get("corroboration")
        if corroboration is not None:
            if not corroboration.get("checked", True):
                put("corroboration", "skipped (>= 2 signals visible)")
            elif corroboration.get("overlapping", 0) == 0:
                put("corroboration",
                    "no real-world event overlapped; trackers silent")
            else:
                draw = corroboration.get("draw") or {}
                put("corroboration",
                    f"{'confirmed' if corroboration.get('corroborated') else 'not confirmed'}"
                    f" (p={corroboration.get('p', 0):.3f}, rng "
                    f"{tuple(draw.get('substream', ()))} "
                    f"draw #{draw.get('index')})")
        control = c.get("control")
        if control is not None:
            controls = control.get("controls", [])
            put("controls",
                f"{', '.join(controls) or 'none available'}: "
                f"{control.get('n_similar', 0)}/{len(controls)} similar "
                f"(reject at >= {control.get('reject_fraction', 0):.0%})"
                + (" — infrastructure artifact" if control.get("artifact")
                   else ""))
        cause = c.get("cause")
        if cause is not None:
            if cause.get("overlapping", 0) == 0:
                put("cause", "no overlapping real-world event to report on")
            elif cause.get("cause") is None:
                draw = cause.get("draw") or {}
                put("cause",
                    f"undiscovered (p_discover="
                    f"{cause.get('p_discover', 0):.2f}, rng "
                    f"{tuple(draw.get('substream', ()))} "
                    f"draw #{draw.get('index')})")
            else:
                draw = cause.get("draw") or {}
                put("cause",
                    f"\"{cause['cause']}\" (p_discover="
                    f"{cause.get('p_discover', 0):.2f}, rng "
                    f"{tuple(draw.get('substream', ()))} "
                    f"draw #{draw.get('index')})")
        record = c.get("record")
        if record is not None:
            put("record", f"confirmation {record.get('confirmation', '?')}, "
                          f"scope {record.get('scope', '?')}, "
                          f"local id {record.get('local_id', '?')}")
        if self.verdict is not None:
            matched = self.verdict.get("matched_kio_ids", [])
            put("matching",
                f"matched KIO event(s) "
                f"{', '.join(str(i) for i in matched)}"
                if matched else "no KIO event matched within lookback")
            put("label",
                f"{self.verdict.get('label', '?')}"
                + (" (via KIO match)" if self.verdict.get("via_kio_match")
                   else "")
                + (" (via recorded cause)" if self.verdict.get("via_cause")
                   else ""))
        return lines


def explain_record(events: Sequence[Mapping],
                   token: "str | int") -> ExplainReport:
    """Resolve ``token`` (global record id or capsule id prefix) into
    the full decision chain recorded in ``events``.

    Raises :class:`ProvenanceError` when the journal holds no capsules
    or the token does not resolve — callers (the CLI) turn that into a
    one-line exit-2 message.
    """
    capsules = capsules_in(events)
    if not capsules:
        raise ProvenanceError(
            "journal has no provenance capsules (re-run with --provenance)")
    manifest = record_manifest(events)
    token_str = str(token).strip()
    record_id: Optional[int] = None
    if token_str.isdigit():
        record_id = int(token_str)
        entry = manifest.get(record_id)
        if entry is None:
            raise ProvenanceError(
                f"record {record_id} not found in the provenance manifest "
                f"({len(manifest)} records mapped)")
        capsule_id = entry["capsule_id"]
        if capsule_id is None:
            raise ProvenanceError(
                f"record {record_id} has no capsule (provenance was "
                f"captured only partially)")
        matches = [c for c in capsules if c.get("capsule_id") == capsule_id]
    else:
        matches = [c for c in capsules
                   if c.get("capsule_id", "").startswith(token_str)]
        distinct = {c["capsule_id"] for c in matches}
        if len(distinct) > 1:
            raise ProvenanceError(
                f"capsule id prefix {token_str!r} is ambiguous "
                f"({len(distinct)} capsules match)")
        if matches:
            for gid, entry in manifest.items():
                if entry["capsule_id"] == matches[0]["capsule_id"]:
                    record_id = gid
                    break
    if not matches:
        raise ProvenanceError(
            f"no capsule matches {token_str!r} "
            f"({len(capsules)} capsules in journal)")
    verdict = None
    if record_id is not None:
        for event in events:
            if (event.get("type") == "provenance.verdict"
                    and event.get("record_id") == record_id):
                verdict = event
    return ExplainReport(capsule=matches[0], record_id=record_id,
                         verdict=verdict)


# -- cross-run diff --------------------------------------------------------------


def _capsule_key(capsule: Mapping) -> Tuple:
    return (capsule.get("country_iso2"), capsule.get("entity"),
            capsule.get("window_start"),
            capsule.get("span", {}).get("start"))


def _step_values(capsule: Mapping) -> Dict[str, Any]:
    """Canonical per-step verdicts for earliest-flip attribution."""
    reason = capsule.get("reason")
    visibility = capsule.get("visibility") or {}
    corroboration = capsule.get("corroboration")
    control = capsule.get("control")
    cause = capsule.get("cause")
    return {
        "period": reason != "outside_period",
        "calendar": reason != "calendar_gap",
        "visibility": tuple(sorted(visibility.get("visible", ()))),
        "corroboration": (None if corroboration is None
                          else bool(corroboration.get("corroborated"))),
        "control": (None if control is None
                    else bool(control.get("artifact"))),
        "cause": None if cause is None else cause.get("cause"),
        "outcome": (capsule.get("outcome"), reason),
    }


_FLIP_PHRASES = {
    "period": "moved outside the study period",
    "calendar": "fell into an observation-calendar gap",
    "visibility": "changed human-visibility",
    "corroboration": "lost external corroboration",
    "control": "flipped the control-group artifact check",
    "cause": "changed cause attribution",
    "outcome": "changed outcome",
}


@dataclass(frozen=True)
class ProvenanceDiff:
    """Decision-level attribution of the delta between two runs.

    ``flips`` groups candidates present in both runs whose decision
    chains diverge, keyed by the earliest diverging step and the
    outcome transition.  ``only_a``/``only_b`` tally candidates that
    exist in just one run, by outcome.  A self-diff is :attr:`empty`.
    """

    n_a: int
    n_b: int
    flips: Tuple[Tuple[str, str, str, int], ...]
    only_a: Tuple[Tuple[str, int], ...]
    only_b: Tuple[Tuple[str, int], ...]

    @property
    def empty(self) -> bool:
        return not self.flips and not self.only_a and not self.only_b

    def rows(self, label_a: str = "A", label_b: str = "B") -> List[str]:
        if self.empty:
            return [f"provenance: identical decision chains "
                    f"({self.n_a} capsules)"]
        lines = [f"provenance: {self.n_a} capsules in {label_a}, "
                 f"{self.n_b} in {label_b}"]
        for step, from_outcome, to_outcome, count in self.flips:
            noun = "candidate" if count == 1 else "candidates"
            lines.append(
                f"  {count} {noun} {_FLIP_PHRASES.get(step, step)} "
                f"({from_outcome} -> {to_outcome}) at step {step}")
        for outcome, count in self.only_a:
            noun = "candidate" if count == 1 else "candidates"
            lines.append(f"  {count} {noun} only in {label_a} ({outcome})")
        for outcome, count in self.only_b:
            noun = "candidate" if count == 1 else "candidates"
            lines.append(f"  {count} {noun} only in {label_b} ({outcome})")
        return lines


def diff_provenance(events_a: Sequence[Mapping],
                    events_b: Sequence[Mapping]) -> ProvenanceDiff:
    """Attribute the record delta between two journals to decisions.

    Only adjudication capsules participate — streaming lifecycle
    capsules depend on watermark chunking and would report chunking,
    not curation.  Candidates are joined on their stable coordinates
    (country, entity, window, candidate start); joined pairs whose
    chains diverge are attributed to the *earliest* differing decision
    step, turning "run B has 3 fewer records" into "3 candidates lost
    external corroboration".

    Raises :class:`ProvenanceError` when either journal has no
    capsules.
    """
    a = {_capsule_key(c): c for c in capsules_in(events_a)
         if c.get("stage") == "adjudicate"}
    b = {_capsule_key(c): c for c in capsules_in(events_b)
         if c.get("stage") == "adjudicate"}
    if not a or not b:
        which = "first" if not a else "second"
        raise ProvenanceError(
            f"the {which} run has no provenance capsules "
            f"(re-run with --provenance)")
    flip_counts: Dict[Tuple[str, str, str], int] = {}
    for key in sorted(set(a) & set(b), key=repr):
        ca, cb = a[key], b[key]
        if ca.get("capsule_id") == cb.get("capsule_id"):
            continue
        va, vb = _step_values(ca), _step_values(cb)
        step = next((s for s in DECISION_STEPS if va[s] != vb[s]), None)
        if step is None:
            continue  # differs only in journal noise, not decisions
        transition = (step, str(ca.get("outcome")), str(cb.get("outcome")))
        flip_counts[transition] = flip_counts.get(transition, 0) + 1
    only_a: Dict[str, int] = {}
    for key in set(a) - set(b):
        outcome = str(a[key].get("outcome"))
        only_a[outcome] = only_a.get(outcome, 0) + 1
    only_b: Dict[str, int] = {}
    for key in set(b) - set(a):
        outcome = str(b[key].get("outcome"))
        only_b[outcome] = only_b.get(outcome, 0) + 1
    return ProvenanceDiff(
        n_a=len(a), n_b=len(b),
        flips=tuple((s, fa, fb, n) for (s, fa, fb), n
                    in sorted(flip_counts.items())),
        only_a=tuple(sorted(only_a.items())),
        only_b=tuple(sorted(only_b.items())),
    )
