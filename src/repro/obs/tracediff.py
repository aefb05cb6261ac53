"""Span-tree diffing (``repro trace diff``).

A perf-baseline comparison says *that* a run got slower; a trace diff
says *where*.  Both runs' journals are replayed into span trees, every
span is keyed by its **path** — names joined root-to-leaf, e.g.
``run/stage:curate/exec.shard/curate.country`` — and per-path wall
seconds are compared.  The result attributes the total delta to
specific paths, split into the top-N regressed (slower in B) and
improved (faster in B), so "curate got 2s slower" becomes "the shard
spans under curate got 2s slower".

Paths, not span ids, are the join key: ids are allocation order and
differ between runs, while the path of a pipeline stage is stable
across runs of the same configuration.  Spans adopted from process
workers diff the same way — adoption preserved their lineage, so their
paths resolve through the shard span they ran under.

Diffing a journal against itself yields a delta of exactly zero on
every path — the CI smoke test asserts this self-identity.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Sequence, Tuple

from repro.obs.summary import journal_run_seconds

__all__ = ["PathDelta", "TraceDiff", "diff_events", "span_path_seconds"]

#: Deltas smaller than this (seconds) are treated as unchanged.
DEFAULT_EPSILON = 0.001


@dataclass(frozen=True)
class PathDelta:
    """One span path's wall-time change between two runs."""

    path: str
    count_a: int
    count_b: int
    seconds_a: float
    seconds_b: float

    @property
    def delta(self) -> float:
        """Positive = slower in run B."""
        return self.seconds_b - self.seconds_a

    def row(self) -> str:
        return (f"  {self.path:<44} {self.seconds_a:9.3f}s -> "
                f"{self.seconds_b:9.3f}s  ({self.delta:+9.3f}s, "
                f"x{self.count_a}->x{self.count_b})")


@dataclass(frozen=True)
class TraceDiff:
    """The wall-time delta of run B against run A, by span path."""

    label_a: str
    label_b: str
    total_a: float
    total_b: float
    #: Every path seen in either run, largest absolute delta first.
    deltas: Tuple[PathDelta, ...]
    epsilon: float = DEFAULT_EPSILON

    @property
    def total_delta(self) -> float:
        return self.total_b - self.total_a

    @property
    def changed(self) -> Tuple[PathDelta, ...]:
        return tuple(d for d in self.deltas
                     if abs(d.delta) > self.epsilon)

    def regressed(self, top: int = 5) -> Tuple[PathDelta, ...]:
        """The top paths that got slower in B."""
        return tuple(sorted(
            (d for d in self.changed if d.delta > 0),
            key=lambda d: -d.delta))[:top]

    def improved(self, top: int = 5) -> Tuple[PathDelta, ...]:
        """The top paths that got faster in B."""
        return tuple(sorted(
            (d for d in self.changed if d.delta < 0),
            key=lambda d: d.delta))[:top]

    def rows(self, top: int = 5) -> List[str]:
        """Human-readable diff report."""
        lines = [
            f"trace diff      {self.label_a} -> {self.label_b}",
            f"  run seconds   {self.total_a:.3f}s -> {self.total_b:.3f}s"
            f"  (delta {self.total_delta:+.3f}s)",
        ]
        regressed, improved = self.regressed(top), self.improved(top)
        if not regressed and not improved:
            lines.append(
                f"  zero delta: no span path changed by more than "
                f"{self.epsilon:g}s across {len(self.deltas)} paths")
            return lines
        if regressed:
            lines.append(f"slower in {self.label_b}")
            lines.extend(d.row() for d in regressed)
        if improved:
            lines.append(f"faster in {self.label_b}")
            lines.extend(d.row() for d in improved)
        return lines


def span_path_seconds(events: Sequence[Mapping[str, Any]]
                      ) -> Dict[str, Tuple[int, float]]:
    """Per-span-path ``(count, total seconds)`` from journal events.

    Paths are resolved by walking each span's parent chain through the
    journal's own id space (ids are only meaningful within one
    journal, which is why the *path* is the cross-run join key).
    """
    spans = {int(e["span_id"]): e for e in events
             if e.get("type") == "span"}
    paths: Dict[int, str] = {}

    def path_of(span_id: int) -> str:
        cached = paths.get(span_id)
        if cached is not None:
            return cached
        event = spans[span_id]
        parent_id = event.get("parent_id")
        name = str(event.get("name", "?"))
        if parent_id is not None and int(parent_id) in spans:
            path = f"{path_of(int(parent_id))}/{name}"
        else:
            path = name
        paths[span_id] = path
        return path

    totals: Dict[str, List[float]] = defaultdict(list)
    for span_id, event in spans.items():
        totals[path_of(span_id)].append(float(event.get("duration", 0.0)))
    return {path: (len(durations), sum(durations))
            for path, durations in totals.items()}


def diff_events(events_a: Sequence[Mapping[str, Any]],
                events_b: Sequence[Mapping[str, Any]], *,
                label_a: str = "A", label_b: str = "B",
                epsilon: float = DEFAULT_EPSILON) -> TraceDiff:
    """Diff two replayed journals' span trees (B against A)."""
    by_path_a = span_path_seconds(events_a)
    by_path_b = span_path_seconds(events_b)
    deltas = []
    for path in sorted(set(by_path_a) | set(by_path_b)):
        count_a, seconds_a = by_path_a.get(path, (0, 0.0))
        count_b, seconds_b = by_path_b.get(path, (0, 0.0))
        deltas.append(PathDelta(
            path=path, count_a=count_a, count_b=count_b,
            seconds_a=round(seconds_a, 6), seconds_b=round(seconds_b, 6)))
    deltas.sort(key=lambda d: (-abs(d.delta), d.path))
    return TraceDiff(
        label_a=label_a, label_b=label_b,
        total_a=round(journal_run_seconds(events_a), 6),
        total_b=round(journal_run_seconds(events_b), 6),
        deltas=tuple(deltas), epsilon=epsilon)
