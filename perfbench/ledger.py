"""Outside-in span tracing for the traced benchmark run.

The benchmark never edits the program.  Instead, :meth:`Tracer.install`
replaces each layer's public entry point with a timing wrapper *at the
attribute the caller resolves*: methods on their class, and plain
functions in every loaded ``repro.*`` module that bound them by name
(``from repro.rng import substream`` copies the function into the
importing module, so patching only ``repro.rng`` would miss most
calls).

Spans are kept in memory as ``[name, parent, start, end, attrs]`` with
their parent's index, then reduced to per-span-name totals and self
times (duration minus the part covered by child spans).  Process-pool
workers inherit the wrappers through ``fork``; each worker starts an
empty span list and appends every finished top-level batch of spans to
``spans-<pid>.pkl`` in the trace directory, which :meth:`Tracer.collect`
reads back.
"""

from __future__ import annotations

import functools
import importlib
import os
import pickle
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (module, attribute path, span name) of every wrapped layer boundary.
#: The span name's first dot-separated part is the layer it is charged to.
BOUNDARIES: Tuple[Tuple[str, str, str], ...] = (
    ("repro.world.scenario", "ScenarioGenerator.generate", "world.generate"),
    ("repro.ioda.platform", "IODAPlatform.signal", "platform.signal"),
    ("repro.stream.detect", "stream_episodes", "detect.stream_episodes"),
    ("repro.stream.detect", "StreamingAlertDetector.feed",
     "detect.feed"),
    ("repro.ioda.curation", "CurationPipeline.country_windows",
     "curation.country_windows"),
    ("repro.ioda.curation", "CurationPipeline.adjudicate_window",
     "curation.adjudicate_window"),
    ("repro.ioda.curation", "CurationPipeline.cluster_episodes",
     "curation.cluster_episodes"),
    ("repro.rng", "substream", "rng.substream"),
    ("repro.obs.metrics", "MetricsRegistry.counter", "obs.counter"),
    ("repro.exec.workers", "ShardedCurationExecutor.curate", "exec.curate"),
    # Pool workers look it up by name, so each worker's shard is one
    # top-level span there and its spans are flushed once per shard.
    ("repro.exec.workers", "_curate_shard_subprocess", "exec.shard"),
    ("repro.core.pipeline", "ReproPipeline.compile_kio", "kio.compile"),
    ("repro.core.merge", "build_merged_dataset", "merge.build"),
    ("repro.stream.session", "StreamSession.push", "stream.push"),
    ("repro.stream.session", "StreamSession.advance_watermark",
     "stream.advance"),
    ("repro.stream.session", "StreamSession.finalize", "stream.finalize"),
    ("repro.serve.artifacts", "build_store", "serve.build_store"),
)

#: Layers in table order; every span name's prefix is one of these.
LAYERS = ("world", "platform", "detect", "curation", "rng", "obs", "exec",
          "kio", "merge", "datasets", "stream", "serve")

Span = List[Any]


def _signal_attrs(args: tuple, result: Any) -> Tuple[str, int]:
    """(kind, bins) of an ``IODAPlatform.signal(entity, kind, window)``."""
    return args[2].value, len(result.values)


class Tracer:
    """In-memory span recorder shared by every wrapper in one process."""

    def __init__(self, trace_dir: Path):
        self.trace_dir = trace_dir
        self.spans: List[Span] = []
        self._local = threading.local()
        self._flush_path: Optional[Path] = None
        os.register_at_fork(after_in_child=self._forked)

    # -- recording ---------------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _forked(self) -> None:
        self.spans = []
        self._local = threading.local()
        self._flush_path = self.trace_dir / f"spans-{os.getpid()}.pkl"

    def open(self, name: str) -> Span:
        stack = self._stack()
        span = [name, stack[-1] if stack else -1, time.perf_counter(),
                0.0, None]
        stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span[3] = time.perf_counter()
        stack = self._stack()
        stack.pop()
        if not stack and self._flush_path is not None:
            with open(self._flush_path, "ab") as out:
                pickle.dump(self.spans, out)
            self.spans = []

    def span(self, name: str, fn: Callable, *args, **kwargs) -> Any:
        """Call ``fn`` inside a span the benchmark opens itself."""
        span = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(span)

    def wrap(self, fn: Callable, name: str,
             attrs: Optional[Callable] = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
                if attrs is not None:
                    span[4] = attrs(args, result)
                return result
            finally:
                tracer.close(span)

        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> List[str]:
        """Wrap every boundary; import ``repro.api`` first.

        Returns the boundaries the program no longer has, so a refactor
        that moves one shows as a missing row instead of a crash.
        """
        missing: List[str] = []
        for module_name, path, name in BOUNDARIES:
            owner_name, _, attr = path.rpartition(".")
            try:
                module = importlib.import_module(module_name)
                owner = getattr(module, owner_name) if owner_name else module
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                missing.append(f"{module_name}.{path}")
                continue
            attrs = _signal_attrs if name == "platform.signal" else None
            wrapped = self.wrap(original, name, attrs)
            if owner_name:
                setattr(owner, attr, wrapped)
                continue
            for loaded in list(sys.modules.values()):
                if (getattr(loaded, "__name__", "").startswith("repro")
                        and getattr(loaded, attr, None) is original):
                    setattr(loaded, attr, wrapped)
        from repro.datasets import default_sources
        for source in default_sources():
            cls = type(source)
            cls.load = self.wrap(cls.load, "datasets.load")
        return missing

    # -- reading back ------------------------------------------------------

    def collect(self) -> Tuple[List[Span], List[List[Span]]]:
        """This process's spans, and every flushed worker batch."""
        batches: List[List[Span]] = []
        for path in sorted(self.trace_dir.glob("spans-*.pkl")):
            with open(path, "rb") as stream:
                while True:
                    try:
                        batches.append(pickle.load(stream))
                    except EOFError:
                        break
        return self.spans, batches


class Totals:
    """Per-span-name calls, inclusive seconds and self seconds."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = {}
        self.total: Dict[str, float] = {}
        self.self_s: Dict[str, float] = {}
        #: Inclusive seconds of ``platform.signal`` spans nested under a
        #: ``curation.adjudicate_window`` span (control-group synthesis).
        self.signal_under_adjudication = 0.0
        #: kind → [calls, seconds, bins] of ``platform.signal`` spans.
        self.signal: Dict[str, List[float]] = {}
        #: Inclusive seconds of the top-level spans (no wrapped parent).
        self.covered = 0.0
        #: ``stream.replay_step`` inclusive seconds minus its direct
        #: ``stream.push``/``stream.advance`` children: the bin source.
        self.source_s = 0.0

    def add(self, spans: List[Span]) -> None:
        child = [0.0] * len(spans)
        for span in spans:
            if span[1] >= 0:
                child[span[1]] += span[3] - span[2]
        for index, (name, parent, start, end, attrs) in enumerate(spans):
            duration = end - start
            self.calls[name] = self.calls.get(name, 0) + 1
            self.total[name] = self.total.get(name, 0.0) + duration
            self.self_s[name] = (self.self_s.get(name, 0.0)
                                 + duration - child[index])
            if parent < 0:
                self.covered += duration
            elif (name in ("stream.push", "stream.advance")
                  and spans[parent][0] == "stream.replay_step"):
                self.source_s -= duration
            if name == "stream.replay_step":
                self.source_s += duration
            if name == "platform.signal":
                kind, bins = attrs
                row = self.signal.setdefault(kind, [0, 0.0, 0])
                row[0] += 1
                row[1] += duration
                row[2] += bins
                up = parent
                while up >= 0:
                    if spans[up][0] == "curation.adjudicate_window":
                        self.signal_under_adjudication += duration
                        break
                    up = spans[up][1]

    def layer_self(self) -> Dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for name, seconds in self.self_s.items():
            out[name.split(".", 1)[0]] += seconds
        return out
