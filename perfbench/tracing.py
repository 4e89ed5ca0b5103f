"""Span recording around each layer's public calls, from outside the program.

:class:`SpanRecorder` replaces a function or method with a wrapper that
records one span per call (name, start, end, parent span) and restores the
original on :meth:`SpanRecorder.uninstall`.  Spans stay in memory and are
written out when the run ends.  A layer's self time is its span minus the
time covered by its child spans; calls on one thread nest, so the children's
summed durations are exactly the covered part.
"""

from __future__ import annotations

import functools
import itertools
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "child")

    def __init__(self, span_id: int, parent: int, name: str, start: float):
        self.id = span_id
        self.parent = parent
        self.name = name
        self.start = start
        self.end = start
        #: Seconds covered by direct child spans.
        self.child = 0.0


@dataclass
class LayerTotals:
    calls: int = 0
    seconds: float = 0.0
    self_seconds: float = 0.0


@dataclass
class SpanRecorder:
    spans: list[Span] = field(default_factory=list)
    #: Totals of spans aggregated on the fly instead of kept (per-cell calls).
    aggregated: dict[str, LayerTotals] = field(default_factory=dict)
    _patches: list[tuple[object, str, object, bool]] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str):
        """Context manager recording one span around benchmark-side work."""
        return _SpanContext(self, name)

    def _open(self, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1].id if stack else 0
        span = Span(next(self._ids), parent, name, perf_counter())
        stack.append(span)
        return span

    def _close(self, span: Span, keep: bool = True) -> None:
        span.end = perf_counter()
        stack = self._stack()
        stack.pop()
        duration = span.end - span.start
        if stack:
            stack[-1].child += duration
        if keep:
            self.spans.append(span)
            return
        entry = self.aggregated.setdefault(span.name, LayerTotals())
        entry.calls += 1
        entry.seconds += duration
        entry.self_seconds += duration - span.child

    def wrap(self, owner, attribute: str, name: str, keep: bool = True) -> None:
        """Record a span named ``name`` around every call of ``owner.attribute``.

        ``keep=False`` folds the spans into :attr:`aggregated` instead of
        keeping each one, for calls made once per cell.
        """
        own = attribute in vars(owner)
        original = getattr(owner, attribute)
        recorder = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = recorder._open(name)
            try:
                return original(*args, **kwargs)
            finally:
                recorder._close(span, keep)

        setattr(owner, attribute, traced)
        self._patches.append((owner, attribute, original, own))

    def uninstall(self) -> None:
        """Restore every wrapped callable (newest first)."""
        while self._patches:
            owner, attribute, original, own = self._patches.pop()
            if own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)

    def totals(self) -> dict[str, LayerTotals]:
        """Calls, inclusive seconds and self seconds per span name."""
        result = {
            name: LayerTotals(entry.calls, entry.seconds, entry.self_seconds)
            for name, entry in self.aggregated.items()
        }
        for span in self.spans:
            entry = result.setdefault(span.name, LayerTotals())
            duration = span.end - span.start
            entry.calls += 1
            entry.seconds += duration
            entry.self_seconds += duration - span.child
        return result


class _SpanContext:
    def __init__(self, recorder: SpanRecorder, name: str):
        self.recorder = recorder
        self.name = name

    def __enter__(self) -> Span:
        self.span = self.recorder._open(self.name)
        return self.span

    def __exit__(self, *exc_info) -> None:
        self.recorder._close(self.span)


def write_spans(path: Path, recorders) -> None:
    """Write the recorders' spans as CSV: id, parent id, name, start, end.

    Each recorder numbers its spans from 1; ids are shifted per recorder so
    they stay unique in the file.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    offset = 0
    with path.open("w", encoding="utf-8") as handle:
        handle.write("id,parent,name,start,end\n")
        for recorder in recorders:
            for span in recorder.spans:
                parent = span.parent + offset if span.parent else 0
                handle.write(
                    f"{span.id + offset},{parent},{span.name},"
                    f"{span.start!r},{span.end!r}\n"
                )
            offset += max((span.id for span in recorder.spans), default=0)


def install_build_spans(recorder: SpanRecorder) -> None:
    """Spans of the index-build layer (``repro.index`` + ``repro.hashing``)."""
    import repro.api.session as session_module
    from repro.hashing.superkey import SuperKeyGenerator
    from repro.index.builder import IndexBuilder

    # DiscoverySession builds its default index through this name.
    recorder.wrap(session_module, "build_index", "index.build_index")
    recorder.wrap(IndexBuilder, "add_table", "index.build_table")
    recorder.wrap(
        SuperKeyGenerator, "value_hash", "hashing.value_hash", keep=False
    )


def install_query_spans(recorder: SpanRecorder) -> None:
    """Spans of the query path: session, planner, the four stages, reads."""
    from repro.api.session import DiscoverySession
    from repro.plan.executor import Executor
    from repro.plan.planner import Planner
    from repro.plan.stages import (
        CandidateGeneration,
        RowVerification,
        SuperKeyPrefilter,
        TopKMaintenance,
    )
    from repro.service.cache import CachingIndex

    recorder.wrap(DiscoverySession, "discover", "api.session_discover")
    recorder.wrap(Planner, "plan", "plan.planner")
    recorder.wrap(Executor, "execute", "plan.execute")
    recorder.wrap(CandidateGeneration, "run", "plan.candidate_generation")
    recorder.wrap(SuperKeyPrefilter, "run", "plan.superkey_prefilter")
    recorder.wrap(RowVerification, "run", "plan.row_verification")
    recorder.wrap(TopKMaintenance, "run", "plan.topk")
    recorder.wrap(CachingIndex, "fetch_batch", "index.fetch")


def install_ingest_spans(recorder: SpanRecorder) -> None:
    """Spans of the write path: session ingest, live index, compaction."""
    from repro.api.session import DiscoverySession
    from repro.ingest.compactor import Compactor
    from repro.ingest.live import LiveIndex

    recorder.wrap(DiscoverySession, "ingest", "api.session_ingest")
    recorder.wrap(LiveIndex, "add_table", "ingest.add_table")
    recorder.wrap(Compactor, "run_once", "ingest.compaction")
