"""Outside-in tracing: spans around the public calls into each layer.

Nothing under ``src/`` is touched.  The traced run replaces public
methods on the *instances* the benchmark owns (the engine, its mapper,
strategy and similarity, the source facade, the table's indexes, the
serve router and admission controller) with wrappers that record spans
in memory.  Spans carry name, start, end, parent, thread and a per-call
trace id, and are written out when the run ends.

High-frequency leaf operations (index lookups, similarity scores,
relaxation-step generation) are not kept as one span each: their time
and count are added to the enclosing span, which keeps a traced run's
memory flat while self times still add up exactly.
"""

from __future__ import annotations

import gzip
import json
import math
import threading
import time
from pathlib import Path
from typing import Any, Callable, Iterator

__all__ = ["LAYERS", "Recorder", "Span", "instrument_engine", "layer_report"]

_now = time.perf_counter

#: Span or leaf name -> the layer its self time belongs to.
LAYERS = {
    "engine": "engine",
    "query.map": "query",
    "relaxation.step": "relaxation",
    "similarity.score": "similarity",
    "similarity.compile": "similarity",
    "db.source": "db.verify",
    "db.index_lookup": "db.index",
    "serve.route": "serve",
    "serve.admit": "serve.admit",
}


class Span:
    __slots__ = (
        "name", "start", "end", "parent", "trace_id", "child_s", "leaves",
        "tag", "thread",
    )

    def __init__(
        self, name: str, start: float, parent: "Span | None", trace_id: int
    ) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.trace_id = trace_id
        self.child_s = 0.0
        self.leaves: dict[str, list[float]] = {}
        self.tag = ""
        self.thread = threading.get_ident()

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        leaf_s = sum(entry[1] for entry in self.leaves.values())
        return self.duration - self.child_s - leaf_s


class Recorder:
    """In-memory span store with one span stack per thread."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_trace = 0

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if parent is None:
            with self._lock:
                self._next_trace += 1
                trace_id = self._next_trace
        else:
            trace_id = parent.trace_id
        span = Span(name, _now(), parent, trace_id)
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = _now()
        self._stack().pop()
        if span.parent is not None:
            span.parent.child_s += span.duration
        with self._lock:
            self.spans.append(span)

    def leaf(self, name: str, seconds: float, count: int = 1) -> None:
        stack = self._stack()
        if not stack:
            return
        entry = stack[-1].leaves.get(name)
        if entry is None:
            stack[-1].leaves[name] = [count, seconds]
        else:
            entry[0] += count
            entry[1] += seconds

    def spanned(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        def wrapped(*args: Any, **kwargs: Any) -> Any:
            span = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(span)

        return wrapped

    def timed_leaf(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        def wrapped(*args: Any, **kwargs: Any) -> Any:
            started = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                self.leaf(name, _now() - started)

        return wrapped

    def write(self, path: Path) -> None:
        """Write every span as one JSON line (gzip)."""
        ids = {id(span): index for index, span in enumerate(self.spans)}
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                record = {
                    "id": index,
                    "name": span.name,
                    "start": span.start,
                    "end": span.end,
                    "parent": ids.get(id(span.parent)),
                    "trace": span.trace_id,
                    "thread": span.thread,
                    "tag": span.tag,
                    "leaves": span.leaves,
                }
                handle.write(json.dumps(record) + "\n")


def _timed_steps(recorder: Recorder, steps: Iterator[Any]) -> Iterator[Any]:
    while True:
        started = _now()
        try:
            step = next(steps)
        except StopIteration:
            recorder.leaf("relaxation.step", _now() - started, 0)
            return
        recorder.leaf("relaxation.step", _now() - started)
        yield step


def _timed_scorer(recorder: Recorder, scorer: Callable[[Any], float]):
    def score(row: Any) -> float:
        started = _now()
        value = scorer(row)
        recorder.leaf("similarity.score", _now() - started)
        return value

    return score


def instrument_engine(recorder: Recorder, engine: Any) -> None:
    """Wrap one engine's entry points and the layers it calls into."""
    engine.answer = recorder.spanned("engine", engine.answer)
    engine.gather_similar = recorder.spanned("engine", engine.gather_similar)
    mapper = engine.mapper
    mapper.map = recorder.spanned("query.map", mapper.map)
    strategy = engine.strategy
    steps = strategy.relaxation_steps
    strategy.relaxation_steps = lambda *a, **k: _timed_steps(
        recorder, steps(*a, **k)
    )
    similarity = engine.similarity
    for attribute in ("row_scorer", "query_scorer"):
        compile_scorer = getattr(similarity, attribute)

        def compiled(*args: Any, _compile=compile_scorer, **kwargs: Any):
            started = _now()
            scorer = _compile(*args, **kwargs)
            recorder.leaf("similarity.compile", _now() - started, 0)
            return _timed_scorer(recorder, scorer)

        setattr(similarity, attribute, compiled)


def instrument_source(recorder: Recorder, webdb: Any, table: Any) -> None:
    """Wrap the facade's probe entry point and the table's indexes."""
    query = webdb.query

    def probe(*args: Any, **kwargs: Any) -> Any:
        span = recorder.begin("db.source")
        try:
            result = query(*args, **kwargs)
            span.tag = "cached" if result.from_cache else "issued"
            return result
        finally:
            recorder.end(span)

    webdb.query = probe
    for attribute in table.schema.attribute_names:
        for index in (table.hash_index(attribute), table.sorted_index(attribute)):
            if index is not None:
                index.candidates = recorder.timed_leaf(
                    "db.index_lookup", index.candidates
                )


def uninstrument_table(table: Any) -> None:
    for attribute in table.schema.attribute_names:
        for index in (table.hash_index(attribute), table.sorted_index(attribute)):
            if index is not None and "candidates" in vars(index):
                del index.candidates


def layer_report(recorder: Recorder, root_name: str) -> dict[str, Any]:
    """Per-layer self time and the aggregates the metrics need.

    ``root_name`` names the span that is one user call.  Returns the
    layer self-time totals, the root spans as ``(thread, start,
    duration)`` in start order, the lowest self time of any span (below
    0 when a leaf or child is counted twice), and the aggregated leaf
    counts and span sums.
    """
    layer_s: dict[str, float] = {}
    traces: set[int] = set()
    root_s: dict[int, float] = {}
    roots: list[tuple[int, float, float]] = []
    min_self = math.inf
    span_s: dict[str, float] = {}
    leaf_count: dict[str, float] = {}
    issued_by_parent: dict[str, int] = {}
    engine_in_route = 0.0
    for span in recorder.spans:
        layer = LAYERS[span.name]
        self_s = span.self_s
        min_self = min(min_self, self_s)
        layer_s[layer] = layer_s.get(layer, 0.0) + self_s
        traces.add(span.trace_id)
        span_s[span.name] = span_s.get(span.name, 0.0) + span.duration
        for name, (count, seconds) in span.leaves.items():
            leaf_layer = LAYERS[name]
            layer_s[leaf_layer] = layer_s.get(leaf_layer, 0.0) + seconds
            span_s[name] = span_s.get(name, 0.0) + seconds
            leaf_count[name] = leaf_count.get(name, 0) + count
        if span.name == root_name:
            root_s[span.trace_id] = span.duration
            roots.append((span.thread, span.start, span.duration))
        if span.tag == "issued" and span.parent is not None:
            parent = span.parent.name
            issued_by_parent[parent] = issued_by_parent.get(parent, 0) + 1
        if span.name == "engine" and span.parent is not None:
            engine_in_route += span.duration
    orphans = traces - set(root_s)
    return {
        "layer_s": layer_s,
        "call_s": sum(root_s.values()),
        "roots": sorted(roots, key=lambda root: root[1]),
        "min_self_s": min_self if recorder.spans else 0.0,
        "orphan_traces": len(orphans),
        "span_s": span_s,
        "leaf_count": leaf_count,
        "issued_by_parent": issued_by_parent,
        "engine_in_route_s": engine_in_route,
    }
