"""In-memory span tracer that wraps the program's public calls.

The program has no tracing of its own, so the traced run patches the
public methods named in :data:`TRACED_CALLS` for the duration of a
``with Tracer.installed():`` block and records one span per call:
name, start, end and the enclosing span. Spans stay in memory and are
written out by :meth:`Tracer.dump` when the benchmark ends.

Two spans are renamed at exit from what the call did, because the shared
plan store is reached through :class:`~repro.runtime.PlanCache`'s disk
tier rather than through calls of its own:

* a ``PlanCache.get`` that hydrated a plan from disk becomes
  ``fleet.store.get`` (a memory hit or a miss stays
  ``runtime.plan_cache.get``);
* the self time of a ``PlanCache.get_or_compile`` that compiled and
  wrote a plan to disk is the store's write path, ``fleet.store.put``.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.core import ParaConv
from repro.fleet import FleetRouter, FleetWorker
from repro.runtime import BatchingServer, InferenceSession, PlanCache
from repro.sim import ScheduleExecutor

#: (class, method, span name) for every wrapped public call.
TRACED_CALLS: Tuple[Tuple[type, str, str], ...] = (
    (FleetRouter, "submit", "fleet.router.submit"),
    (FleetRouter, "pump", "fleet.router.pump"),
    (FleetRouter, "drain", "fleet.router.drain"),
    (FleetRouter, "kill_worker", "fleet.router.kill_worker"),
    (FleetWorker, "pump", "fleet.worker.pump"),
    (BatchingServer, "step", "runtime.server.step"),
    (InferenceSession, "run", "runtime.session.run"),
    (InferenceSession, "compile", "runtime.session.compile"),
    (PlanCache, "get_or_compile", "runtime.plan_cache.get_or_compile"),
    (PlanCache, "get", "runtime.plan_cache.get"),
    (ScheduleExecutor, "execute", "sim.execute"),
    (ParaConv, "run", "compiler.paraconv.run"),
)

#: Layers, by span-name prefix, in report order.
LAYERS = ("fleet", "runtime", "sim", "compiler", "graph")


class Span:
    __slots__ = ("span_id", "parent", "name", "start", "end", "child_s")

    def __init__(self, span_id: int, parent: Optional[int], name: str, start: float):
        self.span_id = span_id
        self.parent = parent
        self.name = name
        self.start = start
        self.end = start
        #: seconds covered by direct children (for self time).
        self.child_s = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """Collects spans; also holds the sim/compile outputs seen in spans."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        #: every ExecutionTrace returned by a traced execute.
        self.executions: List[Any] = []
        #: every CompileStats attached to a traced ParaConv.run result.
        self.compiles: List[Any] = []
        #: extra seconds attributed to ``fleet.store.put`` (see module doc).
        self.store_put_s = 0.0
        #: ``PlanCache.get`` outcomes (``get_or_compile`` looks up through it).
        self.cache_lookups = 0
        self.cache_hits = 0
        self.cache_disk_hits = 0

    # -- recording -----------------------------------------------------
    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(
            len(self.spans),
            parent.span_id if parent is not None else None,
            name,
            time.perf_counter(),
        )
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if self._stack:
            self._stack[-1].child_s += span.duration

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        """``fn`` with every call recorded as a span called ``name``."""

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def _wrap_method(self, cls: type, method: str, name: str) -> Callable[..., Any]:
        original = getattr(cls, method)
        tracer = self

        if cls is PlanCache and method == "get":

            @functools.wraps(original)
            def cache_get(cache: PlanCache, key: Any) -> Any:
                before = cache.stats.disk_hits
                with tracer.span(name) as span:
                    plan = original(cache, key)
                tracer.cache_lookups += 1
                tracer.cache_hits += plan is not None
                if cache.stats.disk_hits != before:
                    tracer.cache_disk_hits += 1
                    span.name = "fleet.store.get"
                return plan

            return cache_get

        if cls is PlanCache and method == "get_or_compile":

            @functools.wraps(original)
            def get_or_compile(cache: PlanCache, key: Any, compile_fn: Any) -> Any:
                before = cache.stats.disk_writes
                with tracer.span(name) as span:
                    plan = original(cache, key, compile_fn)
                if cache.stats.disk_writes != before:
                    tracer.store_put_s += span.self_s
                return plan

            return get_or_compile

        if cls is ScheduleExecutor:

            @functools.wraps(original)
            def execute(*args: Any, **kwargs: Any) -> Any:
                with tracer.span(name):
                    trace = original(*args, **kwargs)
                tracer.executions.append(trace)
                return trace

            return execute

        if cls is ParaConv:

            @functools.wraps(original)
            def run(*args: Any, **kwargs: Any) -> Any:
                with tracer.span(name):
                    result = original(*args, **kwargs)
                tracer.compiles.append(result.compile_stats)
                return result

            return run

        return self.wrap(original, name)

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Patch every call in :data:`TRACED_CALLS`; restore on exit."""
        originals = [(cls, m, cls.__dict__[m]) for cls, m, _ in TRACED_CALLS]
        try:
            for cls, method, name in TRACED_CALLS:
                setattr(cls, method, self._wrap_method(cls, method, name))
            yield self
        finally:
            for cls, method, original in originals:
                setattr(cls, method, original)

    # -- reporting -----------------------------------------------------
    def self_times(self) -> Dict[str, float]:
        """Self seconds per span name (store put carved out of its parent)."""
        out: Dict[str, float] = {}
        for span in self.spans:
            out[span.name] = out.get(span.name, 0.0) + span.self_s
        if self.store_put_s:
            key = "runtime.plan_cache.get_or_compile"
            out[key] = out.get(key, 0.0) - self.store_put_s
            out["fleet.store.put"] = out.get("fleet.store.put", 0.0) + self.store_put_s
        return out

    def total_times(self) -> Dict[str, float]:
        """Inclusive seconds per span name (no wrapped call nests itself)."""
        out: Dict[str, float] = {}
        for span in self.spans:
            out[span.name] = out.get(span.name, 0.0) + span.duration
        return out

    def calls(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for span in self.spans:
            out[span.name] = out.get(span.name, 0) + 1
        return out

    def durations(self, name: str) -> List[float]:
        return [span.duration for span in self.spans if span.name == name]

    def top_level_s(self) -> float:
        return sum(span.duration for span in self.spans if span.parent is None)

    def layer_self_times(self, wall_s: float) -> Dict[str, float]:
        """Self seconds per layer, plus ``other`` = wall not in any span."""
        out = {layer: 0.0 for layer in LAYERS}
        for name, seconds in self.self_times().items():
            out[name.split(".", 1)[0]] += seconds
        out["other"] = wall_s - self.top_level_s()
        return out

    def dump(self, path: Path) -> None:
        """Write every span as ``[id, parent, name, start, end]`` rows."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0].start if self.spans else 0.0
        rows = [
            [s.span_id, s.parent, s.name, s.start - origin, s.end - origin]
            for s in self.spans
        ]
        path.write_text(json.dumps({"columns": ["id", "parent", "name", "start_s", "end_s"],
                                    "spans": rows}))
