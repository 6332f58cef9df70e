"""Span tracing around calls into the program's public layer functions.

The benchmark does not modify the program: in a traced run it wraps the
public functions each layer exposes — on the objects it created, or on the
class or module attribute the engine calls through — and records one span
per call.  Spans nest along the calling thread's stack; a span's *self
time* is its duration minus the durations of its direct children, so the
self times of one query's spans add up to the root span's duration.
:meth:`Tracer.check_tiling` checks that this tree is well formed and that
the root span agrees with the engine's own measure of the query.

Layer names follow the program's module names (``lake.index``,
``discovery.prepared``, ...).  Spans are kept in memory and only reduced
to per-layer numbers when the run ends.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import repro.lake.engine as lake_engine
from repro.lake.index import LakeIndex

#: The engine's query entry point; its self time is what no traced child
#: covers (sketching the query, sorting, scoring glue).
ROOT = "discovery.search"
#: How much longer than the engine's own ``QueryStats.total_seconds`` a
#: traced query may take: the root wrapper also times building the stats.
WRAPPER_SLACK_S = 0.002
WRAPPER_SLACK_FRAC = 0.05


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    children: list["Span"] = field(default_factory=list)
    #: Counts recorded at the boundary (e.g. the shortlist's length).
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - sum(child.duration for child in self.children)

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()


class Tracer:
    """Records span trees rooted at engine queries (single-threaded use)."""

    def __init__(self) -> None:
        self.enabled = False
        self.queries: list[Span] = []
        self._stack: list[Span] = []
        self._restore: list[Callable[[], None]] = []
        self._shared = False

    def wrap(
        self,
        name: str,
        fn: Callable,
        count: Optional[Callable[[object], dict]] = None,
        root: bool = False,
    ) -> Callable:
        """*fn* wrapped to record a span named *name* when tracing is on.

        Non-root spans are recorded only inside a root span, so calls made
        while building or preparing a lake do not count as query work.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled or (not root and not self._stack):
                return fn(*args, **kwargs)
            span = Span(name, time.perf_counter())
            if self._stack:
                self._stack[-1].children.append(span)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if count is not None:
                span.counts.update(count(result))
            if root:
                self.queries.append(span)
            return result

        return traced

    def patch(self, owner: object, attribute: str, name: str, **options) -> None:
        """Replace ``owner.attribute`` with its traced wrapper (undone by
        :meth:`unpatch`).  *owner* is an instance, a class or a module."""
        original = getattr(owner, attribute)
        had_own = attribute in vars(owner)
        setattr(owner, attribute, self.wrap(name, original, **options))

        def restore() -> None:
            if had_own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)

        self._restore.append(restore)

    def unpatch(self) -> None:
        while self._restore:
            self._restore.pop()()
        self._shared = False

    # ------------------------------------------------------------------ #
    # wiring
    # ------------------------------------------------------------------ #
    def instrument_engine(self, engine, matcher_name: str) -> None:
        """Wrap every layer a serial ``engine.query`` call passes through.

        Instance attributes shadow the methods, so only this engine, its
        matcher and its stores are traced; an engine that pickles its
        matcher into a rerank pool must not be instrumented.
        """
        # The engine's own QueryStats are the independent measure the root
        # span is checked against.
        self.patch(
            engine, "query", ROOT, root=True,
            count=lambda _: {
                "total_seconds": engine.last_query_stats.total_seconds,
                "shortlist_seconds": engine.last_query_stats.shortlist_seconds,
            },
        )
        self.patch(engine.matcher, "match_prepared", f"matchers.{matcher_name}.pair")
        self.patch(engine.store, "table_meta", "lake.store.table_meta")
        # The query's prepared form comes through the store's write-through
        # prepare (its own stored-payload lookup included).  Candidate
        # payloads come from the query itself: batched, or under the
        # cascade one scored candidate at a time, both through get_many.
        prepared = engine.prepared_store
        self.patch(prepared, "prepare", f"matchers.{matcher_name}.prepare_query")
        self.patch(prepared, "get_many", "discovery.prepared.get_many")
        if not self._shared:
            # Built inside the engine / called through the engine module's
            # own reference, so wrapped where the engine looks them up.
            self._shared = True
            self.patch(
                LakeIndex,
                "candidate_tables",
                "lake.index.shortlist",
                count=lambda result: {"size": len(result)},
            )
            self.patch(lake_engine, "candidate_signals", "discovery.cascade.signals")

    # ------------------------------------------------------------------ #
    # reduction
    # ------------------------------------------------------------------ #
    def self_times(self, query: Span) -> dict[str, float]:
        """Seconds of self time per layer within one query's span tree."""
        totals: dict[str, float] = {}
        for span in query.walk():
            key = f"{ROOT}.self" if span.name == ROOT else span.name
            totals[key] = totals.get(key, 0.0) + span.self_time
        return totals

    def check_tiling(self) -> Optional[str]:
        """The accounting invariant, per query: every span lies inside its
        parent, siblings do not overlap (so the layer self times tile the
        root), and the root span agrees with the engine's own
        ``QueryStats.total_seconds`` to within the wrapper's overhead; the
        shortlist span fits inside the engine's shortlist stage.  Returns a
        description of the first violation."""
        for query in self.queries:
            for span in query.walk():
                previous_end = span.start
                for child in span.children:
                    if child.start < previous_end or child.end > span.end:
                        return (
                            f"{child.name} [{child.start:.6f}, {child.end:.6f}] is not "
                            f"inside {span.name} after its earlier children"
                        )
                    previous_end = child.end
            engine_s = query.counts["total_seconds"]
            tolerance = WRAPPER_SLACK_S + WRAPPER_SLACK_FRAC * engine_s
            if not engine_s <= query.duration <= engine_s + tolerance:
                return (
                    f"the traced query took {query.duration:.6f}s but the engine "
                    f"measured {engine_s:.6f}s"
                )
            shortlist = sum(
                child.duration for child in query.children if child.name == "lake.index.shortlist"
            )
            if shortlist > query.counts["shortlist_seconds"]:
                return (
                    f"shortlist spans took {shortlist:.6f}s, longer than the "
                    f"engine's shortlist stage {query.counts['shortlist_seconds']:.6f}s"
                )
        return None

    def calls(self, name: str) -> list[Span]:
        return [span for query in self.queries for span in query.walk() if span.name == name]
