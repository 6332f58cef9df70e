"""The three measured phases, and the run context they report into.

Every workload runs all three phases, so every end-to-end metric is
measured on every workload; a workload decides how large each phase's
inputs are and how much of the measured time each phase gets.

* :class:`KernelPhase` — serial plain warm ``engine.query`` calls for each
  of the eight registered matchers on a small realistic lake.
* :class:`ServedPhase` — a SemProp lake behind ``lake serve --cascade`` in
  its own process, driven by closed-loop client threads.
* :class:`ChurnPhase` — seeded CSV edits on a primary lake, then
  incremental build, prepare, publish and delta pull into a replica, which
  is then queried.
"""

from __future__ import annotations

import ctypes
import http.client
import itertools
import json
import math
import os
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from repro import telemetry
from repro.artifacts import BLOBS_DIR, BlobStore, Manifest, publish_snapshot, pull_snapshot
from repro.discovery.prepared import PreparedStore
from repro.lake import LakeDiscoveryEngine, SketchStore, build_from_paths, prepare_lake
from repro.matchers.registry import create_matcher
from repro.serve import ServeClient, ServeError

from inputs import Lake, churn_lake, churn_round, kernel_lake, wide_lake
from tracer import Tracer

MATCHERS = (
    "ComaSchema",
    "ComaInstance",
    "Cupid",
    "DistributionBased",
    "EmbDI",
    "JaccardLevenshtein",
    "SemProp",
    "SimilarityFlooding",
)
SERVED_MATCHER = "SemProp"
KERNEL_TOP_K = 5
SERVED_TOP_K = 10
#: Correctness gate carried over from the cascade's own acceptance bound.
MIN_NEUTRAL_SKIP_FRAC = 0.30
#: Build/prepare pool size for lakes large enough to amortise a pool.
BUILD_WORKERS = 2
#: ``prctl`` options (linux/prctl.h).
PR_SET_PDEATHSIG = 1
PR_SET_CHILD_SUBREAPER = 36
LIBC = ctypes.CDLL(None, use_errno=True)


def prctl(option: int, value: int) -> None:
    """``prctl(option, value)`` where the platform has it; a no-op elsewhere."""
    try:
        LIBC.prctl(option, value, 0, 0, 0)
    except AttributeError:
        pass


def daemon_preexec() -> None:
    """In the daemon's process, before it runs: SIGINT is its graceful
    stop, but a shell that starts the benchmark in the background leaves
    SIGINT ignored, and the daemon would inherit that.  It is also killed
    if the benchmark dies without stopping it."""
    signal.signal(signal.SIGINT, signal.SIG_DFL)
    prctl(PR_SET_PDEATHSIG, signal.SIGKILL)


# ---------------------------------------------------------------------- #
# calibration
# ---------------------------------------------------------------------- #
#: The calibration loop's time at reference speed: its median on the
#: 2-CPU machine the benchmark was tuned on, in that machine's fast state.
REFERENCE_LOOP_S = 0.003


def calibration_loop_s() -> float:
    """Seconds for a fixed pure-Python loop, the lesser of two tries (an
    interrupt lengthens one, never shortens it).

    The machines this runs on are shared, and their speed drifts by a
    third or more for stretches of seconds to minutes; every timing taken
    in a slow stretch reads slow alike.  Each set-up, each matcher's share
    of a kernel slice and each churn round first times this loop, and the
    timings taken right after it are scaled by ``REFERENCE_LOOP_S`` over
    the loop's time, which reports them at reference speed.  The loop runs
    none of the program's code, so a change to the program moves the
    scaled timings as it moves the measured ones.  Served timings are not
    scaled: that work runs in the daemon's processes on every CPU, and the
    loop's time in this process does not track it."""
    best = math.inf
    for _ in range(2):
        started = time.perf_counter()
        total = 0
        for i in range(50_000):
            total += i * i
        best = min(best, time.perf_counter() - started)
    return best


# ---------------------------------------------------------------------- #
# run context
# ---------------------------------------------------------------------- #
@dataclass
class Run:
    """What one benchmark run accumulates: metrics, gates, operations."""

    workdir: Path
    src_dir: Path
    trace: bool
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    layers: dict[str, tuple[float, str]] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)
    #: phase -> [sent, succeeded, failed]
    operations: dict[str, list[int]] = field(default_factory=dict)
    sizes: dict[str, object] = field(default_factory=dict)
    #: Every calibration loop's seconds, in order.
    loops: list[float] = field(default_factory=list)

    def calibrate(self) -> float:
        """Time the calibration loop now and return the factor that scales
        a timing taken now to reference speed (see :func:`calibration_loop_s`)."""
        seconds = calibration_loop_s()
        self.loops.append(seconds)
        return REFERENCE_LOOP_S / seconds

    def gate(self, ok: bool, message: str) -> None:
        """A correctness gate: a failed one fails the run."""
        if not ok and message not in self.failures:
            self.failures.append(message)
            print(f"GATE FAILED: {message}", flush=True)

    def operation(self, phase: str, ok: bool) -> None:
        counts = self.operations.setdefault(phase, [0, 0, 0])
        counts[0] += 1
        counts[1 if ok else 2] += 1

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (value, unit)

    def layer(self, name: str, value: float, unit: str) -> None:
        self.layers[name] = (value, unit)


def ranking(results) -> str:
    """The canonical bytes of a ranking, comparable across the wire."""
    rows = [
        [
            r.table_name,
            r.joinability,
            r.unionability,
            list(r.scores.best_pair) if r.scores.best_pair else None,
        ]
        for r in results
    ]
    return json.dumps(json.loads(json.dumps(rows)))


def served_ranking(payload: dict) -> str:
    rows = [
        [r["table_name"], r["joinability"], r["unionability"], r["best_pair"]]
        for r in payload["results"]
    ]
    return json.dumps(rows)


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile; a failed request is ``inf`` and so counts
    as over any latency limit instead of being dropped."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def open_stores(path: Path) -> tuple[SketchStore, PreparedStore]:
    return SketchStore(path), PreparedStore(path.with_name(path.name + ".prepared"))


def timed(fn, *args, **kwargs):
    started = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - started


# ---------------------------------------------------------------------- #
# matcher kernels
# ---------------------------------------------------------------------- #
class KernelPhase:
    """Warm serial queries for every registered matcher on a small lake.

    EmbDI trains word2vec per pair, so it gets its own tiny sub-lake.
    """

    name = "kernels"

    def __init__(self, run: Run, rng, params: dict) -> None:
        self.run = run
        self.params = params
        root = run.workdir / "kernel"
        self.lake = kernel_lake(
            root / "csv", rng, params["rows"], params["columns"],
            params["candidates"], params["queries"],
        )
        self.embdi_lake = kernel_lake(
            root / "embdi_csv", rng, params["embdi_rows"], params["columns"],
            params["embdi_candidates"], params["queries"],
        )
        self.engines: dict[str, LakeDiscoveryEngine] = {}
        self.handles: list = []

    def setup(self, store_dir: Path) -> None:
        """One sketch and prepared store per matcher, so a traced run can
        wrap each engine's stores under its own matcher's name."""
        self.close()
        for name in MATCHERS:
            lake = self.embdi_lake if name == "EmbDI" else self.lake
            store, prepared = open_stores(store_dir / f"kernel_{name}.sketches")
            self.handles += [store, prepared]
            build_from_paths(store, lake.paths)
            matcher = create_matcher(name)
            prepare_lake(store, prepared, matcher)
            self.engines[name] = LakeDiscoveryEngine(
                matcher=matcher, store=store, prepared_store=prepared
            )

    def queries_for(self, name: str):
        return (self.embdi_lake if name == "EmbDI" else self.lake).queries

    def start(self) -> None:
        self.tracer = Tracer() if self.run.trace else None
        if self.tracer is not None:
            for name, engine in self.engines.items():
                self.tracer.instrument_engine(engine, name)
            self.tracer.enabled = True
        for name, engine in self.engines.items():
            for query in self.queries_for(name):
                # Store each query's prepared form, as its first query
                # would, so the first timed pass is already warm.
                engine.prepared_store.prepare(engine.matcher, query)
        self.references: dict[tuple[str, str], str] = {}
        #: matcher -> mean query seconds of each of its completed passes, at
        #: reference speed and as measured
        self.passes: dict[str, list[float]] = {name: [] for name in MATCHERS}
        self.raw_passes: dict[str, list[float]] = {name: [] for name in MATCHERS}
        #: matcher -> (measured, reference-speed) query seconds of its pass
        #: in progress
        self.current: dict[str, list[tuple[float, float]]] = {name: [] for name in MATCHERS}
        self.shortlists: dict[str, set[int]] = {name: set() for name in MATCHERS}

    def has_minimum(self) -> bool:
        return all(len(p) >= self.params["min_passes"] for p in self.passes.values())

    def step(self, slice_s: float) -> None:
        """One slice: each matcher in turn gets an equal share of *slice_s*
        and spends it on its query tables in rotation, at least one query.
        A slow matcher therefore takes only its own query's time, and every
        matcher is sampled in every slice.  A pass is one rotation over a
        matcher's query tables; its sample is their mean time."""
        share = slice_s / len(MATCHERS)
        for name, engine in self.engines.items():
            queries = self.queries_for(name)
            current = self.current[name]
            factor = self.run.calibrate()
            deadline = time.perf_counter() + share
            while True:
                seconds = self._query(name, engine, queries[len(current)])
                if seconds is None:
                    current.clear()
                else:
                    current.append((seconds, seconds * factor))
                    if len(current) == len(queries):
                        raw, scaled = zip(*current)
                        self.raw_passes[name].append(statistics.fmean(raw))
                        self.passes[name].append(statistics.fmean(scaled))
                        current.clear()
                if time.perf_counter() >= deadline:
                    break

    def _query(self, name: str, engine: LakeDiscoveryEngine, query) -> Optional[float]:
        run = self.run
        try:
            results, seconds = timed(engine.query, query, top_k=KERNEL_TOP_K)
        except Exception as exc:  # counted, reported, never dropped
            run.operation(self.name, False)
            run.gate(False, f"{name} query {query.name} raised {exc!r}")
            return None
        stats = engine.last_query_stats
        # The first run of each query is the reference every repeat must match.
        key = (name, query.name)
        same = self.references.setdefault(key, ranking(results)) == ranking(results)
        run.gate(same, f"{name} warm query {query.name} ranked differently on repeat")
        run.gate(
            stats.store_hits == stats.rerank_count,
            f"{name} warm query {query.name} read "
            f"{stats.rerank_count - stats.store_hits} candidates from CSV",
        )
        run.operation(self.name, same)
        self.shortlists[name].add(stats.shortlist_size)
        return seconds

    def finish(self) -> None:
        """Per matcher: the median over its passes of a pass's mean query
        time, so every sample weighs each query table alike."""
        run = self.run
        for name in MATCHERS:
            run.metric(f"matcher_query_ms.{name}", median(self.passes[name]) * 1e3, "ms")
        passes = {name: len(values) for name, values in self.passes.items()}
        run.sizes["kernels"] = {
            "lake": self.lake.sizes(),
            "embdi_lake": self.embdi_lake.sizes(),
            "passes": passes,
            "shortlist_sizes": {name: sorted(s) for name, s in self.shortlists.items()},
        }
        print(
            "kernels: passes per matcher "
            + ", ".join(f"{name} {count}" for name, count in passes.items())
            + "; measured ms "
            + ", ".join(f"{name} {median(self.raw_passes[name]) * 1e3:.4g}" for name in MATCHERS),
            flush=True,
        )

        tracer = self.tracer
        if tracer is not None:
            tracer.enabled = False
            tracer.unpatch()
            problem = tracer.check_tiling()
            run.gate(problem is None, f"kernel trace: {problem}")
            for name in MATCHERS:
                for suffix in ("pair", "prepare_query"):
                    calls = tracer.calls(f"matchers.{name}.{suffix}")
                    run.layer(
                        f"matchers.{name}.{suffix}_ms",
                        median(span.duration for span in calls) * 1e3,
                        "ms",
                    )

    def close(self) -> None:
        for engine in self.engines.values():
            engine.close()
        for handle in self.handles:
            handle.close()
        self.engines, self.handles = {}, []


# ---------------------------------------------------------------------- #
# served wide lake
# ---------------------------------------------------------------------- #
class Daemon:
    """``lake serve`` in its own process (and process group)."""

    def __init__(self, run: Run, store: Path) -> None:
        env = dict(os.environ, PYTHONPATH=str(run.src_dir), PYTHONUNBUFFERED="1")
        self.log = open(run.workdir / "serve.log", "wb")
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "lake", "serve",
                "--store", str(store), "--method", SERVED_MATCHER,
                "--cascade", "--port", "0",
            ],
            cwd=run.workdir,
            env=env,
            stdout=subprocess.PIPE,
            stderr=self.log,
            start_new_session=True,
            preexec_fn=daemon_preexec,
        )
        try:
            self.port = self._read_port(timeout_s=60.0)
        except BaseException:
            self.stop()
            raise

    def _read_port(self, timeout_s: float) -> int:
        """The ephemeral port from the daemon's ``serving ... on http://``
        line, read on a thread so a silent daemon cannot hang the run."""
        ports: list[int] = []

        def scan() -> None:
            for line in self.process.stdout:
                match = re.search(rb"http://[^:\s]+:(\d+)", line)
                if match is not None:
                    ports.append(int(match.group(1)))
                    return

        reader = threading.Thread(target=scan, daemon=True)
        reader.start()
        reader.join(timeout_s)
        if not ports:
            raise RuntimeError("lake serve did not report its address")
        return ports[0]

    def wait_ready(self, timeout_s: float = 60.0) -> None:
        deadline = time.monotonic() + timeout_s
        with ServeClient(port=self.port, timeout_s=5.0) as client:
            while time.monotonic() < deadline:
                try:
                    if client.healthz().get("status") == "ok":
                        return
                except (ServeError, OSError, http.client.HTTPException):
                    pass
                time.sleep(0.02)
        raise RuntimeError("lake serve never became healthy")

    def stop(self) -> None:
        """SIGINT is the daemon's graceful stop (it closes its rerank pool);
        anything still alive in its process group after that is killed."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        self.process.wait()
        self.process.stdout.close()
        self.log.close()


class ServedPhase:
    """Closed-loop clients against the daemon; half the queries per cohort."""

    name = "served"

    def __init__(self, run: Run, rng, params: dict) -> None:
        self.run = run
        self.params = params
        self.lake: Lake = wide_lake(
            run.workdir / "wide" / "csv", rng, params["tables"], params["rows"],
            params["columns"], params["families"], params["queries_per_cohort"],
        )
        self.store_path: Optional[Path] = None
        self.daemon: Optional[Daemon] = None
        self.references: dict[str, str] = {}
        self.threads: list[threading.Thread] = []

    def setup(self, store_dir: Path) -> None:
        self.store_path = store_dir / "wide.sketches"
        store, prepared = open_stores(self.store_path)
        try:
            build_from_paths(store, self.lake.paths, workers=BUILD_WORKERS)
            prepare_lake(store, prepared, create_matcher(SERVED_MATCHER), workers=BUILD_WORKERS)
        finally:
            store.close()
            prepared.close()

    def start_daemon(self) -> None:
        self.daemon = Daemon(self.run, self.store_path)
        self.daemon.wait_ready()

    def check_plans(self) -> None:
        """Identity gates in-process: the plain serial query is the
        reference; the cascaded serial and the parallel plans must match it.
        In a traced run the cascaded queries (the served plan, serially) are
        traced, alternating with untraced repeats for the overhead."""
        run = self.run
        store, prepared = open_stores(self.store_path)
        plain = LakeDiscoveryEngine(
            matcher=create_matcher(SERVED_MATCHER), store=store, prepared_store=prepared
        )
        parallel = LakeDiscoveryEngine(
            matcher=create_matcher(SERVED_MATCHER), store=store, prepared_store=prepared
        )
        try:
            for query in self.lake.queries:
                self.references[query.name] = ranking(plain.query(query, top_k=SERVED_TOP_K))
                stats = plain.last_query_stats
                run.gate(
                    stats.store_hits == stats.rerank_count,
                    f"served-lake query {query.name}: {stats.store_hits} of "
                    f"{stats.rerank_count} candidates from the prepared store",
                )
                cascaded = plain.query(query, top_k=SERVED_TOP_K, cascade=True)
                run.gate(
                    ranking(cascaded) == self.references[query.name],
                    f"cascaded plan diverged on {query.name}",
                )
                if self.lake.cohorts[query.name] == "neutral":
                    # The serial cascade's skips are deterministic; the
                    # served (parallel) cascade's depend on dispatch timing
                    # and are reported, not gated.
                    stats = plain.last_query_stats
                    skip = stats.cascade_skipped / max(1, stats.shortlist_size)
                    run.gate(
                        skip >= MIN_NEUTRAL_SKIP_FRAC,
                        f"cascade skipped only {skip:.0%} of {query.name}'s shortlist",
                    )
            for query in self.lake.queries[:2]:
                results = parallel.query(query, top_k=SERVED_TOP_K, parallel=True, max_workers=2)
                run.gate(
                    ranking(results) == self.references[query.name],
                    f"parallel plan diverged on {query.name}",
                )
            if run.trace:
                self._trace(plain)
        finally:
            parallel.close()
            plain.close()
            store.close()
            prepared.close()

    def _trace(self, engine: LakeDiscoveryEngine) -> None:
        run = self.run
        tracer = Tracer()
        tracer.instrument_engine(engine, SERVED_MATCHER)
        untraced, traced, bytes_read, hit_fracs = [], [], [], []
        try:
            for rep in range(self.params["trace_reps"]):
                for query in self.lake.queries:
                    order = (False, True) if rep % 2 == 0 else (True, False)
                    for on in order:
                        tracer.enabled = on
                        with telemetry.use(telemetry.TelemetryRecorder()):
                            _, seconds = timed(
                                engine.query, query, top_k=SERVED_TOP_K, cascade=True
                            )
                        (traced if on else untraced).append(seconds)
                        stats = engine.last_query_stats
                        if on:
                            bytes_read.append(stats.counters.get("prepared_store.bytes_read", 0))
                            hit_fracs.append(stats.store_hit_rate)
        finally:
            tracer.enabled = False
            tracer.unpatch()
        problem = tracer.check_tiling()
        run.gate(problem is None, f"served-lake trace: {problem}")
        per_query = [tracer.self_times(query) for query in tracer.queries]
        for layer, key in (
            ("lake.index.shortlist_ms", "lake.index.shortlist"),
            ("lake.store.table_meta_ms", "lake.store.table_meta"),
            ("discovery.prepared.get_many_ms", "discovery.prepared.get_many"),
            ("discovery.cascade.signals_ms", "discovery.cascade.signals"),
            ("discovery.search.self_ms", "discovery.search.self"),
        ):
            run.layer(layer, median(q.get(key, 0.0) for q in per_query) * 1e3, "ms")
        run.layer(
            "lake.index.shortlist_size",
            median(s.counts["size"] for s in tracer.calls("lake.index.shortlist")),
            "count",
        )
        run.layer("discovery.prepared.bytes_read", median(bytes_read), "bytes")
        run.layer("discovery.prepared.hit_frac", median(hit_fracs), "ratio")
        # Each traced query is paired with the untraced run of the same
        # query next to it, so the ratio does not mix queries or moments.
        ratios = [t / u for t, u in zip(traced, untraced)]
        run.layer("trace.overhead_frac", median(ratios) - 1.0, "ratio")

    def start(self) -> None:
        queries = self.lake.queries
        self.by_cohort = {
            cohort: [q for q in queries if self.lake.cohorts[q.name] == cohort]
            for cohort in ("realistic", "neutral")
        }
        with ServeClient(port=self.daemon.port, timeout_s=60.0) as client:
            # One query per cohort spawns the daemon's rerank pool; the query
            # payloads are already stored by check_plans.
            for query in queries[:2]:
                client.query(query, top_k=SERVED_TOP_K)
            self.before = client.stats()
        clients = self.params["clients"]
        #: (cohort, query name, sent at, rtt s or inf, payload, measured)
        self.records: list[tuple] = []
        self.elapsed = 0.0
        self.slices = 0
        # The clients live for the whole phase on one connection each and
        # are paused between slices.  Under ``self.turn``: ``open`` lets them
        # send, ``window`` is the slice's measured span, and ``sent_at``
        # holds each client's in-flight request's send time (None if idle).
        self.turn = threading.Condition()
        self.open = False
        self.closing = False
        self.window = (math.inf, math.inf)
        self.sent_at: list[Optional[float]] = [None] * clients
        self.threads = [
            threading.Thread(target=self._client, args=(i,), name=f"client-{i}")
            for i in range(clients)
        ]
        for thread in self.threads:
            thread.start()

    def _client(self, index: int) -> None:
        """A closed-loop client: the next request goes out as soon as the
        reply to the last one is in."""
        turn = self.turn
        with ServeClient(port=self.daemon.port, timeout_s=30.0) as session:
            for i in itertools.count():
                with turn:
                    turn.wait_for(lambda: self.open or self.closing)
                    if self.closing:
                        return
                    sent = self.sent_at[index] = time.perf_counter()
                    start, end = self.window
                cohort = ("realistic", "neutral")[(i + index) % 2]
                pool = self.by_cohort[cohort]
                query = pool[(i // 2 + index) % len(pool)]
                try:
                    payload = session.query(query, top_k=SERVED_TOP_K)
                    rtt = time.perf_counter() - sent
                except Exception as exc:
                    # 429 / 503 / 504, timeouts, broken connections: the
                    # request failed and counts as over any limit.
                    payload, rtt = {"error": repr(exc)}, math.inf
                with turn:
                    self.sent_at[index] = None
                    self.records.append(
                        (cohort, query.name, sent, rtt, payload, start <= sent < end)
                    )
                    turn.notify_all()

    def has_minimum(self) -> bool:
        return self.slices >= 1

    def step(self, slice_s: float) -> None:
        """Closed-loop load for *slice_s* seconds.  The requests sent within
        the slice are measured.  The load stays on until each of them is
        answered, so every measured request ran with every client active;
        then the clients pause."""
        turn = self.turn
        with turn:
            start = time.perf_counter()
            end = start + slice_s
            self.window = (start, end)
            self.open = True
            turn.notify_all()
        time.sleep(max(0.0, end - time.perf_counter()))
        with turn:
            turn.wait_for(lambda: all(s is None or s >= end for s in self.sent_at))
            self.open = False
            turn.wait_for(lambda: all(s is None for s in self.sent_at))
        self.elapsed += slice_s
        self.slices += 1

    def finish(self) -> None:
        run = self.run
        self._stop_clients()
        before, elapsed = self.before, self.elapsed
        with ServeClient(port=self.daemon.port, timeout_s=60.0) as client:
            after = client.stats()

        latencies, engine_ms, overhead_ms = [], [], []
        skipped = {"realistic": 0, "neutral": 0}
        shortlisted = {"realistic": 0, "neutral": 0}
        measured = []
        for cohort, name, _, rtt, payload, in_window in self.records:
            ok = math.isfinite(rtt)
            if ok:
                stats = payload["stats"]
                same = served_ranking(payload) == self.references[name]
                run.gate(same, f"served ranking diverged from the serial reference on {name}")
                # The parallel cascade fetches some payloads for candidates
                # it then skips, so hits may exceed the scored count; every
                # scored candidate must still be a hit.
                run.gate(
                    stats["store_hits"] >= stats["rerank_count"],
                    f"served query {name} scored candidates missing from the store",
                )
                ok = same
                if in_window:
                    skipped[cohort] += stats["cascade_skipped"]
                    shortlisted[cohort] += stats["shortlist_size"]
                    engine_ms.append(stats["total_seconds"] * 1e3)
                    overhead_ms.append(rtt * 1e3 - stats["total_seconds"] * 1e3)
            run.operation(self.name, ok)
            if in_window:
                measured.append((cohort, rtt))
                latencies.append(rtt * 1e3)
        succeeded = sum(1 for _, rtt in measured if math.isfinite(rtt))
        run.metric("query_p50_ms", percentile(latencies, 0.50), "ms")
        run.metric("query_p95_ms", percentile(latencies, 0.95), "ms")
        run.metric("queries_per_s", succeeded / elapsed, "1/s")
        skip = {c: skipped[c] / shortlisted[c] if shortlisted[c] else 0.0 for c in skipped}
        counters = lambda stats, key: stats["counters"].get(key, 0)  # noqa: E731
        batches = counters(after, "serve.batches") - counters(before, "serve.batches")
        batched = counters(after, "serve.batched_queries") - counters(before, "serve.batched_queries")
        csv_reads = after["stages"].get("rerank.csv_read", {}).get("count", 0)
        run.gate(csv_reads == 0, f"the daemon read {csv_reads} candidate CSVs")
        run.layer("serve.rtt_ms", median(l for l in latencies if math.isfinite(l)), "ms")
        run.layer("serve.engine_ms", median(engine_ms), "ms")
        run.layer("serve.overhead_ms", median(overhead_ms), "ms")
        run.layer("serve.batch_size", batched / batches if batches else 0.0, "count")
        run.layer(
            "serve.coalesced",
            after["serve"]["coalesced"] - before["serve"]["coalesced"],
            "count",
        )
        run.layer(
            "serve.rejected",
            counters(after, "serve.rejected_queue_full")
            - counters(before, "serve.rejected_queue_full"),
            "count",
        )
        run.layer("discovery.cascade.skip_frac.realistic", skip["realistic"], "ratio")
        run.layer("discovery.cascade.skip_frac.neutral", skip["neutral"], "ratio")
        run.sizes["served"] = {
            "lake": self.lake.sizes(),
            "clients": self.params["clients"],
            "requests": len(self.records),
            "measured_requests": len(measured),
            "shortlisted_per_query": {
                c: shortlisted[c] / max(1, sum(1 for m in measured if m[0] == c))
                for c in shortlisted
            },
        }
        by = {
            cohort: median(rtt * 1e3 for c, rtt in measured if c == cohort)
            for cohort in self.by_cohort
        }
        errors = sorted({r[4]["error"] for r in self.records if "error" in r[4]})
        print(
            f"served: {len(measured)} measured of {len(self.records)} requests from "
            f"{self.params['clients']} closed-loop clients in {elapsed:.1f}s over "
            f"{self.slices} slices; median realistic {by['realistic']:.1f} ms, neutral "
            f"{by['neutral']:.1f} ms; {batched / batches if batches else 0.0:.2f} "
            f"queries per batch" + (f"; errors: {errors[:5]}" if errors else ""),
            flush=True,
        )

    def _stop_clients(self) -> None:
        if self.threads:
            with self.turn:
                self.closing = True
                self.turn.notify_all()
            for thread in self.threads:
                thread.join()
            self.threads = []

    def close(self) -> None:
        self._stop_clients()
        if self.daemon is not None:
            self.daemon.stop()
            self.daemon = None


# ---------------------------------------------------------------------- #
# churning replica
# ---------------------------------------------------------------------- #
class ChurnPhase:
    """Edit the primary's CSVs, sync a replica, query it; per round."""

    name = "churn"

    def __init__(self, run: Run, rng, params: dict) -> None:
        self.run = run
        self.rng = rng
        self.params = params
        self.lake = churn_lake(
            run.workdir / "churn" / "csv", rng, params["tables"], params["rows"],
            params["columns"],
        )
        self.handles: list = []

    def setup(self, store_dir: Path) -> None:
        self.close()
        self.matcher = create_matcher(SERVED_MATCHER)
        self.primary, self.primary_prepared = open_stores(store_dir / "primary.sketches")
        self.replica, self.replica_prepared = open_stores(store_dir / "replica.sketches")
        self.handles = [self.primary, self.primary_prepared, self.replica, self.replica_prepared]
        self.artifact = store_dir / "artifact"
        build_from_paths(self.primary, self.lake.paths, workers=BUILD_WORKERS)
        prepare_lake(self.primary, self.primary_prepared, self.matcher, workers=BUILD_WORKERS)
        publish_snapshot(self.primary, self.artifact, prepared_store=self.primary_prepared)
        pull_snapshot(self.artifact, self.replica, prepared_store=self.replica_prepared)
        self.primary_engine = LakeDiscoveryEngine(
            matcher=self.matcher, store=self.primary, prepared_store=self.primary_prepared
        )
        self.replica_engine = LakeDiscoveryEngine(
            matcher=create_matcher(SERVED_MATCHER),
            store=self.replica,
            prepared_store=self.replica_prepared,
        )
        self.replica_engine.index  # built before the first timed round

    def _full_bytes(self) -> int:
        """What a full pull of the current snapshot would fetch."""
        blobs = BlobStore(self.artifact / BLOBS_DIR)
        digests = Manifest.load(self.artifact).referenced_digests()
        return sum(blobs.size(digest) for digest in digests)

    def start(self) -> None:
        self.timings: dict[str, list[float]] = {}
        #: (measured, reference-speed) seconds per round
        self.freshness: list[tuple[float, float]] = []
        self.fractions: list[float] = []
        self.fetched: list[int] = []
        self.blobs: list[int] = []
        self.decoded: list[float] = []
        self.rounds = 0

    def has_minimum(self) -> bool:
        return self.rounds >= 1

    def step(self, slice_s: float) -> None:
        """Churn rounds for *slice_s* seconds (at least one)."""
        deadline = time.perf_counter() + slice_s
        self._round()
        while time.perf_counter() < deadline:
            self._round()

    def _round(self) -> None:
        run = self.run
        factor = run.calibrate()
        self.rounds += 1
        query, touched, removed = churn_round(
            self.lake, self.rng, self.params["changed_tables"], self.params["appended_rows"]
        )
        edited = time.perf_counter()
        try:
            build, build_s = timed(
                build_from_paths, self.primary, self.lake.paths, remove_missing=True
            )
            prep, prepare_s = timed(
                prepare_lake, self.primary, self.primary_prepared, self.matcher
            )
            _, publish_s = timed(
                publish_snapshot, self.primary, self.artifact,
                prepared_store=self.primary_prepared,
            )
            pull, pull_s = timed(
                pull_snapshot, self.artifact, self.replica,
                prepared_store=self.replica_prepared,
            )
            _, refresh_s = timed(lambda: self.replica_engine.index)
            answer = self.replica_engine.query(query, top_k=SERVED_TOP_K)
        except Exception as exc:  # counted, reported, never dropped
            run.operation(self.name, False)
            run.gate(False, f"churn round {self.rounds} raised {exc!r}")
            return
        fresh = time.perf_counter() - edited
        self.freshness.append((fresh, fresh * factor))
        expected = self.primary_engine.query(query, top_k=SERVED_TOP_K)
        same = ranking(answer) == ranking(expected)
        run.gate(same, f"replica ranked {query.name} differently from the primary")
        stale = [
            name for name in touched
            if self.replica.content_hash(name) != self.primary.content_hash(name)
        ]
        run.gate(not stale, f"replica answered from stale copies of {stale}")
        run.gate(removed not in self.replica, f"replica still holds removed {removed}")
        run.operation(self.name, same and not stale)
        self.fractions.append(pull.bytes_fetched / self._full_bytes())
        self.fetched.append(pull.bytes_fetched)
        self.blobs.append(pull.blobs_fetched)
        domains = pull.iblt_decoded + pull.iblt_fallback
        self.decoded.append(pull.iblt_decoded / domains if domains else 1.0)
        for key, seconds, count in (
            ("lake.build.sketch_ms_per_table", build_s, build.sketched),
            ("lake.build.prepare_ms_per_table", prepare_s, prep.prepared),
            ("artifacts.publish_ms", publish_s, 1),
            ("artifacts.pull_ms", pull_s, 1),
            ("lake.index.refresh_ms", refresh_s, 1),
        ):
            self.timings.setdefault(key, []).append(seconds * 1e3 / max(1, count))

    def finish(self) -> None:
        run = self.run
        timings, freshness, fractions = self.timings, self.freshness, self.fractions
        fetched, blobs, decoded, rounds = self.fetched, self.blobs, self.decoded, self.rounds
        run.metric("freshness_s", median(scaled for _, scaled in freshness), "s")
        run.metric("delta_bytes_frac", median(fractions), "ratio")
        for key, values in timings.items():
            run.layer(key, median(values), "ms")
        run.layer("artifacts.bytes_fetched", median(fetched), "bytes")
        run.layer("artifacts.blobs_fetched", median(blobs), "count")
        run.layer("artifacts.iblt_decoded_frac", median(decoded), "ratio")
        run.sizes["churn"] = {"lake": self.lake.sizes(), "rounds": rounds}
        print(
            f"churn: {rounds} edit/sync/query rounds; measured freshness "
            f"{median(raw for raw, _ in freshness):.4g} s",
            flush=True,
        )

    def close(self) -> None:
        for engine in ("primary_engine", "replica_engine"):
            if hasattr(self, engine):
                getattr(self, engine).close()
                delattr(self, engine)
        for handle in self.handles:
            handle.close()
        self.handles = []
