"""``window_slide``: one sliding-window step through publish per operation.

An ``IncrementalMiner(window_shards=4)`` runs over a columnar
``ShardedTransactionStore`` in the run's scratch directory.  The
stream alternates segments of two fixed worlds (the generator's
default seed and the next one), so supports drift and flips start and
stop as the window slides.  One operation is ``update(segment)`` —
append the shard, retire the oldest, refresh the ``DeltaCounter``,
mine through the staged (non-DFS) partitioned path — then
``PatternStore.apply_result`` and ``events_since``.
"""

from __future__ import annotations

import shutil
import statistics
import time
from contextlib import nullcontext
from typing import Any

import inputs
import layers
import oracle
from harness import (
    Run,
    import_seconds,
    median_setup,
    self_peak_rss_mb,
    timed_rounds,
)

NAME = "window_slide"
SEGMENT_ROWS = 2_500
WINDOW = 4
#: rows per world pool; segments are drawn from it without replacement
POOL_ROWS = 3 * SEGMENT_ROWS
#: 4x the paper's default profile, resolved once against a full window
#: (absolute supports keep every slide on the windowed path)
PROFILE = (0.04, 0.004, 0.002, 0.0004)
GAMMA = 0.15
EPSILON = 0.1
SETUPS = 3
#: slides per round; even, so every segment keeps its world
CYCLE = 8


class _Stream:
    """Segment ``i`` comes from world ``i % 2`` and repeats every
    :data:`CYCLE` segments, so a round of :data:`CYCLE` slides does the
    same work wherever it starts."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.pools = []
        for world in (0, 1):
            rows, self.taxonomy = inputs.world_pool(POOL_ROWS, world)
            self.pools.append(rows)

    def segment(self, index: int) -> list[Any]:
        stream = inputs.rng(NAME, self.seed, index % CYCLE)
        return inputs.draw(self.pools[index % 2], SEGMENT_ROWS, stream)


class _State:
    def __init__(self, run: Run, index: int) -> None:
        from repro.core.thresholds import Thresholds
        from repro.data.database import TransactionDatabase
        from repro.data.shards import ShardedTransactionStore
        from repro.engine.incremental import IncrementalMiner
        from repro.serve.store import PatternStore

        self.stream = _Stream(run.seed)
        self.counts = oracle.min_counts(PROFILE, WINDOW * SEGMENT_ROWS)
        self.thresholds = Thresholds(
            gamma=GAMMA, epsilon=EPSILON, min_support=self.counts
        )
        self.segments = [self.stream.segment(i) for i in range(WINDOW)]
        self.dir = run.workdir(f"store-{index}")
        rows = [row for segment in self.segments for row in segment]
        store = ShardedTransactionStore.partition_database(
            TransactionDatabase(rows, self.stream.taxonomy), self.dir, WINDOW
        )
        self.miner = IncrementalMiner(
            store, self.thresholds, window_shards=WINDOW
        )
        initial = self.miner.mine()
        self.patterns = PatternStore.build(initial)
        self.initial = [p.to_dict() for p in initial.patterns]


class _Slide:
    """What one operation saw, kept for the checks."""

    def __init__(
        self, result: Any, events: list[Any], truncated: bool
    ) -> None:
        self.result = result
        self.events = events
        self.truncated = truncated


def _measure(
    run: Run, state: _State, traced: bool
) -> tuple[list[float], list[_Slide], list[Any]]:
    from repro.obs.tracing import trace, trace_span

    latencies: list[float] = []
    slides: list[_Slide] = []
    spans: list[Any] = []
    miner, store = state.miner, state.patterns

    def slide() -> None:
        segment = state.stream.segment(len(state.segments))
        state.segments.append(segment)
        scope = trace() if traced else nullcontext()
        with scope as tracer, trace_span(layers.OP):
            started = time.perf_counter()
            result = miner.update(segment)
            version = store.version
            store.apply_result(result)
            events, truncated = store.events_since(version)
            finished = time.perf_counter()
        if tracer is not None:
            spans.extend(tracer.roots)
        run.attempted += 1
        latencies.append(finished - started)
        slides.append(_Slide(result, events, truncated))

    def one_round() -> None:
        for _ in range(CYCLE):
            slide()

    timed_rounds(run.seconds, one_round)
    return latencies, slides, spans


def _check(run: Run, state: _State, slides: list[_Slide]) -> None:
    """Every slide equals a cold mine of the surviving rows, passes the
    recount checker and emitted exactly the diff of the pattern sets."""
    from repro.core.flipper import FlipperMiner
    from repro.data.database import TransactionDatabase

    tree = oracle.Tree(inputs.nested_taxonomy(state.stream.taxonomy))
    first = len(state.segments) - len(slides)
    previous = state.initial
    empty = 0
    # windows of the same segments hold the same rows: check each once
    wanted: dict[tuple[int, ...], list[dict[str, Any]]] = {}
    for offset, slide in enumerate(slides):
        step = first + offset
        survivors = state.segments[step - WINDOW + 1 : step + 1]
        got = [p.to_dict() for p in slide.result.patterns]
        info = slide.result.config.get("incremental", {})
        run.check(
            info.get("mode") == "windowed",
            f"slide {step}: mode {info.get('mode')!r}, not windowed",
        )
        key = tuple(i % CYCLE for i in range(step - WINDOW + 1, step + 1))
        if key not in wanted:
            rows = [row for segment in survivors for row in segment]
            cold = FlipperMiner(
                TransactionDatabase(rows, state.stream.taxonomy),
                state.thresholds,
                executor="serial",
            ).mine()
            wanted[key] = [p.to_dict() for p in cold.patterns]
            recount = oracle.Recount(
                rows, tree, gamma=GAMMA, epsilon=EPSILON, counts=state.counts
            )
            for error in recount.check(got):
                run.check(False, f"slide {step}: recount: {error}")
        for error in oracle.compare(got, wanted[key], f"slide {step}"):
            run.check(False, f"cold mine: {error}")
        emitted = {
            (e.type, e.pattern_id, e.signature, e.previous_signature)
            for e in slide.events
        }
        run.check(
            not slide.truncated
            and emitted == oracle.expected_events(previous, got),
            f"slide {step}: events {sorted(emitted)} differ from the "
            f"pattern diff {sorted(oracle.expected_events(previous, got))}",
        )
        empty += not got
        previous = got
    events = sum(len(s.events) for s in slides)
    run.note(
        f"{len(slides)} slide(s), {events} event(s), {empty} window(s) "
        "without flips; all checked"
    )


def run(run: Run) -> None:
    counter = iter(range(SETUPS + 1))

    def setup() -> _State:
        return _State(run, next(counter))

    def teardown(state: Any) -> None:
        shutil.rmtree(state.dir)

    setup_s, kept = median_setup(1 if run.trace else SETUPS, setup, teardown)
    state: _State = kept  # type: ignore[assignment]
    latencies, slides, _ = _measure(run, state, False)
    # read before the checks, whose cold mines and recounts are the
    # benchmark's own
    rss_mb = self_peak_rss_mb()
    _check(run, state, slides)
    p50_ms = statistics.median(latencies) * 1000.0
    if not run.trace:
        run.metric("setup_s", setup_s, "s")
        run.metric("op_p50_ms", p50_ms, "ms")
        run.metric("peak_rss_mb", rss_mb, "MB")
        return
    teardown(state)
    state = setup()
    restore = layers.install()
    try:
        traced, traced_slides, spans = _measure(run, state, True)
    finally:
        restore()
    _check(run, state, traced_slides)
    values: dict[str, float] = {}
    hits = misses = 0
    for slide in traced_slides:
        layers.add_work(values, layers.work_counts(slide.result.stats))
        info = slide.result.config["incremental"]
        hits += info["cache_hits"]
        misses += info["cache_misses"]
    n = len(traced_slides)
    values = {name: count / n for name, count in values.items()}
    first = traced_slides[0].result.config["incremental"]
    last = traced_slides[-1].result.config["incremental"]
    for name in ("pool_rebuilds", "pool_image_admits"):
        values[name] = (last[name] - first[name]) / max(n - 1, 1)
    values["delta_cache_hit_ratio"] = hits / max(hits + misses, 1)
    values["events_emitted"] = sum(len(s.events) for s in traced_slides) / n
    values["import_s"] = import_seconds(run)
    layers.report(
        run,
        spans,
        per=n,
        untraced_ms=p50_ms,
        traced_ms=statistics.median(traced) * 1000.0,
        values=values,
    )
