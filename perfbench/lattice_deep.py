"""``lattice_deep``: in-process ``FlipperMiner(db, thresholds).mine()``.

The paper's regime: a deep lattice at low-to-medium support, where
the fused-DFS ``generate`` and ``label`` stages do nearly all the work
and ingest does none.  The seed picks one of the :data:`VARIANTS` input
sets, each with a committed FP-growth reference: :data:`INPUTS`
databases of 25K rows, each drawn without replacement from one 40K-row
pool of the fixed world.  Set-up draws the rows and loads the
databases (the pool itself is the same for every seed and is built
once, before the timed set-ups); a round mines each database once
(γ = 0.25, ε = 0.1, the paper's default support profile, serial
executor).  Mining several inputs per run is what keeps the median
steady across seeds.
"""

from __future__ import annotations

import statistics
import time
from contextlib import nullcontext
from typing import Any

import inputs
import layers
import oracle
import reference
from harness import (
    Run,
    import_seconds,
    median_setup,
    self_peak_rss_mb,
    timed_rounds,
)

NAME = "lattice_deep"
POOL_ROWS = 40_000
N_ROWS = 25_000
INPUTS = 8
#: the input sets ``--seed`` can pick, each with a committed reference
VARIANTS = (1, 2, 3, 4, 5)
PROFILE = (0.01, 0.001, 0.0005, 0.0001)
GAMMA = 0.25
EPSILON = 0.1
SETUPS = 5


def thresholds() -> Any:
    from repro.core.thresholds import Thresholds

    return Thresholds(gamma=GAMMA, epsilon=EPSILON, min_support=PROFILE)


def variant(seed: int) -> int:
    """The input set ``seed`` runs."""
    return VARIANTS[(seed - 1) % len(VARIANTS)]


def _draws(pool: list[Any], number: int) -> list[list[Any]]:
    return [
        inputs.draw(pool, N_ROWS, inputs.rng(NAME, number, index))
        for index in range(INPUTS)
    ]


def _digest(rows: list[Any]) -> str:
    return inputs.digest(rows, profile=PROFILE, gamma=GAMMA, epsilon=EPSILON)


def reference_inputs(number: int) -> list[inputs.RefInput]:
    pool, taxonomy = inputs.world_pool(POOL_ROWS)
    return [
        (f"{number}/{index}", rows, taxonomy, thresholds(), _digest(rows))
        for index, rows in enumerate(_draws(pool, number))
    ]


class _Inputs:
    def __init__(self, pool: list[Any], taxonomy: Any, number: int) -> None:
        from repro.data.database import TransactionDatabase

        self.number = number
        self.rows = _draws(pool, number)
        self.databases = [
            TransactionDatabase(rows, taxonomy) for rows in self.rows
        ]
        self.nested = inputs.nested_taxonomy(taxonomy)


def _measure(
    run: Run, data: _Inputs, traced: bool
) -> tuple[list[float], dict[int, list[Any]], list[Any], dict[str, float]]:
    from repro.core.flipper import FlipperMiner
    from repro.obs.tracing import trace, trace_span

    latencies: list[float] = []
    results: dict[int, list[Any]] = {}
    spans: list[Any] = []
    work: dict[str, float] = {}
    limits = thresholds()

    def one_round() -> None:
        for index, database in enumerate(data.databases):
            scope = trace() if traced else nullcontext()
            started = time.perf_counter()
            with scope as tracer, trace_span(layers.OP):
                miner = FlipperMiner(database, limits, executor="serial")
                result = miner.mine()
            latencies.append(time.perf_counter() - started)
            if tracer is not None:
                spans.extend(tracer.roots)
            run.attempted += 1
            results.setdefault(index, []).append(result.patterns)
            layers.add_work(work, layers.work_counts(result.stats))

    timed_rounds(run.seconds, one_round)
    return latencies, results, spans, work


def _check(run: Run, data: _Inputs, results: dict[int, list[Any]]) -> None:
    tree = oracle.Tree(data.nested)
    total = 0
    for index, runs in results.items():
        first = [pattern.to_dict() for pattern in runs[0]]
        total += len(first)
        for other in runs[1:]:
            run.check(
                [p.to_dict() for p in other] == first,
                f"input {index}: repeated mines differ",
            )
        recount = oracle.Recount(
            data.rows[index],
            tree,
            gamma=GAMMA,
            epsilon=EPSILON,
            counts=oracle.min_counts(PROFILE, N_ROWS),
        )
        for error in recount.check(first):
            run.check(False, f"input {index}: recount: {error}")
        key = f"{data.number}/{index}"
        reference.check(run, NAME, key, _digest(data.rows[index]), first)
    run.note(f"{total} pattern(s) over {len(results)} input(s)")


def run(run: Run) -> None:
    pool, taxonomy = inputs.world_pool(POOL_ROWS)
    number = variant(run.seed)
    setup_s, state = median_setup(
        1 if run.trace else SETUPS,
        lambda: _Inputs(pool, taxonomy, number),
        lambda _: None,
    )
    data: _Inputs = state  # type: ignore[assignment]
    latencies, results, _, _ = _measure(run, data, traced=False)
    # read before the checks, whose recounts are the benchmark's own
    rss_mb = self_peak_rss_mb()
    _check(run, data, results)
    p50_ms = statistics.median(latencies) * 1000.0
    if not run.trace:
        run.metric("setup_s", setup_s, "s")
        run.metric("op_p50_ms", p50_ms, "ms")
        run.metric("peak_rss_mb", rss_mb, "MB")
        return
    restore = layers.install()
    try:
        traced, traced_results, spans, work = _measure(run, data, traced=True)
    finally:
        restore()
    _check(run, data, traced_results)
    values = {name: count / len(traced) for name, count in work.items()}
    values["import_s"] = import_seconds(run)
    layers.report(
        run,
        spans,
        per=len(traced),
        untraced_ms=p50_ms,
        traced_ms=statistics.median(traced) * 1000.0,
        values=values,
    )
