"""Per-layer spans recorded from outside the program.

:func:`install` wraps public functions of each layer so that every
call opens a span under the tracer :func:`repro.obs.tracing.trace`
installs; the program's own ``mine``/``cell``/``generate``/``count``/
``label``/``prune``/``update``/``retire`` spans nest inside them.
Nothing is wrapped in an untraced run, so end-to-end figures carry no
tracing cost.

:func:`layer_seconds` folds a span tree into seconds per layer, and
:func:`write_trace` stores a tree as a ``repro.trace`` v1 document
that ``repro trace FILE`` renders.
"""

from __future__ import annotations

import functools
import json
from collections.abc import Callable, Iterable
from pathlib import Path
from typing import Any

#: span name of one benchmark operation (the root of its subtree)
OP = "bench.op"

#: per-layer time metric -> the spans that measure it
TIME_SPANS: dict[str, tuple[str, ...]] = {
    "parse_s": ("bench.parse",),
    "taxonomy_load_s": ("bench.taxonomy_load",),
    "db_build_s": ("bench.db_build",),
    "index_build_s": ("bench.index_build",),
    "generate_s": ("generate",),
    "label_s": ("label",),
    "count_s": ("count",),
    "prune_s": ("prune",),
    "serialize_s": ("bench.serialize",),
    "append_s": ("bench.append",),
    "refresh_s": ("bench.refresh",),
    "retire_s": ("bench.retire",),
    "apply_result_s": ("bench.apply_result",),
    "store_save_s": ("bench.store_save",),
    "query_s": ("bench.query",),
}


def _targets() -> list[tuple[Any, str, str]]:
    """``(owner, attribute, span)`` of every wrapped public function."""
    from repro import cli
    from repro.core.counting import DeltaCounter
    from repro.core.flipper import FlipperMiner
    from repro.core.patterns import FlippingPattern
    from repro.data import io as data_io
    from repro.data.database import TransactionDatabase
    from repro.data.shards import ShardedTransactionStore
    from repro.serve.query import QueryEngine
    from repro.serve.store import PatternStore
    from repro.taxonomy import io as taxonomy_io

    return [
        (data_io, "load_transactions", "bench.parse"),
        (taxonomy_io, "load_taxonomy", "bench.taxonomy_load"),
        (TransactionDatabase, "__init__", "bench.db_build"),
        (FlipperMiner, "__init__", "bench.index_build"),
        (FlippingPattern, "to_dict", "bench.serialize"),
        (ShardedTransactionStore, "append_batch", "bench.append"),
        (DeltaCounter, "refresh", "bench.refresh"),
        (DeltaCounter, "retire", "bench.retire"),
        (ShardedTransactionStore, "retire_shards", "bench.retire"),
        (PatternStore, "apply_result", "bench.apply_result"),
        (PatternStore, "save", "bench.store_save"),
        (PatternStore, "events_since", "bench.events"),
        (QueryEngine, "execute", "bench.query"),
        # the CLI binds these two names at import time
        (cli, "load_transactions", "bench.parse"),
        (cli, "load_taxonomy", "bench.taxonomy_load"),
    ]


def _wrap(function: Callable[..., Any], name: str) -> Callable[..., Any]:
    from repro.obs.tracing import trace_span

    @functools.wraps(function)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        with trace_span(name):
            return function(*args, **kwargs)

    return wrapper


def install() -> Callable[[], None]:
    """Wrap every layer entry point; returns the function that
    restores the originals."""
    saved = []
    for owner, attribute, name in _targets():
        original = (
            owner.__dict__[attribute]
            if isinstance(owner, type)
            else getattr(owner, attribute)
        )
        saved.append((owner, attribute, original))
        setattr(owner, attribute, _wrap(original, name))

    def restore() -> None:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)

    return restore


def outermost(spans: Iterable[Any], names: tuple[str, ...]) -> float:
    """Wall seconds of the spans called ``names`` that have no
    ancestor of those names (nested calls count once)."""
    total = 0.0
    for span in spans:
        if span.name in names:
            total += span.wall_seconds
        else:
            total += outermost(span.children, names)
    return total


def layer_seconds(spans: list[Any]) -> dict[str, float]:
    """Seconds spent in each layer across ``spans``."""
    return {
        metric: outermost(spans, names) for metric, names in TIME_SPANS.items()
    }


def unattributed(ops: list[Any]) -> float:
    """Share of the operations' time covered by no span below them."""
    total = sum(op.wall_seconds for op in ops)
    covered = sum(child.wall_seconds for op in ops for child in op.children)
    return (total - covered) / total if total > 0 else 0.0


def write_trace(spans: list[Any], path: Path) -> None:
    from repro.obs.tracing import Tracer

    tracer = Tracer()
    tracer.roots = spans
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(tracer.to_dict()) + "\n", encoding="utf-8")


def read_trace(path: Path) -> list[Any]:
    from repro.obs.tracing import tracer_from_dict

    return tracer_from_dict(json.loads(path.read_text(encoding="utf-8"))).roots


#: every per-layer metric a traced run prints, with its unit; a layer
#: the workload does not run reads 0
PER_LAYER: tuple[tuple[str, str], ...] = (
    ("import_s", "s"),
    ("parse_s", "s"),
    ("taxonomy_load_s", "s"),
    ("db_build_s", "s"),
    ("index_build_s", "s"),
    ("generate_s", "s"),
    ("label_s", "s"),
    ("count_s", "s"),
    ("prune_s", "s"),
    ("candidates", "count"),
    ("counted", "count"),
    ("frequent", "count"),
    ("labeled", "count"),
    ("stored_entries", "count"),
    ("count_yield", "ratio"),
    ("serialize_s", "s"),
    ("append_s", "s"),
    ("refresh_s", "s"),
    ("retire_s", "s"),
    ("pool_rebuilds", "count"),
    ("pool_image_admits", "count"),
    ("delta_cache_hit_ratio", "ratio"),
    ("apply_result_s", "s"),
    ("store_save_s", "s"),
    ("events_emitted", "count"),
    ("query_s", "s"),
    ("query_cache_hit_ratio", "ratio"),
    ("response_cache_hit_ratio", "ratio"),
    ("server_read_p50_ms", "ms"),
    ("read_overlap_p50_ms", "ms"),
    ("update_queue_depth_max", "count"),
    ("trace_overhead_frac", "ratio"),
    ("unattributed_frac", "ratio"),
)

#: MiningStats work counts, summed over the cells of a run
WORK = ("candidates", "counted", "frequent", "labeled", "stored_entries")


def work_counts(stats: Any) -> dict[str, int]:
    return {
        "candidates": stats.total_candidates,
        "counted": stats.total_counted,
        "frequent": stats.total_frequent,
        "labeled": sum(cell.labeled for cell in stats.cells),
        "stored_entries": stats.stored_entries,
    }


def add_work(total: dict[str, float], counts: dict[str, int]) -> None:
    for name in WORK:
        total[name] = total.get(name, 0) + counts[name]


def report(
    run: Any,
    spans: list[Any],
    *,
    per: int,
    ops: list[Any] | None = None,
    untraced_ms: float,
    traced_ms: float,
    values: dict[str, float],
) -> None:
    """Set every per-layer metric on ``run``, write the span tree and
    print the per-layer table.

    Layer times are seconds per operation (``per`` operations in
    ``spans``); ``values`` adds or overrides the workload's own figures
    (counts are per operation too).  ``unattributed_frac`` is taken
    over ``ops`` (default: the ``bench.op`` roots of ``spans``).
    Operation latency with and without tracing gives
    ``trace_overhead_frac``.
    """
    figures = {name: 0.0 for name, _unit in PER_LAYER}
    for name, seconds in layer_seconds(spans).items():
        figures[name] = seconds / per
    figures.update(values)
    if figures.get("counted"):
        figures["count_yield"] = figures["frequent"] / figures["counted"]
    if ops is None:
        ops = [span for span in spans if span.name == OP]
    figures["unattributed_frac"] = unattributed(ops)
    figures["trace_overhead_frac"] = traced_ms / untraced_ms - 1.0
    path = run.trace_path()
    write_trace(spans, path)
    run.note(f"span tree written to {path} (render: repro trace FILE)")
    for name, unit in PER_LAYER:
        run.metric(name, figures[name], unit)
        run.note(f"  {name:<26} {figures[name]:>14.6g} {unit}")
