"""``cold_mine``: one fresh ``repro mine --json`` process per operation.

The analyst's batch path, timed from exec to parsed stdout: import,
basket parse, taxonomy load, database and index build, the mine and
the JSON output.  The input is 100K synthetic rows at the paper's
default profile (θ = 1%, 0.1%, 0.05%, 0.01%, γ = 0.3, ε = 0.1).  The
seed picks one of :data:`VARIANTS`, generator seeds whose 100K rows hold
a flip at γ = 0.3 (most worlds hold none), and each has a committed
FP-growth reference, so that a lost pattern fails every run.
"""

from __future__ import annotations

import json
import shutil
import statistics
import time
from pathlib import Path
from typing import Any

import inputs
import layers
import oracle
import reference
from harness import (
    Run,
    import_seconds,
    median_setup,
    peak_rss_mb,
    program_argv,
    program_env,
    timed_rounds,
)

NAME = "cold_mine"
N_ROWS = 100_000
PROFILE = (0.01, 0.001, 0.0005, 0.0001)
GAMMA = 0.3
EPSILON = 0.1
#: the generator seed of each input ``--seed`` can pick
VARIANTS = (1, 20111234, 20111236, 20111237)
SETUPS = 3
#: longest one mine may take before its process group is killed
OP_TIMEOUT = 150.0


def thresholds() -> Any:
    from repro.core.thresholds import Thresholds

    return Thresholds(gamma=GAMMA, epsilon=EPSILON, min_support=PROFILE)


def variant(seed: int) -> int:
    """The generator seed of the input ``seed`` runs."""
    return VARIANTS[(seed - 1) % len(VARIANTS)]


def reference_inputs(world: int) -> list[inputs.RefInput]:
    rows, taxonomy = inputs.synthetic(N_ROWS, world)
    return [(str(world), rows, taxonomy, thresholds(), _digest(rows))]


def _digest(rows: list[Any]) -> str:
    return inputs.digest(rows, profile=PROFILE, gamma=GAMMA, epsilon=EPSILON)


class _Input:
    def __init__(self, run: Run, index: int) -> None:
        from repro.data.io import save_transactions
        from repro.taxonomy.io import save_taxonomy

        self.world = variant(run.seed)
        self.rows, taxonomy = inputs.synthetic(N_ROWS, self.world)
        self.nested = inputs.nested_taxonomy(taxonomy)
        self.dir = run.workdir(f"input-{index}")
        self.basket = self.dir / "rows.basket"
        self.taxonomy = self.dir / "taxonomy.json"
        save_transactions(self.rows, self.basket)
        save_taxonomy(taxonomy, self.taxonomy)

    def args(self) -> list[str]:
        return [
            "mine",
            "--transactions",
            str(self.basket),
            "--taxonomy",
            str(self.taxonomy),
            "--gamma",
            str(GAMMA),
            "--epsilon",
            str(EPSILON),
            "--min-support",
            ",".join(str(v) for v in PROFILE),
            "--executor",
            "serial",
            "--json",
        ]


def _mine(
    run: Run, data: _Input, index: int, trace_out: Path | None
) -> tuple[float, list[dict[str, Any]] | None, Any, float]:
    """One operation: ``(seconds, patterns or None if it failed, reaped
    child, peak RSS MB)``."""
    stdout = run.dir / f"mine-{index}.out"
    stderr = run.dir / f"mine-{index}.err"
    peak_file = run.dir / f"mine-{index}.rss"
    started = time.perf_counter()
    proc = run.children.spawn(
        program_argv(data.args(), trace_out),
        env=program_env(run.tmp, peak_file),
        stdout=stdout,
        stderr=stderr,
    )
    reaped = run.children.wait(proc, OP_TIMEOUT)
    patterns = None
    if reaped.returncode == 0:
        patterns = json.loads(stdout.read_bytes())["patterns"]
    seconds = time.perf_counter() - started
    run.attempted += 1
    if patterns is None:
        log = stderr.read_text(errors="replace")[-2000:]
        run.note(f"mine exited {reaped.returncode}: {log}")
        run.failed += 1
        return seconds, None, reaped, 0.0
    rss_mb = peak_rss_mb(peak_file)
    for path in (stdout, stderr, peak_file):
        path.unlink()
    return seconds, patterns, reaped, rss_mb


class _Pass:
    """One measured pass: what every operation took and answered."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.results: list[list[dict[str, Any]]] = []
        self.rss_mb: list[float] = []
        #: traced passes: one ``bench.op`` span per mine, and the
        #: mines' summed work counts
        self.spans: list[Any] = []
        self.work: dict[str, float] = {}


def _measure(run: Run, data: _Input, traced: bool) -> _Pass:
    from repro.obs.tracing import Span

    result = _Pass()

    def one_round() -> None:
        index = run.attempted
        trace_out = run.dir / f"trace-{index}.json" if traced else None
        seconds, patterns, reaped, rss_mb = _mine(run, data, index, trace_out)
        if patterns is None:
            return
        result.latencies.append(seconds)
        result.results.append(patterns)
        result.rss_mb.append(rss_mb)
        if trace_out is not None:
            result.spans.append(
                Span(
                    layers.OP,
                    wall_seconds=seconds,
                    cpu_seconds=reaped.cpu_seconds,
                    children=layers.read_trace(trace_out),
                )
            )
            work = Path(f"{trace_out}.work.json").read_text(encoding="utf-8")
            counts = json.loads(work)
            for name in layers.WORK:
                result.work[name] = result.work.get(name, 0) + counts[name]

    timed_rounds(run.seconds, one_round)
    return result


def _check(
    run: Run, data: _Input, results: list[list[dict[str, Any]]]
) -> None:
    first = results[0]
    for index, patterns in enumerate(results[1:], start=1):
        run.check(
            oracle.compare(patterns, first, "") == [],
            f"mine {index} differs from mine 0",
        )
    recount = oracle.Recount(
        data.rows,
        oracle.Tree(data.nested),
        gamma=GAMMA,
        epsilon=EPSILON,
        counts=oracle.min_counts(PROFILE, N_ROWS),
    )
    for error in recount.check(first):
        run.check(False, f"recount: {error}")
    reference.check(run, NAME, str(data.world), _digest(data.rows), first)
    run.note(f"{len(first)} pattern(s); {len(results)} mine(s) agree")


def run(run: Run) -> None:
    counter = iter(range(SETUPS))

    def setup() -> _Input:
        return _Input(run, next(counter))

    def teardown(data: Any) -> None:
        shutil.rmtree(data.dir)

    setup_s, state = median_setup(1 if run.trace else SETUPS, setup, teardown)
    data: _Input = state  # type: ignore[assignment]
    plain = _measure(run, data, traced=False)
    _check(run, data, plain.results)
    p50_ms = statistics.median(plain.latencies) * 1000.0
    if not run.trace:
        run.metric("setup_s", setup_s, "s")
        run.metric("op_p50_ms", p50_ms, "ms")
        run.metric("peak_rss_mb", statistics.median(plain.rss_mb), "MB")
        return
    traced = _measure(run, data, traced=True)
    _check(run, data, traced.results)
    n = len(traced.latencies)
    values = {name: count / n for name, count in traced.work.items()}
    values["import_s"] = import_seconds(run)
    layers.report(
        run,
        traced.spans,
        per=n,
        untraced_ms=p50_ms,
        traced_ms=statistics.median(traced.latencies) * 1000.0,
        values=values,
    )
