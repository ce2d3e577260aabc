"""``serve_mixed``: pattern reads over HTTP while updates publish.

Set-up builds a columnar shard store of seeded rows and starts
``repro serve --async --store DIR`` as a child process on a free port
the benchmark picks (``--port 0`` exits with ``server not started``,
see README.md).  Then, for the run's length:

* the main thread is a **closed-loop reader** on one keep-alive
  connection: it sends ``GET /v1/patterns`` with filters drawn from
  the store's taxonomy and patterns.  A share :data:`REPEAT_SHARE`
  (25%) of them repeat one of a hot set of :data:`HOT_QUERIES`
  queries, which the query and response caches can answer; the rest
  are freshly drawn and distinct: each carries a unique ``limit``
  above any pattern count, so no cache can answer it.  One read is one
  operation;
* a second thread is an **open-loop writer** on its own connection: it
  posts :data:`DELTA_ROWS` rows from the same distribution to
  ``POST /v1/update`` every :data:`UPDATE_INTERVAL` seconds, timing
  each update from when it fell due, then reads the full pattern list
  at the version the update published (the oracle's ground truth).

Every read answer must equal the benchmark's own filter over the full
list at the version the answer names; at the end the served patterns
must equal a cold mine of the store's rows and pass the recount
checker.
"""

from __future__ import annotations

import gc
import http.client
import json
import os
import shutil
import socket
import statistics
import threading
import time
from pathlib import Path
from typing import Any
from urllib.parse import parse_qsl, urlencode

import inputs
import layers
import oracle
from harness import (
    Run,
    import_seconds,
    median_setup,
    program_argv,
    program_env,
    vmhwm_mb,
)

NAME = "serve_mixed"
POOL_ROWS = 20_000
#: the initial rows are drawn from the first INITIAL_POOL rows of the
#: pool, the deltas from the rest
INITIAL_POOL = 6_000
INITIAL_ROWS = 5_000
ROWS_PER_SHARD = 1_250
DELTA_ROWS = 250
UPDATE_INTERVAL = 2.0
#: 6x the paper's default profile, resolved once against the initial
#: rows (absolute supports keep updates on the incremental path): the
#: store holds about 20 patterns from the start, and an update takes
#: well under UPDATE_INTERVAL, so the writer keeps its schedule
PROFILE = (0.06, 0.006, 0.003, 0.0006)
GAMMA = 0.15
EPSILON = 0.1
HOT_QUERIES = 20
#: share of reads drawn from the hot set
REPEAT_SHARE = 0.25
SETUPS = 3
#: longest the server may take to answer its first health check
START_TIMEOUT = 120.0
#: reads of the traced pass replayed in-process against the query layer
QUERY_SAMPLE = 5_000
#: the traced reader samples /v1/healthz every this many reads
HEALTH_EVERY = 50


def _free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind(("127.0.0.1", 0))
        return int(sock.getsockname()[1])


class _Server:
    """One store, one server child, and the rows behind them."""

    def __init__(self, run: Run, index: int, traced: bool) -> None:
        from repro.data.shards import ShardedTransactionStore
        from repro.taxonomy.io import save_taxonomy

        self.run = run
        pool, self.taxonomy = inputs.world_pool(POOL_ROWS)
        stream = inputs.rng(NAME, run.seed)
        self.rows = inputs.draw(pool[:INITIAL_POOL], INITIAL_ROWS, stream)
        self.spare = inputs.draw(
            pool[INITIAL_POOL:], POOL_ROWS - INITIAL_POOL, stream
        )
        self.counts = oracle.min_counts(PROFILE, INITIAL_ROWS)
        self.dir = run.workdir(f"serve-{index}")
        store_dir = self.dir / "store"
        taxonomy_path = self.dir / "taxonomy.json"
        ShardedTransactionStore.ingest(
            self.rows, self.taxonomy, store_dir, rows_per_shard=ROWS_PER_SHARD
        )
        save_taxonomy(self.taxonomy, taxonomy_path)
        self.port = _free_port()
        args = [
            "serve",
            "--async",
            "--store",
            str(store_dir),
            "--taxonomy",
            str(taxonomy_path),
            "--gamma",
            str(GAMMA),
            "--epsilon",
            str(EPSILON),
            "--min-support",
            ",".join(str(c) for c in self.counts),
            "--port",
            str(self.port),
        ]
        self.trace_out = self.dir / "server-trace.json" if traced else None
        self.log = self.dir / "server.log"
        self.proc = run.children.spawn(
            program_argv(args, self.trace_out),
            env=program_env(run.tmp),
            stdout=self.log,
            stderr=self.log,
        )
        self.maxrss_mb = 0.0
        self._wait_healthy()

    def _wait_healthy(self) -> None:
        deadline = time.monotonic() + START_TIMEOUT
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                break
            try:
                status, body = self.get("/v1/healthz")
            except OSError:
                time.sleep(0.02)
                continue
            if status == 200 and json.loads(body)["status"] == "ok":
                return
            time.sleep(0.02)
        raise RuntimeError(
            "server did not become healthy: "
            + self.log.read_text(errors="replace")[-2000:]
        )

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)

    def get(self, target: str) -> tuple[int, bytes]:
        conn = self.connect()
        try:
            conn.request("GET", target)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def stop(self) -> None:
        # read the peak before SIGTERM: the server does not always get
        # to exit cleanly (README, "Program faults met")
        self.maxrss_mb = vmhwm_mb(self.proc.pid)
        reaped = self.run.children.terminate(self.proc)
        if reaped.returncode != 0:
            self.run.note(
                f"server exited {reaped.returncode} after SIGTERM: "
                + self.log.read_text(errors="replace")[-600:]
            )

    def remove(self) -> None:
        self.stop()
        shutil.rmtree(self.dir)


class _Queries:
    """The read mix: hot repeats and fresh distinct queries."""

    def __init__(self, seed: int, taxonomy: Any, patterns: list[Any]) -> None:
        self.rng = inputs.rng(NAME, seed, "queries")
        tree = oracle.Tree(inputs.nested_taxonomy(taxonomy))
        levels = tree.level.items()
        self.leaves = sorted(n for n, lvl in levels if lvl == tree.height)
        self.nodes = sorted(n for n, lvl in levels if lvl < tree.height)
        self.pattern_items = sorted({i for p in patterns for i in p["items"]})
        # the generalizations above the leaves
        names = [link["names"] for p in patterns for link in p["chain"][:-1]]
        self.pattern_nodes = sorted({n for group in names for n in group})
        self.hot = [self._draw() for _ in range(HOT_QUERIES)]
        self.fresh = 0

    def _filter(self) -> dict[str, str]:
        rng = self.rng
        kind = rng.randrange(5)
        if kind == 0:
            items = self.pattern_items if rng.random() < 0.5 else self.leaves
            return {"items": rng.choice(items or self.leaves)}
        if kind == 1:
            nodes = self.pattern_nodes if rng.random() < 0.5 else self.nodes
            return {"under": rng.choice(nodes or self.nodes)}
        if kind == 2:
            return {"signature": rng.choice(["+-+-", "-+-+"])}
        if kind == 3:
            low = round(rng.uniform(0.0, 0.4), 3)
            return {"min_corr": str(low), "max_corr": str(round(low + 0.3, 3))}
        return {"min_support": str(rng.randrange(4, 60))}

    def _draw(self) -> dict[str, str]:
        params = self._filter()
        if self.rng.random() < 0.3:
            params.update(self._filter())
        if self.rng.random() < 0.3:
            params["sort"] = "support"
        if self.rng.random() < 0.3:
            params["order"] = "asc"
        if self.rng.random() < 0.3:
            params["limit"] = str(self.rng.randrange(1, 6))
        return params

    def next(self) -> str:
        if self.rng.random() < REPEAT_SHARE:
            params = self.rng.choice(self.hot)
        else:
            params = self._draw()
            params["limit"] = str(1_000_000 + self.fresh)
            self.fresh += 1
        return "/v1/patterns?" + urlencode(sorted(params.items()))


class _Writer(threading.Thread):
    """Open-loop updates plus the full pattern list at each version."""

    def __init__(
        self, server: _Server, started: float, seconds: float
    ) -> None:
        super().__init__(name="perfbench-writer")
        self.server = server
        self.started = started
        #: updates fall due at the middle of each whole interval of the
        #: run, so every run of one length posts the same number
        self.updates = int(seconds / UPDATE_INTERVAL)
        self.stop_event = threading.Event()
        #: (due, sent, done) of each update
        self.timings: list[tuple[float, float, float]] = []
        self.applied: list[list[Any]] = []
        self.versions: dict[int, dict[str, Any]] = {}
        self.errors: list[str] = []
        self.failed = 0

    def run(self) -> None:
        try:
            self._loop()
        except Exception as exc:  # reported by the main thread
            self.errors.append(f"writer stopped: {exc!r}")

    def _loop(self) -> None:
        conn = self.server.connect()
        try:
            spare = self.server.spare
            updates = min(self.updates, len(spare) // DELTA_ROWS)
            index = 0
            while index < updates:
                due = self.started + (index + 0.5) * UPDATE_INTERVAL
                if self.stop_event.wait(max(0.0, due - time.perf_counter())):
                    return
                delta = spare[index * DELTA_ROWS : (index + 1) * DELTA_ROWS]
                rows = [list(row) for row in delta]
                body = json.dumps({"transactions": rows}).encode("utf-8")
                headers = {"Content-Type": "application/json"}
                sent = time.perf_counter()
                conn.request("POST", "/v1/update", body, headers)
                response = conn.getresponse()
                payload = json.loads(response.read())
                done = time.perf_counter()
                index += 1
                if response.status != 200:
                    self.failed += 1
                    self.errors.append(f"update {index}: {payload}")
                    continue
                self.timings.append((due, sent, done))
                self.applied.append(delta)
                self._fetch_full(conn, payload["store_version"])
        finally:
            conn.close()

    def _fetch_full(
        self, conn: http.client.HTTPConnection, version: int
    ) -> None:
        conn.request("GET", "/v1/patterns")
        response = conn.getresponse()
        full = json.loads(response.read())
        if full["store_version"] != version:
            self.errors.append(
                f"update published version {version} but the store "
                f"answered at {full['store_version']}"
            )
        self.versions[full["store_version"]] = {
            p["id"]: p for p in full["patterns"]
        }


def _pin_together(server: _Server) -> set[int]:
    """Run the reader and the server on one CPU while the reads run.

    Each request then hands the CPU from one process to the other
    instead of waking an idle CPU; on a shared virtual machine that
    wake-up latency changes from run to run (measured, one seed run
    three times: 637 to 959 reads/s on two CPUs, 1088 to 1250 on one).
    Returns the benchmark's previous CPU set.
    """
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(server.proc.pid, {cpus[0]})
    os.sched_setaffinity(0, {cpus[0]})
    return set(cpus)


class _Pass:
    """One measured pass: reads, updates and what they answered."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        #: every read target, in order
        self.targets: list[str] = []
        self.intervals: list[tuple[float, float]] = []
        self.answers: dict[str, set[bytes]] = {}
        self.writer: _Writer | None = None
        self.elapsed = 0.0
        self.queue_depth_max = 0


def _measure(run: Run, server: _Server, traced: bool) -> _Pass:
    _, body = server.get("/v1/patterns")
    full = json.loads(body)
    versions = {full["store_version"]: {p["id"]: p for p in full["patterns"]}}
    queries = _Queries(run.seed, server.taxonomy, full["patterns"])
    result = _Pass()
    conn = server.connect()
    pinned = _pin_together(server)
    # the client's own collector pauses would read as server latency
    gc.collect()
    gc.disable()
    started = time.perf_counter()
    writer = _Writer(server, started, run.seconds)
    writer.versions.update(versions)
    result.writer = writer
    try:
        writer.start()
        deadline = started + run.seconds
        while True:
            target = queries.next()
            sent = time.perf_counter()
            conn.request("GET", target)
            response = conn.getresponse()
            payload = response.read()
            done = time.perf_counter()
            run.attempted += 1
            if response.status != 200:
                run.failed += 1
                run.note(f"read {target}: {response.status} {payload[:200]!r}")
            else:
                result.latencies.append(done - sent)
                result.targets.append(target)
                result.intervals.append((sent, done))
                result.answers.setdefault(target, set()).add(payload)
            if traced and run.attempted % HEALTH_EVERY == 0:
                conn.request("GET", "/v1/healthz")
                health = json.loads(conn.getresponse().read())
                result.queue_depth_max = max(
                    result.queue_depth_max, health["queue_depth"]
                )
            if done >= deadline:
                break
        result.elapsed = time.perf_counter() - started
    finally:
        gc.enable()
        os.sched_setaffinity(0, pinned)
        writer.stop_event.set()
        if writer.is_alive():
            writer.join(timeout=120)
        conn.close()
    if writer.is_alive():
        raise RuntimeError("the writer did not stop")
    return result


def _check_reads(run: Run, result: _Pass) -> None:
    writer = result.writer
    assert writer is not None
    for error in writer.errors:
        run.check(False, error)
    # a failed update counts as one more failed operation
    run.failed += writer.failed
    run.attempted += writer.failed
    versions = writer.versions
    checked = 0
    for target, bodies in result.answers.items():
        params = dict(parse_qsl(target.partition("?")[2]))
        for body in bodies:
            answer = json.loads(body)
            version = answer["store_version"]
            full = versions.get(version)
            if full is None:
                run.check(False, f"{target}: unknown store version {version}")
                continue
            total, ids = oracle.filter_patterns(full, params)
            got = [p["id"] for p in answer["patterns"]]
            run.check(
                answer["total"] == total and got == ids,
                f"{target} at v{version}: got {answer['total']} {got}, "
                f"expected {total} {ids}",
            )
            run.check(
                all(p == full[p["id"]] for p in answer["patterns"]),
                f"{target} at v{version}: a pattern differs from the list",
            )
            checked += 1
    run.note(
        f"{len(result.latencies)} read(s), {checked} distinct answer(s) over "
        f"{len(versions)} version(s) checked; {len(writer.timings)} update(s)"
    )


def _check_final(run: Run, server: _Server, result: _Pass) -> None:
    from repro.core.flipper import FlipperMiner
    from repro.core.thresholds import Thresholds
    from repro.data.database import TransactionDatabase

    assert result.writer is not None
    added = [row for delta in result.writer.applied for row in delta]
    rows = server.rows + added
    _, body = server.get("/v1/patterns")
    served = json.loads(body)["patterns"]
    cold = FlipperMiner(
        TransactionDatabase(rows, server.taxonomy),
        Thresholds(gamma=GAMMA, epsilon=EPSILON, min_support=server.counts),
        executor="serial",
    ).mine()
    wanted = [p.to_dict() for p in cold.patterns]
    for error in oracle.compare(served, wanted, "served vs cold mine"):
        run.check(False, error)
    recount = oracle.Recount(
        rows,
        oracle.Tree(inputs.nested_taxonomy(server.taxonomy)),
        gamma=GAMMA,
        epsilon=EPSILON,
        counts=server.counts,
    )
    for error in recount.check(served):
        run.check(False, f"recount: {error}")
    run.note(f"final store: {len(served)} pattern(s) over {len(rows)} rows")


def _metrics(server: _Server) -> dict[str, Any]:
    _, body = server.get("/v1/metrics?format=json")
    return {m["name"]: m for m in json.loads(body)["metrics"]}


def _sample(metrics: dict[str, Any], name: str, **labels: str) -> float:
    metric = metrics.get(name)
    if metric is None:
        return 0.0
    return sum(
        s["value"]
        for s in metric["samples"]
        if all(s["labels"].get(k) == v for k, v in labels.items())
    )


def _histogram_p50_ms(metrics: dict[str, Any], route: str) -> float:
    """Median of the server's request-latency histogram for ``route``,
    interpolated inside its bucket."""
    from repro.obs.metrics import quantile_from_buckets

    for sample in metrics["repro_http_request_seconds"]["samples"]:
        if sample["labels"].get("route") == route:
            buckets = sample["buckets"]
            bounds = [float(b["le"]) for b in buckets[:-1]]
            counts = [b["count"] for b in buckets]
            return quantile_from_buckets(bounds, counts, 0.5) * 1000.0
    return 0.0


def _ratio(metrics: dict[str, Any], cache: str) -> float:
    hits = _sample(metrics, "repro_cache_hits_total", cache=cache)
    misses = _sample(metrics, "repro_cache_misses_total", cache=cache)
    return hits / (hits + misses) if hits + misses else 0.0


def run(run: Run) -> None:
    if run.seconds < UPDATE_INTERVAL:
        raise ValueError(
            f"serve_mixed needs --seconds >= {UPDATE_INTERVAL:g} to post "
            "an update"
        )
    counter = iter(range(SETUPS + 1))

    def setup() -> _Server:
        return _Server(run, next(counter), traced=False)

    setup_s, kept = median_setup(
        1 if run.trace else SETUPS, setup, lambda s: s.remove()
    )
    server: _Server = kept  # type: ignore[assignment]
    result = _measure(run, server, traced=False)
    _check_reads(run, result)
    _check_final(run, server, result)
    server.stop()
    p50_ms = statistics.median(result.latencies) * 1000.0
    _note_writes(run, result)
    if not run.trace:
        run.metric("setup_s", setup_s, "s")
        run.metric("op_p50_ms", p50_ms, "ms")
        run.metric("peak_rss_mb", server.maxrss_mb, "MB")
        shutil.rmtree(server.dir)
        return
    shutil.rmtree(server.dir)
    _traced(run, p50_ms)


def _note_writes(run: Run, result: _Pass) -> None:
    """Print reads per second and the update path's latency.

    They describe this workload alone, so they stay out of the result
    line, which carries the metrics ``BENCHMARK.json`` lists for every
    workload.
    """
    writer = result.writer
    assert writer is not None
    reads_per_s = len(result.latencies) / result.elapsed
    run.note(f"ops_per_s {reads_per_s:.1f} (reads per second)")
    if not writer.timings:
        return
    updates_ms = [(done - due) * 1000.0 for due, _, done in writer.timings]
    late_ms = [(sent - due) * 1000.0 for due, sent, _ in writer.timings]
    run.note(
        f"update_p50_ms {statistics.median(updates_ms):.1f} over "
        f"{len(updates_ms)} update(s); the writer ran late by p50 "
        f"{statistics.median(late_ms):.1f} ms, max {max(late_ms):.1f} ms"
    )


def _traced(run: Run, untraced_ms: float) -> None:
    from repro.obs.tracing import trace, trace_span
    from repro.serve.api import query_from_params
    from repro.serve.query import QueryEngine
    from repro.serve.store import PatternStore

    server = _Server(run, SETUPS, traced=True)
    result = _measure(run, server, traced=True)
    _check_reads(run, result)
    metrics = _metrics(server)
    server.stop()
    assert server.trace_out is not None
    updates = layers.read_trace(server.trace_out)
    work = json.loads(Path(f"{server.trace_out}.work.json").read_text())
    writer = result.writer
    assert writer is not None
    n_updates = max(len(writer.timings), 1)
    values = {name: work[name] / n_updates for name in layers.WORK}
    # the query layer in-process, on the final store and the same mix
    store = PatternStore.open(server.dir / "store" / "pattern_store.json")
    engine = QueryEngine(store, cache_size=256)
    queries = [
        query_from_params(dict(parse_qsl(target.partition("?")[2])))
        for target in result.targets[:QUERY_SAMPLE]
    ]
    restore = layers.install()
    try:
        with trace() as tracer:
            for query in queries:
                with trace_span(layers.OP):
                    engine.execute(query)
    finally:
        restore()
    query_ops = tracer.roots
    query_s = layers.layer_seconds(query_ops)["query_s"]
    values["query_s"] = query_s / len(queries)
    values["query_cache_hit_ratio"] = _ratio(metrics, "query")
    values["response_cache_hit_ratio"] = _ratio(metrics, "response")
    values["delta_cache_hit_ratio"] = _ratio(metrics, "delta_counter")

    def per_update(name: str, **labels: str) -> float:
        return _sample(metrics, name, **labels) / n_updates

    admits = "repro_pool_admits_total"
    values["pool_rebuilds"] = per_update(admits, kind="rebuild")
    values["pool_image_admits"] = per_update(admits, kind="image")
    values["events_emitted"] = per_update("repro_pattern_events_total")
    values["server_read_p50_ms"] = _histogram_p50_ms(metrics, "/patterns")
    overlapped = [
        done - sent
        for sent, done in result.intervals
        if any(s < done and sent < d for _, s, d in writer.timings)
    ]
    values["read_overlap_p50_ms"] = (
        statistics.median(overlapped) * 1000.0 if overlapped else 0.0
    )
    values["update_queue_depth_max"] = float(result.queue_depth_max)
    values["import_s"] = import_seconds(run)
    spans = updates + query_ops
    layers.report(
        run,
        spans,
        per=n_updates,
        ops=updates,
        untraced_ms=untraced_ms,
        traced_ms=statistics.median(result.latencies) * 1000.0,
        values=values,
    )
    shutil.rmtree(server.dir)
