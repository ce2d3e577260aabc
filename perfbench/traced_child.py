"""Run one ``repro`` command with the benchmark's layer spans.

Usage::

    python3 perfbench/traced_child.py TRACE_OUT -- mine --transactions ...
    python3 perfbench/traced_child.py TRACE_OUT -- serve --async ...

The traced runs of ``cold_mine`` and ``serve_mixed`` start the program
through this wrapper instead of ``python3 -m repro``: it wraps the
layer entry points (see :mod:`layers`), runs the command and, on exit,
writes the recorded spans as a ``repro.trace`` v1 document, and the
summed MiningStats work counts of the traced mines next to it
(``TRACE_OUT.work.json``).

* ``mine`` is traced as a whole.
* ``serve`` traces each ``POST /v1/update``: the update runs on an
  executor thread, which does not see a tracer installed on the event
  loop's thread, so each update installs its own and its spans are
  collected under one ``bench.update`` root per update.  Reads are not
  traced in the server; the benchmark times the query layer in its own
  process.
"""

from __future__ import annotations

import json
import sys
import threading
from contextlib import nullcontext
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402
import peak  # noqa: E402


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    peak.install()
    out = Path(argv[0])
    args = argv[2:]
    from repro import cli
    from repro.core.flipper import FlipperMiner
    from repro.obs.tracing import current_tracer, trace, trace_span
    from repro.serve.api import PatternAPI

    layers.install()
    collected: list[object] = []
    work: dict[str, float] = {"mines": 0}
    lock = threading.Lock()
    run_update = PatternAPI.run_update
    mine = FlipperMiner.mine

    def flush(roots: list[object]) -> None:
        with lock:
            layers.write_trace(roots + collected, out)
            text = json.dumps(work)
        Path(f"{out}.work.json").write_text(text, encoding="utf-8")

    def traced_update(self: PatternAPI, intent: object) -> object:
        with trace() as tracer, trace_span("bench.update"):
            answer = run_update(self, intent)  # type: ignore[arg-type]
        with lock:
            collected.extend(tracer.roots)
        # written after every update too: a server that misses its
        # SIGTERM is killed without running the final write
        flush([])
        return answer

    def counted_mine(self: FlipperMiner) -> object:
        result = mine(self)
        # traced mines only: not the untraced serve start-up mine
        if current_tracer() is not None:
            with lock:
                work["mines"] += 1
                layers.add_work(work, layers.work_counts(result.stats))
        return result

    PatternAPI.run_update = traced_update  # type: ignore[method-assign]
    FlipperMiner.mine = counted_mine  # type: ignore[method-assign]
    scope = trace() if args[0] == "mine" else nullcontext()
    code = 1
    with scope as tracer:
        try:
            code = cli.main(args)
        finally:
            flush(list(tracer.roots) if tracer is not None else [])
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
