"""Run one workload of the benchmark and print its result.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload W --seed 1 --seconds 15 --trace 0

Workloads: ``cold_mine``, ``lattice_deep``, ``window_slide`` and
``serve_mixed`` (see README.md).  The last line of standard output is
one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics, measured
untraced; with ``--trace 1`` they are the per-layer metrics of an
extra traced pass, whose span tree is written to
``.perfbench/traces/<workload>-seed<N>.json``.  Progress, check
failures and the per-layer table go to standard error.

The program is run from this checkout's ``src`` tree; without it the
command exits with status 2 before measuring anything.
"""

from __future__ import annotations

import argparse
import compileall
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from harness import SRC, Run  # noqa: E402

WORKLOADS = ("cold_mine", "lattice_deep", "window_slide", "serve_mixed")


def _positive(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
    return value


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=_positive, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _interrupted(signum: int, frame: object) -> None:
    raise SystemExit(128 + signum)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"error: no program source at {SRC}; run from the root of a "
            "checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(SRC))
    # both signals end the run through its clean-up, also when the
    # parent started it with SIGINT ignored (a background job of a
    # shell without job control)
    signal.signal(signal.SIGINT, _interrupted)
    signal.signal(signal.SIGTERM, _interrupted)
    # byte-compile once, so no run pays it inside a timed operation
    compileall.compile_dir(str(SRC), quiet=1)
    module = __import__(args.workload)
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        module.run(run)
    finally:
        # a second signal must not cut the clean-up short
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        run.finish()
    run.print_result()
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
