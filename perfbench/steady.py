"""Steadiness tool: run one workload several times and report spreads.

Usage (from the root of a checkout)::

    python3 perfbench/steady.py --workload lattice_deep --seed 1 --runs 10
    python3 perfbench/steady.py --workload lattice_deep --seeds 1,2,3,4,5

The first form repeats one seed; the second runs once per seed, which
is how a regression check compares two commits.  For every metric of
the result it prints the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``), the spread ``(q3 - q1) /
median`` and, for end-to-end metrics, the bound from ``BENCHMARK.json``,
whether the spread stays within it and whether it stays under a third
of it (steady).  It also prints the share of failed operations of
every run.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from harness import ROOT, spread  # noqa: E402


def _run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [
        sys.executable,
        str(HERE / "run.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--seconds",
        str(seconds),
        "--trace",
        str(trace),
    ]
    proc = subprocess.Popen(
        argv,
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=900)
    finally:
        if proc.poll() is None:
            proc.terminate()
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(
            f"{workload} seed {seed} exited {proc.returncode}:\n"
            + err.decode(errors="replace")[-3000:]
        )
    return json.loads(out.decode().strip().splitlines()[-1])


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seeds", default=None)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = (
        [int(s) for s in args.seeds.split(",") if s]
        if args.seeds
        else [args.seed] * args.runs
    )
    results = []
    for seed in seeds:
        result = _run_once(args.workload, seed, seconds, args.trace)
        results.append(result)
        figures = ", ".join(
            f"{name}={m['value']:.4g}" for name, m in result["metrics"].items()
        )
        print(
            f"seed {seed}: correct={result['correct']} "
            f"failed {result['failed']}/{result['attempted']}: {figures}",
            flush=True,
        )
    print(
        f"\n{args.workload}: {len(results)} run(s), seeds {seeds}, "
        f"{seconds}s each"
    )
    print(
        f"{'metric':<26} {'median':>12} {'q1':>12} {'q3':>12} "
        f"{'spread':>8} {'bound':>6}  within steady"
    )
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        unit = results[0]["metrics"][name]["unit"]
        if len(values) < 2:
            print(f"{name:<26} {values[0]:>12.6g} ({unit})")
            continue
        median, q1, q3, share = spread(values)
        bound = bounds.get(name)
        verdict = f"{'':<6} {'':<6}"
        if bound is not None:
            within = "yes" if share <= bound else "NO"
            steady = "yes" if share < bound / 3 else "NO"
            verdict = f"{within:<6} {steady:<6}"
        print(
            f"{name:<26} {median:>12.6g} {q1:>12.6g} {q3:>12.6g} "
            f"{share:>8.4f} {bound if bound is not None else '':>6}  "
            f"{verdict} [{unit}]"
        )
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"failed share per run: {sorted(shares)}")
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
