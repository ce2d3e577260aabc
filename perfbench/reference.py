"""FP-growth post-hoc reference pattern sets for the mining workloads.

Usage::

    python3 perfbench/reference.py [--workload cold_mine|lattice_deep]
                                   [--variants 1,2,3]

``cold_mine`` and ``lattice_deep`` each run one of a few fixed input
sets, the workload's ``VARIANTS``; ``--seed`` picks one (the
workload's ``variant``).  For each variant the command rebuilds the
inputs exactly as a run does and mines them with the prior-art
pipeline of :mod:`repro.fpm.posthoc` (mine every frequent itemset per
level, label them, keep the chains that alternate), an algorithm that
shares no candidate generation, pruning or counting with Flipper.  The
pattern sets land in ``perfbench/references/<workload>.json``, keyed
by variant (``variant/input`` for a workload with several inputs) and
stamped with the input digest.

Every run compares its patterns with the reference of its input.  A
missing reference fails the run's correctness check, and so does a
reference whose digest no longer matches the run's input (the
generator changed), until this command is run again.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
FORMAT = "perfbench.reference"
WORKLOADS = ("cold_mine", "lattice_deep")


def path_for(workload: str) -> Path:
    return HERE / "references" / f"{workload}.json"


def load(workload: str) -> dict[str, Any]:
    path = path_for(workload)
    if not path.is_file():
        return {}
    payload = json.loads(path.read_text(encoding="utf-8"))
    if payload.get("format") != FORMAT:
        raise ValueError(f"{path} is not a {FORMAT} document")
    return payload["entries"]


def check(
    run: Any, workload: str, key: str, digest: str, patterns: list[Any]
) -> None:
    """Compare ``patterns`` with the reference stored under ``key``."""
    import oracle

    entry = load(workload).get(key)
    if entry is None:
        run.check(
            False, f"no reference for input {key} (run perfbench/reference.py)"
        )
        return
    if entry["digest"] != digest:
        run.check(
            False,
            f"stale reference for input {key}: digest {entry['digest']} "
            f"!= {digest} (rerun perfbench/reference.py)",
        )
        return
    for error in oracle.compare(patterns, entry["patterns"], f"input {key}"):
        run.check(False, f"reference: {error}")
    run.note(
        f"input {key} equals its FP-growth reference "
        f"({len(entry['patterns'])} pattern(s))"
    )


def make(workload: str, variants: list[int]) -> None:
    from repro.data.database import TransactionDatabase
    from repro.fpm.posthoc import mine_flipping_posthoc

    module = __import__(workload)
    path = path_for(workload)
    entries = load(workload)
    for number in variants:
        for key, rows, taxonomy, limits, digest in module.reference_inputs(
            number
        ):
            started = time.perf_counter()
            report = mine_flipping_posthoc(
                TransactionDatabase(rows, taxonomy), limits
            )
            entries[key] = {
                "digest": digest,
                "patterns": [p.to_dict() for p in report.patterns],
            }
            print(
                f"{workload} {key}: {len(report.patterns)} pattern(s) in "
                f"{time.perf_counter() - started:.1f}s",
                flush=True,
            )
            document = {"format": FORMAT, "entries": entries}
            text = json.dumps(document, indent=1, sort_keys=True)
            path.parent.mkdir(exist_ok=True)
            path.write_text(text + "\n", encoding="utf-8")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, action="append")
    parser.add_argument(
        "--variants", help="comma-separated; default: all of the workload's"
    )
    args = parser.parse_args(argv)
    for workload in args.workload or WORKLOADS:
        module = __import__(workload)
        variants = list(module.VARIANTS)
        if args.variants:
            variants = [int(part) for part in args.variants.split(",")]
        make(workload, variants)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(HERE.parent / "src"))
    raise SystemExit(main(sys.argv[1:]))
