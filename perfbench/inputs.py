"""Seeded inputs, made with the program's synthetic generator.

Two ways of drawing rows, both fully determined by ``--seed``:

* :func:`synthetic` runs the generator with the seed itself, so the
  taxonomy's potentially-large itemsets (the "world") change with the
  seed.  ``cold_mine`` uses it: its cost is dominated by import,
  parse and index build, which do not depend on the world.
* :func:`world_pool` + :func:`draw` fix the world at the generator's
  default seed (the paper's submission date) and let the seed choose
  which rows of a pool each input holds, without replacement.  The
  mining-bound workloads use it: with a world drawn per seed, the
  lattice at low support, and with it the mining time, varies by a
  factor of four between seeds, which no run length can average out.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections.abc import Iterable, Sequence
from typing import Any

Row = tuple[str, ...]
#: one input a reference is made for: ``(key, rows, taxonomy,
#: thresholds, digest)``
RefInput = tuple[str, list[Row], Any, Any, str]


def rng(workload: str, seed: int, *parts: object) -> random.Random:
    """A generator stream private to ``(workload, seed, parts)``."""
    key = "/".join([workload, str(seed), *map(str, parts)])
    return random.Random(key)


def synthetic(n_rows: int, seed: int) -> tuple[list[Row], Any]:
    """``n_rows`` generator rows for a per-seed world, and its
    taxonomy."""
    from repro.datasets.synthetic import SyntheticConfig, generate_synthetic

    database = generate_synthetic(
        SyntheticConfig(n_transactions=n_rows, seed=seed)
    )
    rows = [database.transaction_names(i) for i in range(n_rows)]
    return rows, database.taxonomy


def world_pool(n_rows: int, world: int = 0) -> tuple[list[Row], Any]:
    """``n_rows`` rows of fixed world number ``world``: the generator
    at its default seed plus ``world``.  The taxonomy depends on the
    generator's shape settings only, so all worlds share it."""
    from repro.datasets.synthetic import SyntheticConfig

    return synthetic(n_rows, SyntheticConfig().seed + world)


def draw(pool: Sequence[Row], n_rows: int, stream: random.Random) -> list[Row]:
    """``n_rows`` distinct rows of ``pool``, in a seeded order."""
    return stream.sample(list(pool), n_rows)


def nested_taxonomy(taxonomy: Any) -> dict[str, Any]:
    """The taxonomy as the nested name mapping it is saved as."""
    from repro.taxonomy.io import taxonomy_to_dict

    return taxonomy_to_dict(taxonomy)


def digest(rows: Iterable[Iterable[str]], **settings: Any) -> str:
    """Identity of an input: its rows, in order, and its settings."""
    hasher = hashlib.sha256(
        json.dumps(settings, sort_keys=True).encode("utf-8")
    )
    for row in rows:
        hasher.update(",".join(row).encode("utf-8"))
        hasher.update(b"\n")
    return hasher.hexdigest()[:16]

