"""The oracles reject wrong answers and accept the program's own.

Run with ``python3 -m pytest perfbench/tests`` from the checkout root.
"""

from __future__ import annotations

import copy
from typing import Any

import pytest

import inputs
import oracle

PROFILE = (0.04, 0.004, 0.002, 0.0004)
GAMMA = 0.15
EPSILON = 0.1
N_ROWS = 10_000


@pytest.fixture(scope="module")
def mined() -> tuple[list[Any], oracle.Recount, list[dict[str, Any]]]:
    from repro.core.flipper import FlipperMiner
    from repro.core.thresholds import Thresholds
    from repro.data.database import TransactionDatabase

    rows, taxonomy = inputs.world_pool(N_ROWS)
    counts = oracle.min_counts(PROFILE, N_ROWS)
    result = FlipperMiner(
        TransactionDatabase(rows, taxonomy),
        Thresholds(gamma=GAMMA, epsilon=EPSILON, min_support=counts),
    ).mine()
    patterns = [pattern.to_dict() for pattern in result.patterns]
    assert len(patterns) >= 2, "the fixture input must hold flips"
    recount = oracle.Recount(
        rows,
        oracle.Tree(inputs.nested_taxonomy(taxonomy)),
        gamma=GAMMA,
        epsilon=EPSILON,
        counts=counts,
    )
    return rows, recount, patterns


def test_accepts_the_program_patterns(mined: Any) -> None:
    _, recount, patterns = mined
    assert recount.check(patterns) == []
    assert oracle.compare(patterns, copy.deepcopy(patterns), "same") == []


def test_rejects_a_changed_support(mined: Any) -> None:
    _, recount, patterns = mined
    changed = copy.deepcopy(patterns)
    changed[0]["chain"][2]["support"] += 1
    errors = recount.check(changed)
    assert any("recounts as" in error for error in errors)
    assert oracle.compare(changed, patterns, "ref") != []


def test_rejects_a_flipped_label(mined: Any) -> None:
    _, recount, patterns = mined
    flipped = copy.deepcopy(patterns)
    link = flipped[0]["chain"][1]
    link["label"] = "positive" if link["label"] == "negative" else "negative"
    errors = recount.check(flipped)
    assert any("does not hold" in error for error in errors)
    assert any("no flip" in error for error in errors)


def test_rejects_a_dropped_pattern(mined: Any) -> None:
    _, _, patterns = mined
    errors = oracle.compare(patterns[1:], patterns, "ref")
    missing = oracle.chain_key(patterns[0])[0]
    assert errors == [f"ref: missing pattern {missing}"]


def test_rejects_an_extra_pattern(mined: Any) -> None:
    _, recount, patterns = mined
    # a pattern over a leaf pair that is not a flip: swap one item for
    # a sibling under the same parent, keeping the rest of the chain
    extra = copy.deepcopy(patterns[0])
    leaf = extra["items"][0]
    parent = recount.tree.parent[leaf]
    sibling = next(
        name
        for name, up in sorted(recount.tree.parent.items())
        if up == parent and name != leaf and name not in extra["items"]
    )
    extra["items"][0] = sibling
    names = extra["chain"][-1]["names"]
    names[names.index(leaf)] = sibling
    assert recount.check(patterns + [extra]) != []
    assert oracle.compare(patterns + [extra], patterns, "ref") != []


def test_events_are_the_diff_of_two_sets(mined: Any) -> None:
    _, _, patterns = mined
    first, rest = patterns[0], patterns[1:]
    started = oracle.expected_events(rest, patterns)
    pid, sig = oracle.pattern_id(first), oracle.signature(first)
    assert started == {("flip_started", pid, sig, None)}
    stopped = oracle.expected_events(patterns, rest)
    assert {kind for kind, *_ in stopped} == {"flip_stopped"}


def test_filter_orders_ties_by_id(mined: Any) -> None:
    _, _, patterns = mined
    full = {oracle.pattern_id(p): p for p in patterns}
    total, ids = oracle.filter_patterns(full, {"sort": "support"})
    assert total == len(patterns)
    keys = [(-full[i]["chain"][-1]["support"], i) for i in ids]
    assert keys == sorted(keys)
    leaf = patterns[0]["items"][0]
    total, ids = oracle.filter_patterns(full, {"items": leaf, "limit": "1"})
    assert total == sum(leaf in p["items"] for p in patterns)
    assert len(ids) == 1
