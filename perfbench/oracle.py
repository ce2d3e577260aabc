"""Correctness oracles computed apart from the program.

The program's answers are checked against computations that share
none of its mining code:

* :class:`Recount` recounts every chain level of every reported
  pattern by scanning the rows mapped through the taxonomy, recomputes
  Kulczynski as the mean of ``sup(A) / sup(a_i)`` (paper Table 2) and
  checks minimum support, the γ/ε labels (within a relative tolerance:
  float summation order may differ between interpreters) and the
  alternation of signs down the chain.  It reads the taxonomy as the
  nested name mapping the program writes to disk and imports nothing
  from the program.
* :func:`compare` matches two pattern lists by their chains.
* :func:`expected_events` diffs two consecutive pattern sets the way a
  flip-event consumer sees them.
* :func:`filter_patterns` answers a ``/v1/patterns`` query over a full
  pattern list.

Patterns travel in the program's wire form (``FlippingPattern.to_dict``
/ the HTTP API), so one oracle serves every workload.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping, Sequence
from typing import Any

#: relative tolerance on correlations and on the γ/ε label bounds
REL_TOL = 1e-9

_SYMBOLS = {"positive": "+", "negative": "-"}

Pattern = Mapping[str, Any]


class Tree:
    """A taxonomy read from its nested ``{name: children | null}``
    form: level of every node and its ancestor at every level."""

    def __init__(self, nested: Mapping[str, Any]) -> None:
        self.level: dict[str, int] = {}
        self.parent: dict[str, str | None] = {}
        stack: list[tuple[str, Any, int, str | None]] = [
            (name, children, 1, None) for name, children in nested.items()
        ]
        while stack:
            name, children, level, parent = stack.pop()
            self.level[name] = level
            self.parent[name] = parent
            for child, grandchildren in (children or {}).items():
                stack.append((child, grandchildren, level + 1, name))
        self.height = max(self.level.values())
        self._chains: dict[str, tuple[str, ...]] = {}

    def chain(self, leaf: str) -> tuple[str, ...]:
        """``(level-1 ancestor, ..., leaf)``."""
        found = self._chains.get(leaf)
        if found is None:
            names = []
            node: str | None = leaf
            while node is not None:
                names.append(node)
                node = self.parent[node]
            found = tuple(reversed(names))
            self._chains[leaf] = found
        return found

    def ancestor(self, leaf: str, level: int) -> str:
        return self.chain(leaf)[level - 1]


def min_counts(min_support: Sequence[float | int], n_rows: int) -> list[int]:
    """Per-level absolute minimum supports: counts stay, fractions
    round up against the row count."""
    return [
        value if isinstance(value, int) else max(1, math.ceil(value * n_rows))
        for value in min_support
    ]


def close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


class Recount:
    """Recount checker over the rows a result was mined from."""

    def __init__(
        self,
        rows: Sequence[Sequence[str]],
        tree: Tree,
        *,
        gamma: float,
        epsilon: float,
        counts: Sequence[int],
    ) -> None:
        self.rows = rows
        self.tree = tree
        self.gamma = gamma
        self.epsilon = epsilon
        self.counts = list(counts)

    def _postings(
        self, needed: set[tuple[int, str]]
    ) -> dict[tuple[int, str], set[int]]:
        levels = sorted({level for level, _ in needed})
        postings: dict[tuple[int, str], set[int]] = {
            key: set() for key in needed
        }
        chain = self.tree.chain
        for index, row in enumerate(self.rows):
            for item in row:
                names = chain(item)
                for level in levels:
                    found = postings.get((level, names[level - 1]))
                    if found is not None:
                        found.add(index)
        return postings

    def check(self, patterns: Iterable[Pattern]) -> list[str]:
        """Every reason a pattern is wrong (empty when all pass)."""
        patterns = list(patterns)
        needed = {
            (link["level"], name)
            for pattern in patterns
            for link in pattern["chain"]
            for name in link["names"]
        }
        postings = self._postings(needed)
        errors: list[str] = []
        for pattern in patterns:
            errors.extend(
                f"{sorted(pattern['items'])}: {problem}"
                for problem in self._check_one(pattern, postings)
            )
        return errors

    def _check_one(
        self,
        pattern: Pattern,
        postings: Mapping[tuple[int, str], set[int]],
    ) -> Iterable[str]:
        items = list(pattern["items"])
        chain = pattern["chain"]
        k = len(items)
        if k < 2 or len(set(items)) != k or pattern.get("k") != k:
            yield f"bad itemset (k={pattern.get('k')})"
            return
        levels = [link["level"] for link in chain]
        if levels != list(range(1, self.tree.height + 1)):
            yield "chain does not cover levels 1..H in order"
            return
        previous = None
        for link in chain:
            level = link["level"]
            names = sorted(link["names"])
            expected = sorted(self.tree.ancestor(i, level) for i in items)
            if names != expected or len(set(names)) != k:
                yield (
                    f"level {level}: names {names} are not the distinct "
                    f"generalizations {expected}"
                )
                return
            rows = set.intersection(*(postings[(level, n)] for n in names))
            support = len(rows)
            if support != link["support"]:
                yield (
                    f"level {level}: support {link['support']} recounts as "
                    f"{support}"
                )
            if support < self.counts[level - 1]:
                yield (
                    f"level {level}: support {support} below the minimum "
                    f"{self.counts[level - 1]}"
                )
            if support == 0:
                continue
            ratios = [support / len(postings[(level, n)]) for n in names]
            kulczynski = math.fsum(ratios) / k
            if not close(kulczynski, link["correlation"]):
                yield (
                    f"level {level}: correlation {link['correlation']!r} "
                    f"recomputes as {kulczynski!r}"
                )
            label = link["label"]
            if label == "positive":
                ok = kulczynski >= self.gamma - REL_TOL * self.gamma
            elif label == "negative":
                slack = REL_TOL * max(self.epsilon, 1.0)
                ok = kulczynski <= self.epsilon + slack
            else:
                ok = False
            if not ok:
                yield (
                    f"level {level}: label {label!r} does not hold for "
                    f"correlation {kulczynski!r}"
                )
            if previous is not None and previous == label:
                yield (
                    f"level {level}: label {label!r} repeats the level above "
                    "(no flip)"
                )
            previous = label
        expected_signature = signature(pattern)
        if pattern.get("signature") != expected_signature:
            yield (
                f"signature {pattern.get('signature')!r} != "
                f"{expected_signature!r}"
            )


def chain_key(pattern: Pattern) -> tuple[Any, ...]:
    """A pattern's identity and exact chain, correlations left out."""
    return (
        tuple(sorted(pattern["items"])),
        tuple(
            (
                link["level"],
                tuple(sorted(link["names"])),
                link["support"],
                link["label"],
            )
            for link in pattern["chain"]
        ),
    )


def compare(
    got: Iterable[Pattern], want: Iterable[Pattern], what: str
) -> list[str]:
    """Differences between two pattern lists: missing, extra, and
    correlations outside the tolerance."""
    mine = {chain_key(p): p for p in got}
    theirs = {chain_key(p): p for p in want}
    missing = sorted(theirs.keys() - mine.keys())
    extra = sorted(mine.keys() - theirs.keys())
    errors = [f"{what}: missing pattern {key[0]}" for key in missing]
    errors += [f"{what}: extra pattern {key[0]}" for key in extra]
    for key in sorted(mine.keys() & theirs.keys()):
        pairs = zip(mine[key]["chain"], theirs[key]["chain"])
        same = all(close(a["correlation"], b["correlation"]) for a, b in pairs)
        if not same:
            errors.append(f"{what}: correlations differ for {key[0]}")
    return errors


def pattern_id(pattern: Pattern) -> str:
    """The serving identity: the leaf item ids joined by ``-``."""
    return "-".join(str(item) for item in pattern["chain"][-1]["itemset"])


def signature(pattern: Pattern) -> str:
    """The label trajectory down the chain, as ``+-+-``."""
    return "".join(
        _SYMBOLS.get(link["label"], "?") for link in pattern["chain"]
    )


def expected_events(
    old: Iterable[Pattern], new: Iterable[Pattern]
) -> set[tuple[str, str, str | None, str | None]]:
    """``(type, id, signature, previous signature)`` of every flip
    that starts, stops or changes level between two pattern sets."""
    before = {pattern_id(p): signature(p) for p in old}
    after = {pattern_id(p): signature(p) for p in new}
    events = set()
    for pid in before.keys() | after.keys():
        was, now = before.get(pid), after.get(pid)
        if was is None:
            events.add(("flip_started", pid, now, None))
        elif now is None:
            events.add(("flip_stopped", pid, None, was))
        elif was != now:
            events.add(("flip_level_changed", pid, now, was))
    return events


def filter_patterns(
    full: Mapping[str, Pattern], params: Mapping[str, str]
) -> tuple[int, list[str]]:
    """``(total, ordered page of ids)`` of a query over ``full``
    (id -> pattern): every filter must hold; ties in the sort value
    go to the smaller id."""
    items = [p for p in params.get("items", "").split(",") if p]
    under = params.get("under")
    sig = params.get("signature")
    min_corr = _number(params, "min_corr")
    max_corr = _number(params, "max_corr")
    min_support = _number(params, "min_support")
    hits = []
    for pid, pattern in full.items():
        leaf = pattern["chain"][-1]
        if not set(items) <= set(pattern["items"]):
            continue
        names = {n for link in pattern["chain"] for n in link["names"]}
        if under is not None and under not in names:
            continue
        if sig is not None and signature(pattern) != sig:
            continue
        if min_corr is not None and leaf["correlation"] < min_corr:
            continue
        if max_corr is not None and leaf["correlation"] > max_corr:
            continue
        if min_support is not None and leaf["support"] < min_support:
            continue
        hits.append(pid)
    measure = params.get("sort", "correlation")
    descending = params.get("order", "desc") == "desc"

    def value(pid: str) -> float:
        return float(full[pid]["chain"][-1][measure])

    hits.sort(key=lambda pid: (-value(pid) if descending else value(pid), pid))
    limit = params.get("limit")
    page = hits if limit is None else hits[: int(limit)]
    return len(hits), page


def _number(params: Mapping[str, str], name: str) -> float | None:
    raw = params.get(name)
    return None if raw is None else float(raw)
