"""Split and partition enumeration for tuples treated as multisets.

Inputs are tuples sorted by a stable key so that equal elements are adjacent;
outputs preserve that sortedness inside every part. Sizes here are desk-scale
(a handful of elements), so the generators favour clarity over cleverness.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence, TypeVar

T = TypeVar("T")


def ordered_splits(items: Sequence[T], k: int) -> Iterator[tuple[tuple[T, ...], ...]]:
    """All cuts of `items` into k contiguous, possibly empty segments."""
    n = len(items)
    for cuts in itertools.combinations_with_replacement(range(n + 1), k - 1):
        bounds = (0,) + cuts + (n,)
        yield tuple(tuple(items[bounds[i] : bounds[i + 1]]) for i in range(k))


def _runs(items: Sequence[T]) -> list[tuple[T, int]]:
    return [(value, len(list(group))) for value, group in itertools.groupby(items)]


def _count_splits(total: int, k: int) -> Iterator[tuple[int, ...]]:
    """All k-tuples of non-negative ints summing to total."""
    if k == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _count_splits(total - head, k - 1):
            yield (head,) + rest


def multiset_splits(
    items: Sequence[T], k: int, head_sizes: tuple[int, int] | None = None
) -> Iterator[tuple[tuple[T, ...], ...]]:
    """All distributions of the multiset `items` into k labeled, possibly
    empty parts, each distinct distribution exactly once. With `head_sizes`,
    a (low, high) pair, only the distributions whose first part has between
    low and high items, in the same order; the others are never built. In
    the package only `multiset_partitions` calls it now: the tests use it as
    the oracle of the membership search's own two-way splits, and the
    benchmark's tracer names it."""
    runs = _runs(items)
    low, high = head_sizes or (0, len(items))
    # how many of each run every part takes, run by run in product order,
    # keeping only the prefixes whose first part can still end in the window
    later = len(items)
    choices: list[tuple[tuple, int]] = [((), 0)] if low - later <= 0 <= high else []
    for _, count in runs:
        later -= count
        splits = list(_count_splits(count, k))
        choices = [
            (prefix + (split,), size + split[0])
            for prefix, size in choices
            for split in splits
            if low - later <= size + split[0] <= high
        ]
    for choice, _ in choices:
        parts: list[list[T]] = [[] for _ in range(k)]
        for (value, _), counts in zip(runs, choice):
            for i, c in enumerate(counts):
                parts[i].extend([value] * c)
        yield tuple(tuple(p) for p in parts)


def multiset_partitions(items: Sequence[T], k: int, key=None) -> Iterator[tuple[tuple[T, ...], ...]]:
    """Unordered partitions of the multiset `items` into exactly k nonempty
    blocks, each partition exactly once. `key` orders blocks for the
    canonical representative (defaults to the natural order of the parts)."""
    if key is None:
        block_key = lambda block: block  # type: ignore[assignment]
    else:
        block_key = lambda block: tuple(key(x) for x in block)
    seen = set()
    for split in multiset_splits(items, k):
        if any(not part for part in split):
            continue
        canon = tuple(sorted(split, key=block_key))
        if canon not in seen:
            seen.add(canon)
            yield canon


def distinct_permutations(items: Sequence[T]) -> list[tuple[T, ...]]:
    """Distinct permutations of a small multiset, deterministically ordered."""
    return sorted(set(itertools.permutations(items)))
