"""All-pairs OSA reference for `typosquat.find_near_pairs`, shared by the tests.

The distance here is a dynamic-programming table, independent of the
library's `dl_distance`, so the library is never checked against itself.
"""
from __future__ import annotations

from collections import Counter

from slsa_audit.typosquat import NameRecord, normalize_name


def osa_table(a: str, b: str) -> int:
    """OSA (restricted Damerau-Levenshtein) distance, one DP row at a time."""
    if a == b:
        return 0
    la, lb = len(a), len(b)
    if la == 0:
        return lb
    if lb == 0:
        return la
    prev2: list[int] | None = None
    prev = list(range(lb + 1))
    for i in range(1, la + 1):
        ca = a[i - 1]
        cur = [i] + [0] * lb
        for j in range(1, lb + 1):
            cb = b[j - 1]
            cost = 0 if ca == cb else 1
            best = prev[j] + 1
            alt = cur[j - 1] + 1
            if alt < best:
                best = alt
            alt = prev[j - 1] + cost
            if alt < best:
                best = alt
            if i > 1 and j > 1 and ca == b[j - 2] and a[i - 2] == cb:
                alt = prev2[j - 2] + 1
                if alt < best:
                    best = alt
            cur[j] = best
        prev2 = prev
        prev = cur
    return prev[lb]


def all_pairs_oracle(records: list[NameRecord], max_distance: int) -> tuple[Counter, Counter]:
    """Near pairs and collisions from OSA on every same-kind record pair.

    No length prefilter, no grouping by name and no index: each pair is
    compared directly with `osa_table` and put in (lesser, greater) record
    order. Both results are multisets of (record, record, distance).
    """
    pairs: Counter = Counter()
    collisions: Counter = Counter()
    for i, a in enumerate(records):
        for b in records[i + 1:]:
            if a.kind is not b.kind:
                continue
            first, second = sorted((a, b), key=lambda r: (r.name, r.owner.sort_key()))
            distance = osa_table(a.name, b.name)
            if 1 <= distance <= max_distance:
                pairs[first, second, distance] += 1
            elif distance == 0 and (
                normalize_name(a.owner.publisher) != normalize_name(b.owner.publisher)
            ):
                collisions[first, second, 0] += 1
    return pairs, collisions
