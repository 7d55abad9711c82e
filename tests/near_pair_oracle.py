"""All-pairs OSA reference for `typosquat.find_near_pairs`, shared by the tests."""
from __future__ import annotations

from collections import Counter

from slsa_audit.typosquat import NameRecord, dl_distance, normalize_name


def all_pairs_oracle(records: list[NameRecord], max_distance: int) -> tuple[Counter, Counter]:
    """Near pairs and collisions from OSA on every same-kind record pair.

    No length prefilter and no grouping by name: each pair is compared
    directly and put in (lesser, greater) record order. Both results are
    multisets of (record, record, distance).
    """
    pairs: Counter = Counter()
    collisions: Counter = Counter()
    for i, a in enumerate(records):
        for b in records[i + 1:]:
            if a.kind is not b.kind:
                continue
            first, second = sorted((a, b), key=lambda r: (r.name, r.owner.sort_key()))
            distance = dl_distance(a.name, b.name)
            if 1 <= distance <= max_distance:
                pairs[first, second, distance] += 1
            elif distance == 0 and (
                normalize_name(a.owner.publisher) != normalize_name(b.owner.publisher)
            ):
                collisions[first, second, 0] += 1
    return pairs, collisions
