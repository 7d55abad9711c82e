"""Typo-squatting detection over publisher and component names (V5).

Distances use the optimal-string-alignment (OSA) variant of
Damerau-Levenshtein: insertions, deletions, substitutions, and adjacent
transpositions, with no substring edited twice. `dl_distance` computes it
with Hyyrö's bit-parallel algorithm.

Near pairs are found exactly with a symmetric-delete index (Bocek et al.,
2007) over bounded name prefixes. Two names at OSA distance d <= k share
a string reachable by at most k deletions from each, since every edit
costs at most one deletion on each side. Each name is keyed by the
strings at most k deletions away from its first P characters, which
keeps the search exact (see `_near_name_pairs`) and bounds the keys per
name however long the name is: P (see `_prefix_length`) is at most
`PREFIX` and shrinks as k grows, so no name has more than `MAX_KEYS`
keys. Names sharing a key whose lengths differ by at most k are verified
with `dl_distance`.
"""
from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable

from slsa_audit.model import (
    AttackVector,
    ComponentRef,
    EmptyInputError,
    Finding,
    Repository,
    Severity,
)


PREFIX = 16  # most characters of a name that key the near-name index
MAX_KEYS = sum(math.comb(PREFIX, i) for i in range(3))  # 137, a PREFIX-long key's count at k = 2


def dl_distance(a: str, b: str) -> int:
    """OSA (restricted Damerau-Levenshtein) distance between two strings.

    Hyyrö's bit-parallel form ("A bit-vector algorithm for computing
    Levenshtein and Damerau edit distances", 2003): bit i of ``vp``/``vn``
    is a +1/-1 step between rows i and i+1 of the current dynamic-
    programming column, so each character of ``b`` costs a fixed number of
    integer operations on len(a)-bit integers. Bits at and above len(a)
    may hold carries; they never reach the lower bits.

    The common prefix and suffix are stripped first, since a shared affix
    never changes the OSA distance, so only the differing middle is run.
    """
    if a == b:
        return 0
    start, end_a, end_b = 0, len(a), len(b)
    while start < end_a and start < end_b and a[start] == b[start]:
        start += 1
    while end_a > start and end_b > start and a[end_a - 1] == b[end_b - 1]:
        end_a -= 1
        end_b -= 1
    a, b = a[start:end_a], b[start:end_b]
    if not a:
        return len(b)
    match: dict[str, int] = {}
    for i, ch in enumerate(a):
        match[ch] = match.get(ch, 0) | (1 << i)
    full = (1 << len(a)) - 1
    last = 1 << (len(a) - 1)
    vp, vn, d0, pm_prev = full, 0, 0, 0
    distance = len(a)
    for ch in b:
        pm = match.get(ch, 0)
        transposed = ((~d0 & pm) << 1) & pm_prev
        d0 = (((pm & vp) + vp) ^ vp) | pm | vn | transposed
        hp = vn | ~(d0 | vp)
        hn = d0 & vp
        if hp & last:
            distance += 1
        elif hn & last:
            distance -= 1
        hp = (hp << 1) | 1
        vp = ((hn << 1) | ~(d0 | hp)) & full
        vn = hp & d0
        pm_prev = pm
    return distance


class NameKind(Enum):
    USERNAME = "username"
    IMAGE_NAME = "image"


@dataclass(frozen=True)
class NameRecord:
    name: str
    kind: NameKind
    owner: ComponentRef

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("normalized name must be non-empty")


def normalize_name(raw: str) -> str:
    """Lowercase and strip any registry/namespace prefix."""
    name = raw.strip().lower()
    if "/" in name:
        name = name.rsplit("/", 1)[-1]
    return name


def build_name_records(
    refs: Iterable[ComponentRef], include_aws_sar: bool = False
) -> list[NameRecord]:
    """Username and image-name records for a corpus.

    AWS SAR components are skipped by default: their names are resolved
    inside AWS tooling where manual typing is rare.
    """
    records: list[NameRecord] = []
    for ref in refs:
        if ref.repository is Repository.AWS_SAR and not include_aws_sar:
            continue
        publisher = normalize_name(ref.publisher)
        image = normalize_name(ref.name)
        if publisher:
            records.append(NameRecord(name=publisher, kind=NameKind.USERNAME, owner=ref))
        if image:
            records.append(NameRecord(name=image, kind=NameKind.IMAGE_NAME, owner=ref))
    return records


@dataclass(slots=True)
class NearPair:
    """Two same-kind records within the edit bound; a slotted record, built
    once per output row and neither hashed nor changed once built."""

    a: NameRecord
    b: NameRecord
    distance: int

    def sort_key(self) -> tuple:
        return (self.distance, self.a.kind.value, self.a.name, self.b.name,
                self.a.owner.sort_key(), self.b.owner.sort_key())


@dataclass
class NearPairScan:
    """Distance>=1 pairs plus distance-0 cross-owner name collisions."""

    pairs: list[NearPair] = field(default_factory=list)
    collisions: list[NearPair] = field(default_factory=list)


def find_near_pairs(
    records: Iterable[NameRecord], max_distance: int = 1
) -> NearPairScan:
    """All same-kind record pairs with OSA distance in [1, max_distance].

    Identical names owned by different components are surfaced separately
    as collisions. Records are grouped by name, and the distinct names of
    each kind go through the symmetric-delete index of `_near_name_pairs`,
    which returns exactly the name pairs that OSA puts within max_distance.

    Both lists come out in `NearPair.sort_key` order, ties in input order.
    Near pairs are never sorted themselves: each name's records are sorted
    once into runs of equal owner key, the distinct-name pairs are sorted,
    and each expands run by run, which is already (first owner, second
    owner) order. Collisions, far fewer, are sorted on keys computed once
    per record.
    """
    if max_distance < 1:
        raise ValueError("max_distance must be >= 1")
    by_kind: dict[NameKind, dict[str, list[NameRecord]]] = {}
    for record in records:
        by_kind.setdefault(record.kind, {}).setdefault(record.name, []).append(record)
    # (distance, kind, name a, name b, runs of a, runs of b): the first four
    # fields are unique per row, so sorting never compares the runs.
    rows: list[tuple] = []
    collisions: list[tuple[tuple, NearPair]] = []
    for kind, by_name in by_kind.items():
        for name, owners in by_name.items():
            keys = [record.owner.sort_key() for record in owners]
            # Identical names count as collisions only across publishers.
            publishers = [normalize_name(record.owner.publisher) for record in owners]
            for i in range(len(owners)):
                for j in range(i + 1, len(owners)):
                    if publishers[i] != publishers[j]:
                        first, second = (i, j) if keys[i] <= keys[j] else (j, i)
                        collisions.append((
                            (kind.value, name, keys[first], keys[second]),
                            NearPair(owners[first], owners[second], 0),
                        ))
            # The name's records in runs of equal owner key, runs in key order.
            order = sorted(range(len(owners)), key=keys.__getitem__)
            by_name[name] = [
                [owners[i] for i in run]
                for _, run in itertools.groupby(order, key=keys.__getitem__)
            ]
        for name_a, name_b, distance in _near_name_pairs(sorted(by_name), max_distance):
            rows.append((distance, kind.value, name_a, name_b, by_name[name_a], by_name[name_b]))
    rows.sort()
    collisions.sort(key=lambda keyed: keyed[0])
    scan = NearPairScan(collisions=[pair for _, pair in collisions])
    for distance, _, _, _, runs_a, runs_b in rows:
        scan.pairs.extend([
            NearPair(a, b, distance)
            for run_a in runs_a for run_b in runs_b for a in run_a for b in run_b
        ])
    return scan


def _deletion_keys(text: str, max_deletions: int) -> set[str]:
    """Every string reachable from text by at most max_deletions deletions."""
    keys = {text}
    frontier = keys
    for _ in range(max_deletions):
        frontier = {s[:i] + s[i + 1:] for s in frontier for i in range(len(s))}
        keys |= frontier
    return keys


def _prefix_length(max_distance: int) -> int:
    """The longest prefix, up to PREFIX characters, whose strings at most
    max_distance deletions away number at most MAX_KEYS: 16 for k <= 2,
    9 for k = 3 and 7 for k >= 4."""
    length = PREFIX
    while sum(math.comb(length, i) for i in range(max_distance + 1)) > MAX_KEYS:
        length -= 1
    return length


def _near_name_pairs(names: list[str], max_distance: int) -> list[tuple[str, str, int]]:
    """Sorted (a, b, d), a < b, for distinct names at OSA d in [1, max_distance].

    A symmetric-delete index over prefixes: each distinct ``name[:P]``, P
    from `_prefix_length`, is filed under every string at most
    max_distance deletions away from it, and names whose prefixes share a
    key are candidates. The prefix keeps this exact for any P. If
    OSA(s, t) <= k, some common subsequence c is at most k deletions from
    each; the longest prefix of c whose embeddings lie in both ``s[:P]``
    and ``t[:P]`` is then at most k deletions from each of those
    prefixes, so they share a key. Candidates whose lengths differ by more
    than max_distance are dropped (OSA is at least the length difference)
    and the rest are verified with `dl_distance`.
    """
    length = _prefix_length(max_distance)
    by_prefix: dict[str, list[str]] = {}
    for name in names:
        by_prefix.setdefault(name[:length], []).append(name)
    index: dict[str, list[str]] = {}
    out: list[tuple[str, str, int]] = []
    for prefix, group in by_prefix.items():
        earlier: set[str] = set()
        for key in _deletion_keys(prefix, max_distance):
            bucket = index.setdefault(key, [])
            earlier.update(bucket)
            bucket.append(prefix)
        candidates = itertools.chain(
            itertools.combinations(group, 2),
            *(itertools.product(by_prefix[other], group) for other in earlier),
        )
        for a, b in candidates:
            if abs(len(a) - len(b)) > max_distance:
                continue
            distance = dl_distance(a, b)
            if 1 <= distance <= max_distance:
                out.append((a, b, distance) if a < b else (b, a, distance))
    out.sort()
    return out


def distance_cdf(
    records: Iterable[NameRecord], scan: NearPairScan, max_distance: int
) -> list[tuple[int, float]]:
    """CDF of pairwise OSA distances for d = 0..max_distance.

    ``scan`` is `find_near_pairs` over the same records and max_distance.
    Pairs are formed within each kind; fractions are over all such pairs.
    m records sharing a name give C(m, 2) pairs at distance 0; the pairs
    at d >= 1 are the scan's, which holds every record pair of each near
    name pair.
    """
    names = Counter((record.kind, record.name) for record in records)
    if names.total() < 2:
        raise EmptyInputError("distance_cdf requires at least two records")
    kinds = Counter(kind for kind, _ in names.elements())
    num_pairs = sum(math.comb(n, 2) for n in kinds.values())
    if num_pairs == 0:
        raise EmptyInputError("distance_cdf requires at least one same-kind pair")
    counts = Counter(pair.distance for pair in scan.pairs)
    counts[0] = sum(math.comb(m, 2) for m in names.values())
    cdf: list[tuple[int, float]] = []
    cumulative = 0
    for d in range(max_distance + 1):
        cumulative += counts[d]
        cdf.append((d, cumulative / num_pairs))
    return cdf


_NEAR_REMEDIATION = "review whether the similar name is a squatting attempt"
_COLLISION_REMEDIATION = "confirm both publishers are legitimate owners of the name"


def findings_from_pairs(scan: NearPairScan) -> list[Finding]:
    """Render near pairs and collisions as findings (anchored on the first
    record of each pair)."""
    # Each record's part of the evidence, formatted the first time a pair
    # holds it: (kind and name, name and owner slug).
    texts: dict[int, tuple[str, str]] = {}

    def text(record: NameRecord) -> tuple[str, str]:
        texts[id(record)] = parts = (
            f"{record.kind.value} {record.name!r}", f"{record.name!r} ({record.owner.slug})"
        )
        return parts

    v5, medium, location = AttackVector.V5, Severity.MEDIUM, "component.meta"
    findings: list[Finding] = []
    append = findings.append
    for pair in scan.pairs:
        a, b = pair.a, pair.b
        text_a = texts.get(id(a)) or text(a)
        text_b = texts.get(id(b)) or text(b)
        append(Finding(
            "V5-NEAR-NAME", v5, medium, a.owner, location,
            f"{text_a[0]} is within edit distance {pair.distance} of {text_b[1]}",
            _NEAR_REMEDIATION,
        ))
    for pair in scan.collisions:
        a = pair.a
        text_a = texts.get(id(a)) or text(a)
        append(Finding(
            "V5-NAME-COLLISION", v5, medium, a.owner, location,
            f"{text_a[0]} is also published by {pair.b.owner.slug}",
            _COLLISION_REMEDIATION,
        ))
    return findings
