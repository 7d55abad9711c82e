"""Typo-squatting detection over publisher and component names (V5).

Distances use the optimal-string-alignment (OSA) variant of
Damerau-Levenshtein: insertions, deletions, substitutions, and adjacent
transpositions, with no substring edited twice. Near pairs are found
exactly: every pair of distinct same-kind names whose lengths differ by
at most the distance bound is compared with OSA.
"""
from __future__ import annotations

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


def dl_distance(a: str, b: str) -> int:
    """OSA (restricted Damerau-Levenshtein) distance between two strings."""
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


@dataclass(frozen=True)
class NearPair:
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


def _ordered(a: NameRecord, b: NameRecord) -> tuple[NameRecord, NameRecord]:
    if (a.name, a.owner.sort_key()) <= (b.name, b.owner.sort_key()):
        return a, b
    return b, a


def find_near_pairs(
    records: Iterable[NameRecord], max_distance: int = 1
) -> NearPairScan:
    """All same-kind record pairs with OSA distance in [1, max_distance].

    Identical names owned by different components are surfaced separately
    as collisions. Records are grouped by name, each pair of distinct names
    is compared once with OSA, and names whose lengths differ by more than
    max_distance are skipped, since OSA is at least the length difference.
    """
    if max_distance < 1:
        raise ValueError("max_distance must be >= 1")
    scan = NearPairScan()
    by_kind: dict[NameKind, list[NameRecord]] = {}
    for record in records:
        by_kind.setdefault(record.kind, []).append(record)
    for kind_records in by_kind.values():
        by_name: dict[str, list[NameRecord]] = {}
        for record in kind_records:
            by_name.setdefault(record.name, []).append(record)
        names = sorted(by_name)
        # Identical names count as collisions only across publishers.
        for name in names:
            owners = by_name[name]
            for i in range(len(owners)):
                for j in range(i + 1, len(owners)):
                    pub_a = normalize_name(owners[i].owner.publisher)
                    pub_b = normalize_name(owners[j].owner.publisher)
                    if pub_a != pub_b:
                        first, second = _ordered(owners[i], owners[j])
                        scan.collisions.append(NearPair(first, second, 0))
        for name_a, name_b, distance in _near_name_pairs(names, max_distance):
            for rec_a in by_name[name_a]:
                for rec_b in by_name[name_b]:
                    first, second = _ordered(rec_a, rec_b)
                    scan.pairs.append(NearPair(first, second, distance))
    scan.pairs.sort(key=NearPair.sort_key)
    scan.collisions.sort(key=NearPair.sort_key)
    return scan


def _near_name_pairs(names: list[str], max_distance: int) -> list[tuple[str, str, int]]:
    out: list[tuple[str, str, int]] = []
    for i in range(len(names)):
        a = names[i]
        for j in range(i + 1, len(names)):
            b = names[j]
            if abs(len(a) - len(b)) > max_distance:
                continue
            distance = dl_distance(a, b)
            if 1 <= distance <= max_distance:
                out.append((a, b, distance))
    return out


def distance_cdf(
    records: Iterable[NameRecord], max_distance: int
) -> list[tuple[int, float]]:
    """CDF of pairwise OSA distances for d = 0..max_distance.

    Pairs are formed within each kind; fractions are over all such pairs.
    Counts come from name multiplicities: m records sharing a name give
    C(m, 2) pairs at distance 0, and two distinct names with m_a and m_b
    records give m_a * m_b pairs at their distance, so each distinct name
    pair is compared once.
    """
    by_kind: dict[NameKind, Counter[str]] = {}
    total = 0
    for record in records:
        by_kind.setdefault(record.kind, Counter())[record.name] += 1
        total += 1
    if total < 2:
        raise EmptyInputError("distance_cdf requires at least two records")
    counts: Counter[int] = Counter()
    num_pairs = 0
    for multiplicity in by_kind.values():
        n = sum(multiplicity.values())
        num_pairs += n * (n - 1) // 2
        counts[0] += sum(m * (m - 1) // 2 for m in multiplicity.values())
        for name_a, name_b, d in _near_name_pairs(sorted(multiplicity), max_distance):
            counts[d] += multiplicity[name_a] * multiplicity[name_b]
    if num_pairs == 0:
        raise EmptyInputError("distance_cdf requires at least one same-kind pair")
    cdf: list[tuple[int, float]] = []
    cumulative = 0
    for d in range(max_distance + 1):
        cumulative += counts[d]
        cdf.append((d, cumulative / num_pairs))
    return cdf


def findings_from_pairs(scan: NearPairScan) -> list[Finding]:
    """Render near pairs and collisions as findings (anchored on the first
    record of each pair)."""
    findings: list[Finding] = []
    for pair in scan.pairs:
        findings.append(
            Finding(
                rule_id="V5-NEAR-NAME",
                vector=AttackVector.V5,
                severity=Severity.MEDIUM,
                component=pair.a.owner,
                location="component.meta",
                evidence=(
                    f"{pair.a.kind.value} {pair.a.name!r} is within edit distance "
                    f"{pair.distance} of {pair.b.name!r} ({pair.b.owner.slug})"
                ),
                remediation="review whether the similar name is a squatting attempt",
            )
        )
    for pair in scan.collisions:
        findings.append(
            Finding(
                rule_id="V5-NAME-COLLISION",
                vector=AttackVector.V5,
                severity=Severity.MEDIUM,
                component=pair.a.owner,
                location="component.meta",
                evidence=(
                    f"{pair.a.kind.value} {pair.a.name!r} is also published by "
                    f"{pair.b.owner.slug}"
                ),
                remediation="confirm both publishers are legitimate owners of the name",
            )
        )
    return findings
