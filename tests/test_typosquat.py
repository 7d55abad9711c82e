"""OSA distance, near pairs against an all-pairs oracle, and the distance CDF."""
from __future__ import annotations

import itertools
import random
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from near_pair_oracle import all_pairs_oracle, osa_table

from slsa_audit import typosquat
from slsa_audit.model import (
    AttackVector,
    ComponentRef,
    EmptyInputError,
    Finding,
    Repository,
    Severity,
)
from slsa_audit.typosquat import (
    NameKind,
    NameRecord,
    NearPair,
    NearPairScan,
    build_name_records,
    distance_cdf,
    dl_distance,
    find_near_pairs,
    findings_from_pairs,
    normalize_name,
)


def osa_reference(a: str, b: str) -> int:
    """Memoized transcription of the recursive OSA definition (test oracle)."""
    m, n = len(a), len(b)
    memo = [[-1] * (n + 1) for _ in range(m + 1)]

    def rec(i: int, j: int) -> int:
        cached = memo[i][j]
        if cached >= 0:
            return cached
        if i == 0:
            value = j
        elif j == 0:
            value = i
        else:
            cost = 0 if a[i - 1] == b[j - 1] else 1
            value = min(rec(i - 1, j) + 1, rec(i, j - 1) + 1, rec(i - 1, j - 1) + cost)
            if i > 1 and j > 1 and a[i - 1] == b[j - 2] and a[i - 2] == b[j - 1]:
                transposed = rec(i - 2, j - 2) + 1
                if transposed < value:
                    value = transposed
        memo[i][j] = value
        return value

    return rec(m, n)


def _ref(repository: Repository, publisher: str, name: str) -> ComponentRef:
    return ComponentRef(repository, publisher, name)


def test_dl_examples():
    assert dl_distance("lodash", "lodash") == 0
    assert dl_distance("lodash", "lodahs") == 1
    assert osa_reference("lodash", "lodahs") == 1
    assert dl_distance("ca", "abc") == 3
    assert osa_reference("ca", "abc") == 3
    assert dl_distance("", "") == 0
    assert dl_distance("", "abc") == 3
    assert dl_distance("ab", "ba") == 1


@given(
    st.text(alphabet="abcd", max_size=8),
    st.text(alphabet="abcd", max_size=8),
)
@settings(max_examples=300)
def test_dl_properties(a, b):
    d = dl_distance(a, b)
    assert d == dl_distance(b, a)
    assert d <= max(len(a), len(b))
    assert (d == 0) == (a == b)


# Edges of the bit-parallel form: more characters than one 64-bit word,
# characters outside ASCII (including one outside the BMP), runs of one
# character, and transpositions at either end.
_EDGE_STRINGS = st.one_of(
    st.text(alphabet="ab", min_size=60, max_size=80),
    st.text(alphabet="aé日\U0001F600", max_size=80),
    st.lists(
        st.tuples(st.sampled_from("aé"), st.integers(1, 30)), max_size=4
    ).map(lambda runs: "".join(ch * n for ch, n in runs)),
)


@st.composite
def _edge_pairs(draw) -> tuple[str, str]:
    a = draw(_EDGE_STRINGS)
    edit = draw(st.sampled_from(["swap-first", "swap-last", "swap-both", "other"]))
    if edit == "other" or len(a) < 2:
        return a, draw(_EDGE_STRINGS)
    b = a
    if edit in ("swap-first", "swap-both"):
        b = b[1] + b[0] + b[2:]
    if edit in ("swap-last", "swap-both"):
        b = b[:-2] + b[-1] + b[-2]
    return a, b


@given(_edge_pairs())
@settings(max_examples=150, deadline=None)
def test_dl_matches_reference_at_edges(pair):
    a, b = pair
    expected = osa_reference(a, b)
    assert dl_distance(a, b) == expected
    assert dl_distance(b, a) == expected


@st.composite
def _affixed_pairs(draw) -> tuple[str, str]:
    """Two strings sharing a prefix and a suffix around differing middles,
    sometimes with one adjacent pair swapped across an affix boundary."""
    text = st.text(alphabet="abc", max_size=6)
    prefix, suffix = draw(text), draw(text)
    a = prefix + draw(text) + suffix
    b = prefix + draw(text) + suffix
    boundary = draw(st.sampled_from([None, len(prefix), len(b) - len(suffix)]))
    if boundary is not None and 0 < boundary < len(b):
        b = b[:boundary - 1] + b[boundary] + b[boundary - 1] + b[boundary + 1:]
    return a, b


@given(_affixed_pairs())
@settings(max_examples=500)
def test_dl_with_shared_affixes_matches_table(pair):
    a, b = pair
    expected = osa_table(a, b)
    assert dl_distance(a, b) == expected
    assert dl_distance(b, a) == expected


def test_dl_matches_reference_small_exhaustive():
    strings = [""]
    for length in range(1, 5):
        strings += ["".join(p) for p in itertools.product("ab", repeat=length)]
    for a in strings:
        for b in strings:
            assert dl_distance(a, b) == osa_reference(a, b), (a, b)


def test_find_near_pairs_single_insertion():
    records = [
        NameRecord("serverless-app", NameKind.IMAGE_NAME, _ref(Repository.DOCKER_HUB, "a", "serverless-app")),
        NameRecord("serverless-apps", NameKind.IMAGE_NAME, _ref(Repository.DOCKER_HUB, "b", "serverless-apps")),
        NameRecord("redis", NameKind.IMAGE_NAME, _ref(Repository.DOCKER_HUB, "c", "redis")),
    ]
    scan = find_near_pairs(records, max_distance=1)
    assert len(scan.pairs) == 1
    assert scan.pairs[0].distance == 1
    assert {scan.pairs[0].a.name, scan.pairs[0].b.name} == {"serverless-app", "serverless-apps"}


def test_find_near_pairs_single_record():
    records = [NameRecord("solo", NameKind.IMAGE_NAME, _ref(Repository.GITHUB, "p", "solo"))]
    scan = find_near_pairs(records, max_distance=2)
    assert scan.pairs == [] and scan.collisions == []


def test_identical_names_reported_as_collision():
    records = [
        NameRecord("tool", NameKind.IMAGE_NAME, _ref(Repository.DOCKER_HUB, "alice", "tool")),
        NameRecord("tool", NameKind.IMAGE_NAME, _ref(Repository.DOCKER_HUB, "bob", "tool")),
    ]
    scan = find_near_pairs(records, max_distance=1)
    assert scan.pairs == []
    assert len(scan.collisions) == 1
    assert scan.collisions[0].distance == 0


def test_same_publisher_duplicate_not_collision():
    records = [
        NameRecord("bluefin", NameKind.USERNAME, _ref(Repository.GITHUB, "bluefin", "one")),
        NameRecord("bluefin", NameKind.USERNAME, _ref(Repository.GITHUB, "bluefin", "two")),
    ]
    scan = find_near_pairs(records, max_distance=1)
    assert scan.collisions == [] and scan.pairs == []


def test_kinds_compared_separately():
    records = [
        NameRecord("alpha", NameKind.USERNAME, _ref(Repository.GITHUB, "alpha", "x")),
        NameRecord("alphas", NameKind.IMAGE_NAME, _ref(Repository.GITHUB, "other", "alphas")),
    ]
    assert find_near_pairs(records, max_distance=1).pairs == []


def _random_records(rng: random.Random, count: int, stem: str = "") -> list[NameRecord]:
    # Reused names, a small publisher pool and both kinds exercise
    # collisions and the same-publisher and cross-kind exclusions.
    records = []
    for i in range(count):
        if records and rng.random() < 0.2:
            name = rng.choice(records).name
        else:
            name = stem + "".join(rng.choices("abcdefgh", k=rng.randint(3, 9)))
            if stem and rng.random() < 0.5:  # an edit inside the stem
                at = rng.randrange(len(stem))
                name = name[:at] + rng.choice("abcdefgh") + name[at + 1:]
        kind = rng.choice(list(NameKind))
        publisher = f"P{rng.randint(0, count // 4)}"
        records.append(NameRecord(name, kind, _ref(Repository.DOCKER_HUB, publisher, f"n{i}")))
    return records


def _as_multiset(pairs: list[NearPair]) -> Counter:
    return Counter((p.a, p.b, p.distance) for p in pairs)


@pytest.mark.parametrize("seed,count,max_distance,stem", [
    (1, 120, 1, ""), (2, 150, 2, ""), (3, 80, 3, ""),
    (4, 60, 4, "serverless-image-"), (5, 60, 5, "serverless-image-"),
], ids=["1-120-1", "2-150-2", "3-80-3", "4-60-4-stem", "5-60-5-stem"])
def test_index_equals_brute_force(seed, count, max_distance, stem):
    records = _random_records(random.Random(seed), count, stem)
    scan = find_near_pairs(records, max_distance)
    pairs, collisions = all_pairs_oracle(records, max_distance)
    assert pairs and collisions
    assert _as_multiset(scan.pairs) == pairs
    assert _as_multiset(scan.collisions) == collisions
    assert scan.pairs == sorted(scan.pairs, key=NearPair.sort_key)
    assert scan.collisions == sorted(scan.collisions, key=NearPair.sort_key)


def _expand_then_sort(records: list[NameRecord], max_distance: int) -> typosquat.NearPairScan:
    """Every record pair of every near name pair, then one sort by NearPair.sort_key."""
    def ordered(a: NameRecord, b: NameRecord) -> tuple[NameRecord, NameRecord]:
        return (a, b) if (a.name, a.owner.sort_key()) <= (b.name, b.owner.sort_key()) else (b, a)

    scan = typosquat.NearPairScan()
    for kind in NameKind:
        by_name: dict[str, list[NameRecord]] = {}
        for record in records:
            if record.kind is kind:
                by_name.setdefault(record.name, []).append(record)
        names = sorted(by_name)
        for name in names:
            for a, b in itertools.combinations(by_name[name], 2):
                if normalize_name(a.owner.publisher) != normalize_name(b.owner.publisher):
                    scan.collisions.append(NearPair(*ordered(a, b), 0))
        for name_a, name_b in itertools.combinations(names, 2):
            distance = osa_table(name_a, name_b)
            if 1 <= distance <= max_distance:
                for a in by_name[name_a]:
                    for b in by_name[name_b]:
                        scan.pairs.append(NearPair(*ordered(a, b), distance))
    scan.pairs.sort(key=NearPair.sort_key)
    scan.collisions.sort(key=NearPair.sort_key)
    return scan


@pytest.mark.parametrize("max_distance", [1, 2, 3])
def test_near_pairs_come_out_in_sorted_order_ties_included(max_distance):
    # Owners whose versions are None and "" share a sort key but differ, so
    # the order of tied pairs is visible in the lists.
    rng = random.Random(f"report-order-{max_distance}")
    for _ in range(20):
        owners = [
            ComponentRef(rng.choice(list(Repository)), f"P{rng.randint(0, 3)}",
                         f"n{rng.randint(0, 3)}", rng.choice([None, "", "1"]))
            for _ in range(8)
        ]
        names = ["".join(rng.choices("abc", k=rng.randint(2, 5))) for _ in range(10)]
        records = [
            NameRecord(rng.choice(names), rng.choice(list(NameKind)), rng.choice(owners))
            for _ in range(rng.randint(2, 40))
        ]
        expected = _expand_then_sort(records, max_distance)
        scan = find_near_pairs(records, max_distance)
        assert scan.pairs == expected.pairs
        assert scan.collisions == expected.collisions


def test_keys_per_name_bounded_for_any_distance():
    assert [typosquat._prefix_length(k) for k in range(1, 9)] == [16, 16, 9, 7, 7, 7, 7, 7]
    name = "abcdefghijklmnopqrstuvwxyz"  # distinct letters give the most keys
    for max_distance in range(1, 9):
        keys = typosquat._deletion_keys(name[: typosquat._prefix_length(max_distance)], max_distance)
        assert len(keys) <= typosquat.MAX_KEYS == 137


@pytest.mark.parametrize("max_distance", [1, 2])
def test_long_names_found_quickly(monkeypatch, max_distance):
    # The index keys only name[:PREFIX], and the verify is bit-parallel,
    # so two very long names cost milliseconds: not a 5,000 x 5,000 table,
    # nor the 12.5 million two-deletion keys of a whole 5,000-character name.
    deletion_keys = typosquat._deletion_keys

    def bounded(text: str, max_deletions: int) -> set[str]:
        assert len(text) <= typosquat.PREFIX
        return deletion_keys(text, max_deletions)

    monkeypatch.setattr(typosquat, "_deletion_keys", bounded)
    rng = random.Random(4)
    base = "".join(rng.choices("abcdefgh", k=5000))
    edited = base[:2500] + "z" + base[2501:]
    records = [
        NameRecord(name, NameKind.IMAGE_NAME, _ref(Repository.DOCKER_HUB, f"p{i}", f"n{i}"))
        for i, name in enumerate([base, edited, "short"])
    ]
    started = time.perf_counter()
    scan = find_near_pairs(records, max_distance)
    elapsed = time.perf_counter() - started
    assert [(p.a.name, p.b.name, p.distance) for p in scan.pairs] == [(base, edited, 1)]
    assert elapsed < 2.0, elapsed


def test_suffix_names_verify_a_fraction_of_all_pairs(monkeypatch):
    # Names that differ only by a numeric suffix, as in the names benchmark:
    # the index must not fall back to comparing every pair.
    names = [f"qzxkvbw-fn{i}" for i in range(1, 201)]
    records = [
        NameRecord(name, NameKind.IMAGE_NAME, _ref(Repository.DOCKER_HUB, f"p{i % 40}", name))
        for i, name in enumerate(names)
    ]
    calls = 0
    verify = typosquat.dl_distance

    def counted(a: str, b: str) -> int:
        nonlocal calls
        calls += 1
        return verify(a, b)

    monkeypatch.setattr(typosquat, "dl_distance", counted)
    scan = find_near_pairs(records, max_distance=1)
    pairs, _ = all_pairs_oracle(records, 1)
    assert _as_multiset(scan.pairs) == pairs
    all_pairs = len(names) * (len(names) - 1) // 2
    assert calls < all_pairs / 4, (calls, all_pairs)


def test_length_prefilter_soundness():
    # Any true near pair has length difference <= max_distance, so the filter
    # can only remove non-pairs.
    rng = random.Random(9)
    for _ in range(300):
        a = "".join(rng.choices("ab", k=rng.randint(0, 8)))
        b = "".join(rng.choices("ab", k=rng.randint(0, 8)))
        if dl_distance(a, b) <= 2:
            assert abs(len(a) - len(b)) <= 2


def _cdf(records: list[NameRecord], max_distance: int) -> list[tuple[int, float]]:
    """distance_cdf given the scan it reads (no pair is at d >= 1 when k = 0)."""
    scan = find_near_pairs(records, max_distance) if max_distance else NearPairScan()
    return distance_cdf(records, scan, max_distance)


def test_distance_cdf_examples():
    records = [
        NameRecord(n, NameKind.IMAGE_NAME, _ref(Repository.GITHUB, f"p{i}", n))
        for i, n in enumerate(["ab", "ba", "zz"])
    ]
    cdf = _cdf(records, 2)
    assert cdf[0] == (0, 0.0)
    assert cdf[1][1] == pytest.approx(1 / 3)
    assert cdf[2] == (2, 1.0)


def test_distance_cdf_all_far():
    records = [
        NameRecord(n, NameKind.IMAGE_NAME, _ref(Repository.GITHUB, f"p{i}", n))
        for i, n in enumerate(["aaaaaa", "bbbbbb", "cccccc"])
    ]
    assert _cdf(records, 1) == [(0, 0.0), (1, 0.0)]


def test_distance_cdf_needs_two():
    with pytest.raises(EmptyInputError):
        _cdf([], 1)
    solo = [NameRecord("x", NameKind.IMAGE_NAME, _ref(Repository.GITHUB, "p", "x"))]
    with pytest.raises(EmptyInputError):
        _cdf(solo, 1)
    username = NameRecord("x", NameKind.USERNAME, _ref(Repository.GITHUB, "x", "y"))
    with pytest.raises(EmptyInputError):
        _cdf(solo + [username], 1)  # two records, but no same-kind pair


def _distance_cdf_oracle(records: list[NameRecord], max_distance: int) -> list[tuple[int, float]]:
    """OSA on every same-kind record pair, counted per distance."""
    counts: Counter = Counter()
    num_pairs = 0
    for a, b in itertools.combinations(records, 2):
        if a.kind is b.kind:
            num_pairs += 1
            counts[osa_table(a.name, b.name)] += 1
    cumulative = 0
    cdf = []
    for d in range(max_distance + 1):
        cumulative += counts[d]
        cdf.append((d, cumulative / num_pairs))
    return cdf


@pytest.mark.parametrize("max_distance", [0, 1, 2])
def test_distance_cdf_equals_all_pairs_oracle(max_distance):
    rng = random.Random(max_distance)
    for _ in range(30):
        pool = ["".join(rng.choices("abc", k=rng.randint(1, 5))) for _ in range(rng.randint(1, 8))]
        records = [
            NameRecord(
                rng.choice(pool),
                rng.choice(list(NameKind)),
                _ref(Repository.GITHUB, f"p{i}", f"n{i}"),
            )
            for i in range(rng.randint(3, 30))
        ]
        assert _cdf(records, max_distance) == _distance_cdf_oracle(records, max_distance)


def test_build_name_records_skips_aws_sar():
    refs = [
        _ref(Repository.AWS_SAR, "amazon", "resizer"),
        _ref(Repository.DOCKER_HUB, "Alice", "ns/Tool"),
    ]
    records = build_name_records(refs)
    assert all(r.owner.repository is not Repository.AWS_SAR for r in records)
    names = {(r.kind, r.name) for r in records}
    assert names == {(NameKind.USERNAME, "alice"), (NameKind.IMAGE_NAME, "tool")}
    included = build_name_records(refs, include_aws_sar=True)
    assert any(r.owner.repository is Repository.AWS_SAR for r in included)


def test_normalize_name():
    assert normalize_name("Registry.io/NS/Image") == "image"
    assert normalize_name("  MixedCase ") == "mixedcase"


def test_findings_from_pairs():
    records = [
        NameRecord("tool", NameKind.IMAGE_NAME, _ref(Repository.DOCKER_HUB, "alice", "tool")),
        NameRecord("tools", NameKind.IMAGE_NAME, _ref(Repository.DOCKER_HUB, "bob", "tools")),
        NameRecord("tool", NameKind.IMAGE_NAME, _ref(Repository.DOCKER_HUB, "carol", "tool")),
    ]
    scan = find_near_pairs(records, max_distance=1)
    findings = findings_from_pairs(scan)
    rule_ids = sorted(f.rule_id for f in findings)
    assert rule_ids.count("V5-NEAR-NAME") == 2  # tool~tools twice (two owners of "tool")
    assert rule_ids.count("V5-NAME-COLLISION") == 1


def _reference_findings(scan: typosquat.NearPairScan) -> list[Finding]:
    """One keyword-built finding per pair, formatting every text afresh."""
    findings = []
    for pair in scan.pairs:
        findings.append(Finding(
            rule_id="V5-NEAR-NAME",
            vector=AttackVector.V5,
            severity=Severity.MEDIUM,
            component=pair.a.owner,
            location="component.meta",
            evidence=(
                f"{pair.a.kind.value} {pair.a.name!r} is within edit distance {pair.distance} "
                f"of {pair.b.name!r} ({pair.b.owner.slug})"
            ),
            remediation="review whether the similar name is a squatting attempt",
        ))
    for pair in scan.collisions:
        findings.append(Finding(
            rule_id="V5-NAME-COLLISION",
            vector=AttackVector.V5,
            severity=Severity.MEDIUM,
            component=pair.a.owner,
            location="component.meta",
            evidence=(
                f"{pair.a.kind.value} {pair.a.name!r} is also published by {pair.b.owner.slug}"
            ),
            remediation="confirm both publishers are legitimate owners of the name",
        ))
    return findings


@pytest.mark.parametrize("max_distance", [1, 2, 3])
def test_findings_from_pairs_equal_the_per_pair_reference(max_distance):
    records = _random_records(random.Random(f"findings-{max_distance}"), 90)
    scan = find_near_pairs(records, max_distance)
    assert scan.pairs and scan.collisions
    findings = findings_from_pairs(scan)
    reference = _reference_findings(scan)
    assert len(findings) == len(reference)
    for finding, expected in zip(findings, reference):
        assert finding == expected
