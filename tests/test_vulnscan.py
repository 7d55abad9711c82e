"""Inventory extraction, advisory matching, FP heuristic, Jaccard, imports."""
from __future__ import annotations

import builtins
import copy
import io
import json
import os
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slsa_audit import ingest, vulnscan
from slsa_audit.demo import build_demo_db
from slsa_audit.ingest import walk_files
from slsa_audit.model import Severity, severity_band
from slsa_audit.vulnscan import (
    SOURCE_EXTENSIONS,
    Advisory,
    Ecosystem,
    ExternalScanFormatError,
    FpClass,
    ManifestError,
    PackageInventory,
    VersionInterval,
    VulnMatch,
    _import_pattern,
    advisory_from_osv,
    cvss3_base_score,
    extract_inventory,
    filter_false_positives,
    import_external_scan,
    index_advisories,
    jaccard_similarity,
    load_advisory_db,
    mark_source_references,
    match_advisories,
    parse_manifest,
    parse_version,
)

LODASH_OSV = {
    "id": "CVE-2019-10744",
    "summary": "prototype pollution",
    "affected": [
        {
            "package": {"ecosystem": "npm", "name": "lodash"},
            "ranges": [{"type": "SEMVER", "events": [{"introduced": "0"}, {"fixed": "4.17.12"}]}],
        }
    ],
    "severity": [{"type": "CVSS_V3", "score": "9.1"}],
}

MINIMIST_OSV = {
    "id": "CVE-2021-44906",
    "affected": [
        {
            "package": {"ecosystem": "npm", "name": "minimist"},
            "ranges": [{"type": "SEMVER", "events": [{"introduced": "0"}, {"fixed": "1.2.6"}]}],
        }
    ],
    "severity": [{"type": "CVSS_V3", "score": "9.8"}],
}


# ---------------------------------------------------------------------------
# Versions
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "lower,higher",
    [
        ("1.0.0", "1.0.1"),
        ("1.0.1", "1.0.1f"),
        ("1.0.1f", "1.0.1g"),
        ("1.2.3-alpha", "1.2.3"),
        ("1.2.3-alpha.1", "1.2.3-alpha.2"),
        ("1.2.3-1", "1.2.3-alpha"),
        ("4.17.11", "4.17.12"),
        ("0.9.9", "1.0.0"),
        ("1.2", "1.2.1"),
    ],
)
def test_version_precedence(lower, higher):
    assert parse_version(lower) < parse_version(higher)
    assert not parse_version(higher) < parse_version(lower)


def test_version_v_prefix_and_fallback_notice():
    assert not parse_version("v1.2.3") < parse_version("1.2.3")
    assert not parse_version("1.2.3") < parse_version("v1.2.3")
    parsed = parse_version("1.0.1f")
    assert parsed.fallback
    notices: list[str] = []
    index = index_advisories(advisory_from_osv(LODASH_OSV))
    match_advisories(_lodash_inventory("1.0.1f"), index, notices)
    assert notices and "fallback" in notices[0]


def test_version_digits_are_ascii():
    # "٣" is an Arabic-Indic three, "²" a superscript two: str.isdigit accepts both.
    arabic = parse_version("1.٣")
    assert arabic.fallback
    assert arabic.key != parse_version("1.3").key
    assert parse_version("1.3") < arabic
    assert parse_version("1.²").segments == ((0, 1), (1, "²"))


def test_version_empty():
    with pytest.raises(ValueError):
        parse_version("   ")


def test_interval_bounds():
    interval = VersionInterval(low="1.0.0", high="2.0.0")
    assert interval.contains(parse_version("1.0.0"))
    assert interval.contains(parse_version("1.9.9"))
    assert not interval.contains(parse_version("2.0.0"))
    exclusive_low = VersionInterval(low="1.0.0", low_inclusive=False, high="2.0.0", high_inclusive=True)
    assert not exclusive_low.contains(parse_version("1.0.0"))
    assert exclusive_low.contains(parse_version("2.0.0"))
    with pytest.raises(ValueError):
        VersionInterval(low="2.0.0", high="1.0.0")


def _reference_key(version) -> tuple:
    """Version._cmp_key as it was computed on every comparison."""
    pre = ((1,),) if version.prerelease is None else ((0,), *version.prerelease)
    return (version.segments, pre)


def _reference_contains(interval: VersionInterval, text: str) -> bool:
    """VersionInterval.contains as it was, comparing reference keys."""
    key = _reference_key(parse_version(text))
    if interval.low is not None:
        low = _reference_key(parse_version(interval.low))
        if key < low or (not interval.low_inclusive and not low < key):
            return False
    if interval.high is not None:
        high = _reference_key(parse_version(interval.high))
        if high < key or (not interval.high_inclusive and not key < high):
            return False
    return True


_IDENT = st.text(alphabet="0123456789abz-", min_size=1, max_size=4)
_SEMVER = st.builds(
    lambda v, nums, pre, build: v + ".".join(map(str, nums)) + pre + build,
    st.sampled_from(("", "v")),
    st.lists(st.integers(0, 12), min_size=1, max_size=3),
    st.one_of(st.just(""), st.lists(_IDENT, min_size=1, max_size=3).map(lambda p: "-" + ".".join(p))),
    st.sampled_from(("", "+build.5")),
)
# Mostly not semver, so parse_version takes the segment fallback.
_FALLBACK = st.text(alphabet="0123456789abz.-+v", min_size=1, max_size=10).filter(str.strip)
_VERSION_TEXT = st.one_of(_SEMVER, _FALLBACK)


@given(_VERSION_TEXT, _VERSION_TEXT)
def test_version_order_matches_the_reference_key(a, b):
    va, vb = parse_version(a), parse_version(b)
    ka, kb = _reference_key(va), _reference_key(vb)
    assert va.key == ka
    assert (va < vb, vb < va, va <= vb, vb <= va) == (ka < kb, kb < ka, ka <= kb, kb <= ka)


@given(_VERSION_TEXT, _VERSION_TEXT, st.booleans(), st.booleans(), st.lists(_VERSION_TEXT, max_size=6))
def test_interval_checks_match_the_reference(a, b, low_inclusive, high_inclusive, probes):
    if _reference_key(parse_version(b)) < _reference_key(parse_version(a)):
        with pytest.raises(ValueError):
            VersionInterval(low=a, low_inclusive=low_inclusive, high=b, high_inclusive=high_inclusive)
        a, b = b, a
    intervals = [
        VersionInterval(low=a, low_inclusive=low_inclusive, high=b, high_inclusive=high_inclusive),
        VersionInterval(low=a, low_inclusive=low_inclusive),
        VersionInterval(high=b, high_inclusive=high_inclusive),
        VersionInterval(),
    ]
    for interval in intervals:
        for text in (a, b, *probes):
            assert interval.contains(parse_version(text)) == _reference_contains(interval, text)


def test_interval_bounds_match_the_reference():
    cases = [
        VersionInterval(low="1.0.0", high="2.0.0"),
        VersionInterval(low="1.0.0", low_inclusive=False, high="2.0.0", high_inclusive=True),
        VersionInterval(high="4.17.12"),
        VersionInterval(low="1.0.0", high="1.5.0", high_inclusive=True),
    ]
    probes = ("0.9.9", "1.0.0", "1.0.1f", "1.2.3-alpha", "1.5.0", "1.5.1", "1.9.9", "2.0.0", "4.17.11")
    for interval in cases:
        for text in probes:
            assert interval.contains(parse_version(text)) == _reference_contains(interval, text)


def test_osv_loader():
    advisories = advisory_from_osv(LODASH_OSV)
    assert len(advisories) == 1
    advisory = advisories[0]
    assert advisory.id == "CVE-2019-10744"
    assert advisory.ecosystem is Ecosystem.NPM
    assert advisory.cvss_score == 9.1
    assert advisory.affected[0].high == "4.17.12"


def test_osv_last_affected():
    doc = {
        "id": "X-1",
        "affected": [
            {
                "package": {"ecosystem": "pypi", "name": "p"},
                "ranges": [
                    {
                        "type": "SEMVER",
                        "events": [{"introduced": "1.0.0"}, {"last_affected": "1.5.0"}],
                    }
                ],
            }
        ],
    }
    advisory = advisory_from_osv(doc)[0]
    assert advisory.affected[0].contains(parse_version("1.5.0"))
    assert not advisory.affected[0].contains(parse_version("1.5.1"))
    assert advisory.cvss_score is None


def test_load_advisory_db(tmp_path):
    (tmp_path / "a.json").write_text(json.dumps(LODASH_OSV))
    (tmp_path / "b.json").write_text("{broken")
    notices: list[str] = []
    advisories = load_advisory_db(tmp_path, notices)
    assert [a.id for a in advisories] == ["CVE-2019-10744"]
    assert len(notices) == 1
    with pytest.raises(FileNotFoundError):
        load_advisory_db(tmp_path / "missing")


def _reference_load_advisory_db(db_dir, notices: list[str]) -> list[Advisory]:
    """load_advisory_db as it read files with a text-mode open and json.load."""
    advisories: list[Advisory] = []
    for path in walk_files(db_dir, notices, os.path.join(db_dir, "")):
        if not path.endswith(".json"):
            continue
        try:
            with open(path, encoding="utf-8") as handle:
                doc = json.load(handle)
            advisories.extend(advisory_from_osv(doc))
        except (ValueError, KeyError, TypeError, AttributeError) as exc:  # not OSV-shaped
            notices.append(f"skipped advisory {path.rpartition('/')[2]}: {exc}")
    return advisories


def _big_advisory(summary_bytes: int) -> bytes:
    return json.dumps({**LODASH_OSV, "summary": "x" * summary_bytes}).encode()


_LODASH_BYTES = json.dumps(LODASH_OSV).encode()
_LOADER_FILES = {
    "bom": {"a.json": b"\xef\xbb\xbf" + _LODASH_BYTES, "b.json": json.dumps(MINIMIST_OSV).encode()},
    "utf-16": {"a.json": json.dumps(LODASH_OSV).encode("utf-16")},
    "invalid-utf-8": {"a.json": b'{"id": "\xff\xfe"}', "b.json": _LODASH_BYTES},
    "empty": {"a.json": b"", "b.json": _LODASH_BYTES},
    "crlf": {"a.json": json.dumps(LODASH_OSV, indent=2).replace("\n", "\r\n").encode()},
    # The summary spans two chunks of the reader, and a bad byte sits past the first.
    "large": {
        "a.json": _big_advisory(ingest._READ_CHUNK * 2),
        "b.json": _big_advisory(ingest._READ_CHUNK + 100)[:-3] + b"\xff" + b"}",
    },
}


@pytest.mark.parametrize(
    "case", [*_LOADER_FILES, "demo", "directory", "dangling-symlink", "symlink"]
)
def test_load_advisory_db_matches_the_text_mode_reference(tmp_path, case):
    db = tmp_path / "db"
    if case == "demo":
        build_demo_db(db)
    else:
        db.mkdir()
        (db / "z.json").write_bytes(json.dumps(MINIMIST_OSV).encode())
    for name, data in _LOADER_FILES.get(case, {}).items():
        (db / name).write_bytes(data)
    if case == "directory":
        (db / "x.json").mkdir()
        (db / "x.json" / "inner.json").write_bytes(_LODASH_BYTES)
    elif case.endswith("symlink"):
        (db / "x.json").symlink_to(db / ("missing.json" if case.startswith("dangling") else "z.json"))
    notices: list[str] = []
    reference_notices: list[str] = []
    advisories = load_advisory_db(db, notices)
    assert advisories == _reference_load_advisory_db(db, reference_notices)
    assert notices == reference_notices
    assert advisories
    if case.endswith("symlink"):  # a symlinked advisory is skipped, its target not read twice
        assert notices == [f"{db}/x.json: not a regular file (symlink); skipped"]
        assert [a.id for a in advisories] == [MINIMIST_OSV["id"]]


def test_load_advisory_db_quotes_the_char_offset_of_the_raw_text(tmp_path):
    # Text mode turned CRLF into LF, so its notices counted one char less per line break.
    (tmp_path / "a.json").write_bytes(b'{\r\n  "id": "X",\r\n  oops\r\n}\r\n')
    notices: list[str] = []
    reference_notices: list[str] = []
    assert load_advisory_db(tmp_path, notices) == _reference_load_advisory_db(tmp_path, reference_notices)
    assert notices == [reference_notices[0].replace("(char 17)", "(char 19)")]


def test_load_advisory_db_opens_each_file_once_without_text_mode(tmp_path, monkeypatch):
    build_demo_db(tmp_path)
    names = [name for name in os.listdir(tmp_path) if name.endswith(".json")]
    opened: list[str] = []
    real_open = os.open

    def counting_open(path, *args, **kwargs):
        opened.append(os.path.basename(path))
        return real_open(path, *args, **kwargs)

    def no_open(*args, **kwargs):
        raise AssertionError("text-mode open used")

    monkeypatch.setattr(os, "open", counting_open)
    monkeypatch.setattr(builtins, "open", no_open)
    advisories = load_advisory_db(tmp_path)
    monkeypatch.undo()
    assert sorted(opened) == sorted(names)
    assert len(advisories) == len(names)


@pytest.mark.parametrize("score", ["nan", "NaN", "inf", "-inf", "11", "10.05", "-1", 12])
def test_cvss_score_outside_0_to_10_skips_its_file(tmp_path, score):
    (tmp_path / "a.json").write_text(json.dumps({**LODASH_OSV, "severity": [{"score": score}]}))
    (tmp_path / "b.json").write_text(json.dumps(MINIMIST_OSV))
    notices: list[str] = []
    assert [a.id for a in load_advisory_db(tmp_path, notices)] == ["CVE-2021-44906"]
    assert notices == [f"skipped advisory a.json: CVSS score {score!r} is not a number in [0.0, 10.0]"]


@pytest.mark.parametrize("score", ["0", "0.0", "10", "10.0", "9.95"])
def test_cvss_score_bounds_load(score):
    doc = {**LODASH_OSV, "severity": [{"score": "high"}, {"score": score}]}
    assert advisory_from_osv(doc)[0].cvss_score == float(score)


# Vectors and their CVSS v3.1 base scores.
_CVSS3_GOLDEN = [
    ("AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H", 9.8),
    ("AV:N/AC:L/PR:N/UI:N/S:C/C:H/I:H/A:H", 10.0),
    ("AV:L/AC:L/PR:L/UI:N/S:U/C:H/I:H/A:H", 7.8),
    ("AV:N/AC:L/PR:N/UI:R/S:C/C:L/I:L/A:N", 6.1),
    ("AV:N/AC:L/PR:N/UI:N/S:U/C:N/I:N/A:N", 0.0),
    ("AV:N/AC:L/PR:N/UI:N/S:C/C:N/I:N/A:N", 0.0),
    ("AV:P/AC:H/PR:H/UI:R/S:U/C:L/I:N/A:N", 1.6),
]


@pytest.mark.parametrize("version", ["3.0", "3.1"])
@pytest.mark.parametrize("metrics,score", _CVSS3_GOLDEN)
def test_cvss3_base_score_golden_vectors(version, metrics, score):
    assert cvss3_base_score(f"CVSS:{version}/{metrics}") == score
    # Temporal and environmental metrics do not change the base score.
    assert cvss3_base_score(f"CVSS:{version}/{metrics}/E:P/RL:O/CR:H/MAV:L") == score


_IMPACT_LEVELS = ("N", "L", "H")
_CVSS3_METRICS = {
    "AV": "NALP", "AC": "LH", "PR": "NLH", "UI": "NR", "S": "UC",
    "C": _IMPACT_LEVELS, "I": _IMPACT_LEVELS, "A": _IMPACT_LEVELS,
}


def _cvss3_vector(values: dict[str, str]) -> str:
    return "CVSS:3.1/" + "/".join(f"{name}:{values[name]}" for name in _CVSS3_METRICS)


@settings(max_examples=300, deadline=None)
@given(
    values=st.fixed_dictionaries({name: st.sampled_from(list(v)) for name, v in _CVSS3_METRICS.items()}),
    raised=st.sampled_from("CIA"),
)
def test_cvss3_base_score_is_a_tenth_in_range_and_grows_with_impact(values, raised):
    score = cvss3_base_score(_cvss3_vector(values))
    assert 0.0 <= score <= 10.0 and round(score, 1) == score
    level = _IMPACT_LEVELS.index(values[raised])
    if level < len(_IMPACT_LEVELS) - 1:
        higher = {**values, raised: _IMPACT_LEVELS[level + 1]}
        assert cvss3_base_score(_cvss3_vector(higher)) >= score


@pytest.mark.parametrize("vector", [
    "CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H",  # A missing
    "CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H/A:H",  # A twice
    "CVSS:3.1/AV:X/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H",
    "CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H/",
    "CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H/ZZ:1",
    "AV:N/AC:L/Au:N/C:P/I:P/A:P",  # CVSS v2
    "CVSS:4.0/AV:N/AC:L/AT:N/PR:N/UI:N/VC:H/VI:H/VA:H/SC:N/SI:N/SA:N",
    "",
])
def test_a_vector_that_is_not_cvss3_is_not_scored(tmp_path, vector):
    with pytest.raises(ValueError):
        cvss3_base_score(vector)
    doc = {**LODASH_OSV, "severity": [{"type": "CVSS_V3", "score": vector}]}
    notices: list[str] = []
    (advisory,) = advisory_from_osv(doc, notices)
    assert advisory.cvss_score is None
    assert len(notices) == 1 and notices[0].startswith(
        f"advisory CVE-2019-10744: severity {vector!r} not scored ("
    ) and notices[0].endswith("); loaded as Unknown")
    (tmp_path / "a.json").write_text(json.dumps(doc))
    db_notices: list[str] = []
    assert load_advisory_db(tmp_path, db_notices) == [advisory] and db_notices == notices


def test_a_cvss3_vector_scores_its_advisory_and_a_later_entry_is_not_read():
    vector = "CVSS:3.1/AV:L/AC:L/PR:L/UI:N/S:U/C:H/I:H/A:H"
    notices: list[str] = []
    doc = {**LODASH_OSV, "severity": [
        {"type": "CVSS_V2", "score": "AV:N/AC:L/Au:N/C:P/I:P/A:P"},
        {"type": "CVSS_V3", "score": vector},
        {"type": "CVSS_V3", "score": "1.0"},
    ]}
    assert advisory_from_osv(doc, notices)[0].cvss_score == 7.8
    assert notices == []  # the advisory is scored, so the v2 entry costs no notice
    assert severity_band(7.8) is Severity.HIGH


def test_deeply_nested_advisory_file_is_skipped(tmp_path):
    (tmp_path / "a.json").write_text("[" * 200_000 + "]" * 200_000)
    (tmp_path / "b.json").write_text(json.dumps(MINIMIST_OSV))
    notices: list[str] = []
    assert [a.id for a in load_advisory_db(tmp_path, notices)] == ["CVE-2021-44906"]
    assert len(notices) == 1 and notices[0].startswith("skipped advisory a.json: ")


# ---------------------------------------------------------------------------
# Manifests
# ---------------------------------------------------------------------------


def test_requirements_pin():
    inventory = parse_manifest("requirements.txt", "urllib3==1.25.8\n", [])
    records = inventory.records()
    assert len(records) == 1
    assert records[0].name == "urllib3"
    assert records[0].versions == {"1.25.8"}
    assert records[0].ecosystem is Ecosystem.PYPI


def test_requirements_empty_and_comments():
    assert parse_manifest("requirements.txt", "", []).records() == []
    assert parse_manifest("requirements.txt", "# just a comment\n\n", []).records() == []


def test_requirements_unpinned_resolves_to_minimum():
    notices: list[str] = []
    inventory = parse_manifest("requirements.txt", "requests\nflask>=2.0\n", notices)
    by_name = {r.name: r for r in inventory.records()}
    assert by_name["requests"].versions == {"0.0.0"}
    assert by_name["flask"].versions == {"2.0"}
    assert any("unpinned" in n for n in notices)


def test_package_lock_v2():
    lock = json.dumps(
        {
            "lockfileVersion": 2,
            "packages": {
                "": {"name": "root"},
                "node_modules/lodash": {"version": "4.17.11"},
            },
        }
    )
    records = parse_manifest("package-lock.json", lock, []).records()
    assert [(r.name, sorted(r.versions)) for r in records] == [("lodash", ["4.17.11"])]


def test_package_lock_v1_nested():
    lock = json.dumps(
        {
            "dependencies": {
                "a": {"version": "1.0.0", "dependencies": {"b": {"version": "2.0.0"}}}
            }
        }
    )
    names = {r.name for r in parse_manifest("package-lock.json", lock, []).records()}
    assert names == {"a", "b"}


@pytest.mark.parametrize(
    "spec,expected",
    [
        ("^4.17.11", "4.17.11"),
        ("~1.2.3", "1.2.3"),
        (">=2.1.0", "2.1.0"),
        (">1.2.3", "1.2.4"),
        ("*", "0.0.0"),
        ("1.2.x", "1.2.0"),
        ("2", "2.0.0"),
        ("1.4.0", "1.4.0"),
    ],
)
def test_npm_range_minimum(spec, expected):
    manifest = json.dumps({"dependencies": {"pkg": spec}})
    records = parse_manifest("package.json", manifest, []).records()
    assert records[0].versions == {expected}


def test_npm_range_digits_are_ascii():
    # "١٧" is seventeen in Arabic-Indic digits, which int() reads as 17.
    notices: list[str] = []
    manifest = json.dumps({"dependencies": {"lodash": "^4.١٧.11"}})
    assert parse_manifest("package.json", manifest, notices).records() == []
    assert notices == ["package.json: cannot resolve npm range '^4.١٧.11' for lodash"]


def test_go_mod_version_digits_are_ascii():
    with pytest.raises(ManifestError, match="cannot parse require directive at line 1"):
        parse_manifest("go.mod", "require x v١.2.3\n", [])


def test_go_mod():
    text = (
        "module example.com/app\n\ngo 1.21\n\n"
        "require (\n\tgithub.com/gin-gonic/gin v1.4.0\n\tgolang.org/x/text v0.3.0 // indirect\n)\n"
        "require github.com/pkg/errors v0.9.1\n"
    )
    records = parse_manifest("go.mod", text, []).records()
    assert {(r.name, next(iter(r.versions))) for r in records} == {
        ("github.com/gin-gonic/gin", "1.4.0"),
        ("golang.org/x/text", "0.3.0"),
        ("github.com/pkg/errors", "0.9.1"),
    }


def test_os_packages():
    records = parse_manifest("os-packages.txt", "openssl=1.0.1f\ncurl=7.61.0\n", []).records()
    assert {(r.name, next(iter(r.versions))) for r in records} == {
        ("openssl", "1.0.1f"),
        ("curl", "7.61.0"),
    }


def test_manifest_syntax_error_names_line():
    with pytest.raises(ManifestError, match="line 2"):
        parse_manifest("os-packages.txt", "good=1.0\nbroken-line\n", [])
    with pytest.raises(ManifestError, match="line"):
        parse_manifest("package.json", "{not json", [])


@pytest.mark.parametrize("filename, text, where", [
    ("os-packages.txt", "openssl=1.1\n=1.0\n", "line 2"),
    ("package.json", '{"dependencies": {"": "1.0.0"}}', "dependencies"),
    ("package-lock.json", '{"dependencies": {"": {"version": "1.0.0"}}}', "dependencies"),
    ("package-lock.json", '{"packages": {"node_modules/": {"version": "1.0.0"}}}',
     "empty package name in packages entry 'node_modules/'"),
])
def test_empty_package_name_is_a_manifest_error(filename, text, where):
    with pytest.raises(ManifestError) as raised:
        parse_manifest(filename, text, [])
    assert str(raised.value).startswith(f"{filename}: ")
    assert where in str(raised.value)


_NPM_SEEDS = {
    "package.json": {
        "name": "app",
        "dependencies": {"lodash": "^4.17.11", "left-pad": "1.x"},
        "devDependencies": {"mocha": "~2.0.0"},
        "optionalDependencies": {"fsevents": "*"},
    },
    "package-lock.json": {
        "lockfileVersion": 2,
        "packages": {"": {"name": "app"}, "node_modules/lodash": {"version": "4.17.11"}},
        "dependencies": {"a": {"version": "1.0.0", "dependencies": {"b": {"version": "2.0.0"}}}},
    },
}
_JSON_VALUES = ([], ["1"], {}, {"version": 3}, {"dependencies": 1}, 5, 1.5, "x", "", None, True)
_JSON_BYTES = '{}[]":,.-0123456789eE \n'


def _json_nodes(doc, path=()):
    """The path to every value in a JSON document, the document's own first."""
    yield path
    if isinstance(doc, dict):
        children = doc.items()
    elif isinstance(doc, list):
        children = enumerate(doc)
    else:
        children = ()
    for key, value in children:
        yield from _json_nodes(value, (*path, key))


@pytest.mark.parametrize("filename", sorted(_NPM_SEEDS))
def test_mutated_npm_manifests_raise_only_manifest_errors(filename):
    rng = random.Random(f"mutate-{filename}")
    for _ in range(2000):
        doc = copy.deepcopy(_NPM_SEEDS[filename])
        for _ in range(rng.randint(1, 3)):
            path = rng.choice(list(_json_nodes(doc)))
            value = copy.deepcopy(rng.choice(_JSON_VALUES))
            if not path:
                doc = value
                continue
            parent = doc
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = value
        chars = list(json.dumps(doc))
        for _ in range(rng.choice((0, 0, 1, 2))):
            chars[rng.randrange(len(chars))] = rng.choice(_JSON_BYTES)
        try:
            inventory = parse_manifest(filename, "".join(chars), [])
        except ManifestError:
            continue
        # A version that is not a string would fail later, in advisory matching.
        assert all(isinstance(v, str) for r in inventory.records() for v in r.versions)
        assert all(r.name for r in inventory.records())


_TEXT_SEEDS = {
    "requirements.txt": (
        "requests==2.19.0\nflask>=2.0\nurllib3~=1.24.1  # pinned\n-r other.txt\n"
        "git+https://example.com/lib.git\nDjango>3.0\nsix\nPyYAML[extra] == 5.1 ; python_version<'3'\n"
    ),
    "go.mod": (
        "module example.com/app\n\ngo 1.20\n\nrequire (\n\tgithub.com/gin-gonic/gin v1.6.0\n"
        "\tgolang.org/x/text v0.3.2 // indirect\n)\n\nrequire github.com/pkg/errors v0.9.1\n"
    ),
    "os-packages.txt": "openssl=1.1.1k\n# base image\nbash = 5.1-2\nzlib=1.2.11 # pinned\n",
}
_TEXT_BYTES = " \t\n#=<>~!.,-/()[];:@v0123456789aZ'\"\\"


@pytest.mark.parametrize("filename", sorted(_TEXT_SEEDS))
def test_mutated_text_manifests_raise_only_manifest_errors(filename):
    rng = random.Random(f"mutate-{filename}")
    seed_lines = _TEXT_SEEDS[filename].splitlines()
    for _ in range(2000):
        lines = [rng.choice(seed_lines) if rng.random() < 0.2 else line for line in seed_lines]
        if rng.random() < 0.2:
            rng.shuffle(lines)
        chars = list("\n".join(lines))
        for _ in range(rng.randint(1, 4)):
            i = rng.randrange(len(chars) + 1)
            if rng.random() < 0.5 or i == len(chars):
                chars.insert(i, rng.choice(_TEXT_BYTES))
            else:
                chars[i] = rng.choice(_TEXT_BYTES)
        try:
            inventory = parse_manifest(filename, "".join(chars), [])
        except ManifestError:
            continue
        assert all(isinstance(v, str) for r in inventory.records() for v in r.versions)
        assert all(r.name for r in inventory.records())


def test_unsupported_kind_notice():
    notices: list[str] = []
    inventory = parse_manifest("Pipfile", "x", notices)
    assert inventory.records() == []
    assert notices and "unsupported" in notices[0]


def _reader(root):
    """A tree's reader: each file's UTF-8 text, undecodable bytes replaced."""
    return lambda rel: (root / rel).read_text(encoding="utf-8", errors="replace")


def test_extract_inventory_merges(tmp_path):
    (tmp_path / "package.json").write_text(json.dumps({"dependencies": {"lodash": "^4.17.11"}}))
    sub = tmp_path / "svc"
    sub.mkdir()
    (sub / "package.json").write_text(json.dumps({"dependencies": {"lodash": "4.17.20"}}))
    inventory = extract_inventory(walk_files(tmp_path), _reader(tmp_path), [])
    records = inventory.records()
    assert len(records) == 1
    assert records[0].versions == {"4.17.11", "4.17.20"}
    assert len(records[0].declared_in) == 2


def _tree_with_links(tmp_path):
    root = tmp_path / "tree"
    files = ["a/b.py", "a-b/c.py", "a.b/d.py", "a/b/c/deep.go", ".env", ".hidden/x.js", ".py",
             "file.", "Z.PY", "PACKAGE.JSON", "ab", "A/upper.ts"]
    for rel in files:
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_text("import requests\n")
    (root / "PACKAGE.JSON").write_text(json.dumps({"dependencies": {"lodash": "4.17.20"}}))
    outside = tmp_path / "outside"
    outside.mkdir()
    (outside / "o.py").write_text("import requests\n")
    (root / "linkdir").symlink_to(outside, target_is_directory=True)
    (root / "linkfile.py").symlink_to(root / "a" / "b.py")
    (root / "broken.py").symlink_to(tmp_path / "missing")
    return root


def test_walk_files_equal_sorted_rglob(tmp_path):
    root = _tree_with_links(tmp_path)
    expected = [
        p.relative_to(root).as_posix() for p in sorted(root.rglob("*"))
        if p.is_file() and not p.is_symlink()
    ]
    notices: list[str] = []
    files = walk_files(root, notices)
    assert files == expected
    assert files.index("a/b.py") < files.index("a-b/c.py")  # by parts, not by string
    assert "linkfile.py" not in files and "broken.py" not in files
    assert not any(rel.startswith("linkdir") for rel in files)
    assert notices == [
        f"{name}: not a regular file (symlink); skipped"
        for name in ("broken.py", "linkdir", "linkfile.py")
    ]
    missing: list[str] = []
    assert walk_files(tmp_path / "missing", missing, "missing/") == []
    assert missing == ["missing: cannot list: No such file or directory"]
    assert walk_files(root / "ab", [], "ab/") == []


@pytest.mark.parametrize(
    "extensions", [SOURCE_EXTENSIONS, (".", ".py"), ("", ".py")], ids=["default", "dot", "empty"]
)
def test_single_walk_feeds_both_tree_stages(tmp_path, extensions):
    root = _tree_with_links(tmp_path)
    files = walk_files(root)
    inventory = extract_inventory(files, _reader(root), [])
    inventory.add("requests", "1.0.0", Ecosystem.PYPI, "requirements.txt")
    assert [r.declared_in for r in inventory.records() if r.name == "lodash"] == [{"PACKAGE.JSON"}]
    expected = _marked_by_full_search(inventory, root, extensions)
    mark_source_references(inventory, files, _reader(root), extensions)
    assert {key: rec.referenced_in_source for key, rec in inventory.packages.items()} == expected
    # Path.suffix semantics: ".py", ".env" and "file." have no suffix; "Z.PY" counts.
    referenced = inventory.packages[("requests", Ecosystem.PYPI)].referenced_in_source
    assert "Z.PY" in referenced and "linkfile.py" not in referenced  # symlinks are skipped
    assert ({".py", ".env", "file."} <= referenced) is ("" in extensions)


def test_tree_stages_read_only_through_the_reader(tmp_path, monkeypatch):
    root = _tree_with_links(tmp_path)
    (root / "a" / "requirements.txt").write_text("requests==2.0.0\n")
    files = walk_files(root)
    on_disk = extract_inventory(files, _reader(root), [])
    mark_source_references(on_disk, files, _reader(root))
    texts = {rel: _reader(root)(rel) for rel in files}

    def no_open(*args, **kwargs):
        raise AssertionError("a V1 tree stage opened a file")

    with monkeypatch.context() as patched:
        for module, name in ((builtins, "open"), (io, "open"), (os, "open")):
            patched.setattr(module, name, no_open)
        in_memory = extract_inventory(files, texts.get, [])
        mark_source_references(in_memory, files, texts.get)
        unread = extract_inventory(files, lambda rel: None, [])
    assert in_memory == on_disk
    assert on_disk.packages[("requests", Ecosystem.PYPI)].referenced_in_source
    assert unread.packages == {}


# ---------------------------------------------------------------------------
# Source references (metadata-only heuristic)
# ---------------------------------------------------------------------------


def _inventory_with(name: str, ecosystem: Ecosystem = Ecosystem.PYPI) -> PackageInventory:
    inventory = PackageInventory()
    inventory.add(name, "1.0.0", ecosystem, "requirements.txt")
    return inventory


def test_source_reference_import(tmp_path):
    (tmp_path / "handler.py").write_text("import requests\n\nprint(requests)\n")
    inventory = _inventory_with("requests")
    mark_source_references(inventory, walk_files(tmp_path), _reader(tmp_path))
    record = inventory.records()[0]
    assert record.referenced_in_source == {"handler.py"}


def test_metadata_only_package(tmp_path):
    (tmp_path / "README.md").write_text("uses requests heavily\nimport requests\n")
    (tmp_path / "package.json").write_text(json.dumps({"dependencies": {"requests": "1.0.0"}}))
    inventory = _inventory_with("requests")
    mark_source_references(inventory, walk_files(tmp_path), _reader(tmp_path))
    assert inventory.records()[0].referenced_in_source == set()


def test_empty_tree_all_metadata_only(tmp_path):
    inventory = _inventory_with("requests")
    mark_source_references(inventory, walk_files(tmp_path), _reader(tmp_path))
    matches = match_advisories(
        inventory,
        index_advisories(
            [Advisory("X-1", Ecosystem.PYPI, "requests", (VersionInterval(high="2.0.0"),), 5.0)]
        ),
        [],
    )
    assert matches[0].fp_class is FpClass.METADATA_ONLY


def test_require_and_from_contexts(tmp_path):
    (tmp_path / "app.js").write_text("const _ = require('lodash');\n")
    (tmp_path / "mod.ts").write_text("import x from 'left-pad'\n")
    inventory = PackageInventory()
    inventory.add("lodash", "4.17.11", Ecosystem.NPM, "package.json")
    inventory.add("left-pad", "1.3.0", Ecosystem.NPM, "package.json")
    inventory.add("minimist", "1.2.5", Ecosystem.NPM, "package.json")
    mark_source_references(inventory, walk_files(tmp_path), _reader(tmp_path))
    by_name = {r.name: r for r in inventory.records()}
    assert by_name["lodash"].referenced_in_source == {"app.js"}
    assert by_name["left-pad"].referenced_in_source == {"mod.ts"}
    assert by_name["minimist"].referenced_in_source == set()


def test_gomod_bare_path_context(tmp_path):
    (tmp_path / "main.go").write_text('import "github.com/gin-gonic/gin"\n')
    inventory = PackageInventory()
    inventory.add("github.com/gin-gonic/gin", "1.4.0", Ecosystem.GOMOD, "go.mod")
    mark_source_references(inventory, walk_files(tmp_path), _reader(tmp_path))
    assert inventory.records()[0].referenced_in_source == {"main.go"}


def _marked_by_full_search(inventory: PackageInventory, root, source_extensions) -> dict:
    """Reference: compile every package's pattern and search every source file."""
    patterns = {key: _import_pattern(record) for key, record in inventory.packages.items()}
    marked = {key: set() for key in patterns}
    for path in sorted(root.rglob("*")):
        if path.is_file() and not path.is_symlink() and path.suffix.lower() in source_extensions:
            text = path.read_text(encoding="utf-8", errors="replace")
            for key, pattern in patterns.items():
                if pattern.search(text):
                    marked[key].add(str(path.relative_to(root)))
    return marked


HOSTILE_PACKAGES = [
    ("c++", Ecosystem.OS_PACKAGES),
    ("a.b", Ecosystem.PYPI),
    ("aXb", Ecosystem.PYPI),
    ("@scope/pkg", Ecosystem.NPM),
    ("github.com/acme/tool", Ecosystem.GOMOD),
    ("github.com/acme/tool/v2", Ecosystem.GOMOD),
    ("foo", Ecosystem.NPM),
    ("foo-bar", Ecosystem.NPM),
    ("foo", Ecosystem.GOMOD),
    ("Requests", Ecosystem.OS_PACKAGES),
    ("requests", Ecosystem.PYPI),
    ("", Ecosystem.OS_PACKAGES),  # os-packages.txt line "=1.0"
]

IMPORT_FORMS = [
    "import {name}",
    "import '{name}'",
    "from {name} import x",
    'from "{name}"',
    "require('{name}')",
    'require ( "{name}/lib/x" )',
    '"{name}"',
    "'{name}/sub'",
    "print('{name} is great')",  # outside an import context
    "# {name}",
    "import {name}_extra",
    "import x{name}",
]


@pytest.mark.parametrize("seed", range(6))
def test_source_marking_equals_full_search(tmp_path, seed):
    rng = random.Random(seed)
    names = [name for name, _ in HOSTILE_PACKAGES]
    for i in range(12):
        suffix = rng.choice([".py", ".js", ".ts", ".go", ".sh", ".md", ".txt", ".json", ".PY"])
        path = tmp_path / rng.choice(["", "src", "docs", "src/deep"]) / f"f{i}{suffix}"
        path.parent.mkdir(parents=True, exist_ok=True)
        lines = []
        for _ in range(rng.randint(0, 6)):
            name = rng.choice(names)
            name = rng.choice([name, name.upper(), name.swapcase()])
            lines.append(rng.choice(IMPORT_FORMS).format(name=name))
        path.write_text("\n".join(lines) + "\n")
    inventory = PackageInventory()
    for name, ecosystem in HOSTILE_PACKAGES:
        inventory.add(name, "1.0.0", ecosystem, "manifest")
    extensions = (".py", ".js", ".go") if seed % 2 else SOURCE_EXTENSIONS
    expected = _marked_by_full_search(inventory, tmp_path, extensions)
    mark_source_references(inventory, walk_files(tmp_path), _reader(tmp_path), extensions)
    assert {key: rec.referenced_in_source for key, rec in inventory.packages.items()} == expected
    assert any(expected.values())


# ---------------------------------------------------------------------------
# Matching
# ---------------------------------------------------------------------------


def _lodash_inventory(version: str) -> PackageInventory:
    inventory = PackageInventory()
    inventory.add("lodash", version, Ecosystem.NPM, "package-lock.json")
    return inventory


def test_match_lodash_critical():
    advisories = index_advisories(advisory_from_osv(LODASH_OSV))
    matches = match_advisories(_lodash_inventory("4.17.11"), advisories, [])
    assert len(matches) == 1
    assert matches[0].severity is Severity.CRITICAL
    assert matches[0].severity is severity_band(9.1)


def test_match_version_above_range():
    advisories = index_advisories(advisory_from_osv(LODASH_OSV))
    assert match_advisories(_lodash_inventory("4.17.21"), advisories, []) == []


def test_match_minimist():
    advisories = index_advisories(advisory_from_osv(MINIMIST_OSV))
    inventory = PackageInventory()
    inventory.add("minimist", "1.2.5", Ecosystem.NPM, "package.json")
    matches = match_advisories(inventory, advisories, [])
    assert len(matches) == 1 and matches[0].severity is Severity.CRITICAL


def test_match_mixed_case_pypi_advisory():
    doc = {
        "id": "CVE-2020-1747",
        "affected": [
            {
                "package": {"ecosystem": "PyPI", "name": "PyYAML"},
                "ranges": [
                    {"type": "SEMVER", "events": [{"introduced": "0"}, {"fixed": "5.3.1"}]}
                ],
            }
        ],
    }
    advisories = index_advisories(advisory_from_osv(doc))
    inventory = parse_manifest("requirements.txt", "PyYAML==5.3\n", [])
    matches = match_advisories(inventory, advisories, [])
    assert [m.advisory_id for m in matches] == ["CVE-2020-1747"]


def test_match_excludes_unparseable_version():
    inventory = PackageInventory()
    inventory.add("weird", "", Ecosystem.NPM, "package.json")
    inventory.packages[("weird", Ecosystem.NPM)].versions = {""}
    notices: list[str] = []
    matches = match_advisories(
        inventory,
        index_advisories([Advisory("X-2", Ecosystem.NPM, "weird", (VersionInterval(),), 5.0)]),
        notices,
    )
    assert matches == []
    assert any("unparseable" in n for n in notices)


def _random_instance(rng: random.Random):
    ecosystems = list(Ecosystem)
    inventory = PackageInventory()
    names = [f"pkg{i}" for i in range(rng.randint(1, 20))]
    for name in names:
        eco = rng.choice(ecosystems)
        for _ in range(rng.randint(1, 2)):
            version = f"{rng.randint(0, 3)}.{rng.randint(0, 9)}.{rng.randint(0, 9)}"
            inventory.add(name, version, eco, "m.txt")
    advisories = []
    for i in range(rng.randint(0, 50)):
        low = f"{rng.randint(0, 2)}.{rng.randint(0, 9)}.0"
        high = f"{rng.randint(2, 4)}.{rng.randint(0, 9)}.0"
        if parse_version(high) < parse_version(low):
            low, high = high, low
        advisories.append(
            Advisory(
                id=f"ADV-{i}",
                ecosystem=rng.choice(ecosystems),
                package_name=rng.choice(names),
                affected=(VersionInterval(low=low, high=high),),
                cvss_score=round(rng.uniform(0.1, 10.0), 1),
            )
        )
    return inventory, advisories


def _brute_force_matches(inventory: PackageInventory, advisories) -> set[tuple]:
    found = set()
    for record in inventory.packages.values():
        for advisory in advisories:
            if advisory.ecosystem is not record.ecosystem:
                continue
            if advisory.package_name != record.name:
                continue
            for version in record.versions:
                parsed = parse_version(version)
                if any(interval.contains(parsed) for interval in advisory.affected):
                    found.add((advisory.id, record.name, version, record.ecosystem))
    return found


def test_match_equals_brute_force_sample():
    rng = random.Random(42)
    for _ in range(40):
        inventory, advisories = _random_instance(rng)
        matches = match_advisories(inventory, index_advisories(advisories), [])
        got = {(m.advisory_id, m.package_name, m.package_version, m.ecosystem) for m in matches}
        assert got == _brute_force_matches(inventory, advisories)


def test_match_monotone_under_db_growth():
    rng = random.Random(7)
    inventory, advisories = _random_instance(rng)
    base = {
        (m.advisory_id, m.package_name, m.package_version)
        for m in match_advisories(inventory, index_advisories(advisories), [])
    }
    extra = Advisory("ADV-NEW", Ecosystem.NPM, "pkg0", (VersionInterval(),), 5.0)
    grown = {
        (m.advisory_id, m.package_name, m.package_version)
        for m in match_advisories(inventory, index_advisories(advisories + [extra]), [])
    }
    assert base <= grown


def _reference_index(advisories):
    """index_advisories as it was keyed by (ecosystem, name): the oracle."""
    index = {}
    for advisory in advisories:
        index.setdefault((advisory.ecosystem, advisory.package_name), []).append(advisory)
    return index


def _reference_match(inventory, index, notices):
    """match_advisories over a `_reference_index`, deduplicating on
    (advisory, package, version, ecosystem) across the whole inventory."""
    matches = {}
    for record in inventory.records():
        candidates = index.get((record.ecosystem, record.name))
        if not candidates:
            continue
        fp_class = (
            FpClass.SOURCE_REFERENCED if record.referenced_in_source else FpClass.METADATA_ONLY
        )
        for version_str in sorted(record.versions):
            try:
                version = parse_version(version_str)
            except ValueError:
                notices.append(f"excluded {record.name}: unparseable version {version_str!r}")
                continue
            if version.fallback:
                notices.append(f"version {version.raw!r} is not semver; using segment fallback")
            for advisory in candidates:
                if not any(interval.contains(version) for interval in advisory.affected):
                    continue
                key = (advisory.id, record.name, version_str, record.ecosystem)
                if key in matches:
                    continue
                matches[key] = VulnMatch(
                    advisory.id, record.name, version_str, record.ecosystem,
                    severity_band(advisory.cvss_score), fp_class,
                    tuple(sorted(record.declared_in)), advisory.summary,
                )
    return [matches[k] for k in sorted(matches, key=lambda k: (k[1], k[0], k[2]))]


_MATCH_NAMES = st.sampled_from(["lodash", "yaml", "zlib"])
# Plain semver, semver prerelease, segment fallback, and " ", which does not parse.
_MATCH_VERSIONS = st.sampled_from(["0.9.0", "1.0.0", "1.2.3", "1.2.3-beta", "1.0.1f", "abc", " "])
_INTERVALS = st.sampled_from([
    VersionInterval(),
    VersionInterval(low="1.0.0", high="1.2.3"),
    VersionInterval(low="1.0.0", high="1.2.3", high_inclusive=True),
    VersionInterval(high="1.0.0"),
    VersionInterval(low="1.0.1"),
])
# A few ids over several names and ecosystems, so one id repeats among the
# candidates of one package, as when an OSV document lists it twice.
_ADVISORIES = st.lists(st.builds(
    Advisory,
    st.sampled_from(["ADV-1", "ADV-2", "ADV-3"]),
    st.sampled_from(Ecosystem),
    _MATCH_NAMES,
    st.lists(_INTERVALS, min_size=1, max_size=2).map(tuple),
    st.sampled_from([None, 3.1, 9.8]),
    st.sampled_from(["", "summary"]),
), max_size=12)
_DECLARATIONS = st.lists(st.tuples(
    _MATCH_NAMES,
    _MATCH_VERSIONS,
    st.sampled_from(Ecosystem),
    st.sampled_from(["package.json", "package-lock.json", "requirements.txt"]),
    st.booleans(),  # referenced in source
), max_size=10)


@settings(max_examples=300, deadline=None)
@given(_DECLARATIONS, _ADVISORIES)
@example(  # one name in two ecosystems, and one id twice for the npm package
    [("lodash", "1.2.3", Ecosystem.NPM, "package.json", False),
     ("lodash", "1.2.3", Ecosystem.PYPI, "requirements.txt", True)],
    [Advisory("ADV-1", Ecosystem.NPM, "lodash", (VersionInterval(high="1.0.0"),)),
     Advisory("ADV-1", Ecosystem.NPM, "lodash", (VersionInterval(low="1.0.0"),), 9.8),
     Advisory("ADV-1", Ecosystem.PYPI, "lodash", (VersionInterval(),), 3.1)],
)
def test_match_equals_the_ecosystem_keyed_reference(declarations, advisories):
    inventory = PackageInventory()
    for name, version, ecosystem, declared_in, referenced in declarations:
        inventory.add(name, version, ecosystem, declared_in)
        if referenced:
            inventory.packages[(name, ecosystem)].referenced_in_source.add("handler.js")
    notices: list[str] = []
    expected_notices: list[str] = []
    got = match_advisories(inventory, index_advisories(advisories), notices)
    assert got == _reference_match(inventory, _reference_index(advisories), expected_notices)
    assert notices == expected_notices


# ---------------------------------------------------------------------------
# False-positive filter and Jaccard
# ---------------------------------------------------------------------------


def _match(fp: FpClass, i: int):
    from slsa_audit.vulnscan import VulnMatch

    return VulnMatch(
        advisory_id=f"A-{i}",
        package_name=f"p{i}",
        package_version="1.0.0",
        ecosystem=Ecosystem.NPM,
        severity=Severity.HIGH,
        fp_class=fp,
    )


def test_fp_rate_reproduces_reported_share():
    matches = [_match(FpClass.METADATA_ONLY, i) for i in range(142)]
    matches += [_match(FpClass.SOURCE_REFERENCED, 1000 + i) for i in range(1275)]
    result = filter_false_positives(matches)
    assert len(matches) == 1417
    assert result.fp_rate == pytest.approx(0.1002, abs=1e-4)
    assert len(result.kept) == 1275 and len(result.suspected_fp) == 142


def test_fp_degenerate_cases():
    empty = filter_false_positives([])
    assert empty.fp_rate == 0.0 and empty.kept == [] and empty.suspected_fp == []
    all_fp = filter_false_positives([_match(FpClass.METADATA_ONLY, i) for i in range(5)])
    assert all_fp.fp_rate == 1.0 and all_fp.kept == []


def test_fp_partition_random():
    rng = random.Random(3)
    for _ in range(200):
        matches = [
            _match(rng.choice([FpClass.METADATA_ONLY, FpClass.SOURCE_REFERENCED]), i)
            for i in range(rng.randint(0, 30))
        ]
        result = filter_false_positives(matches)
        assert len(result.kept) + len(result.suspected_fp) == len(matches)
        assert set(map(id, result.kept)).isdisjoint(map(id, result.suspected_fp))
        assert 0.0 <= result.fp_rate <= 1.0


def test_jaccard_examples():
    assert jaccard_similarity(set(), set()) == 1.0
    assert jaccard_similarity({"CVE-1", "CVE-2"}, {"CVE-2", "CVE-3"}) == pytest.approx(1 / 3)
    assert jaccard_similarity({"a"}, {"a"}) == 1.0
    assert jaccard_similarity({"a"}, {"b"}) == 0.0


@given(
    st.sets(st.text(alphabet="abcdef", min_size=1, max_size=4), max_size=12),
    st.sets(st.text(alphabet="abcdef", min_size=1, max_size=4), max_size=12),
)
def test_jaccard_properties(set_a, set_b):
    similarity = jaccard_similarity(set_a, set_b)
    assert similarity == jaccard_similarity(set_b, set_a)
    assert 0.0 <= similarity <= 1.0
    assert (similarity == 1.0) == (set_a == set_b)
    if set_a or set_b:
        assert (similarity == 0.0) == (not set_a & set_b)


# ---------------------------------------------------------------------------
# External scan import
# ---------------------------------------------------------------------------


def test_trivy_import(tmp_path):
    doc = {
        "ArtifactName": "img:latest",
        "Results": [
            {
                "Target": "img:latest (alpine)",
                "Vulnerabilities": [
                    {"VulnerabilityID": "CVE-1"},
                    {"VulnerabilityID": "CVE-2"},
                    {"VulnerabilityID": "CVE-1"},
                ],
            }
        ],
    }
    path = tmp_path / "trivy.json"
    path.write_text(json.dumps(doc))
    sets = import_external_scan(path, "trivy-json")
    assert sets["img:latest (alpine)"] == {"CVE-1", "CVE-2"}


def test_trivy_zero_results(tmp_path):
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"ArtifactName": "img", "Results": []}))
    sets = import_external_scan(path, "trivy-json")
    assert sets == {"img": set()}


def test_trivy_two_components(tmp_path):
    doc = {
        "Results": [
            {"Target": "one", "Vulnerabilities": [{"VulnerabilityID": "CVE-1"}]},
            {"Target": "two", "Vulnerabilities": [{"VulnerabilityID": "CVE-2"}]},
        ]
    }
    path = tmp_path / "t.json"
    path.write_text(json.dumps(doc))
    sets = import_external_scan(path, "trivy-json")
    assert sets == {"one": {"CVE-1"}, "two": {"CVE-2"}}


def test_grype_import(tmp_path):
    doc = {
        "source": {"target": {"userInput": "img:latest"}},
        "matches": [
            {"vulnerability": {"id": "CVE-9"}},
            {"vulnerability": {"id": "CVE-9"}},
            {"vulnerability": {"id": "CVE-8"}},
        ],
    }
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc))
    assert import_external_scan(path, "grype-json") == {"img:latest": {"CVE-8", "CVE-9"}}


def test_import_schema_errors(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"nope": 1}))
    with pytest.raises(ExternalScanFormatError, match="Results"):
        import_external_scan(path, "trivy-json")
    with pytest.raises(ExternalScanFormatError, match="matches"):
        import_external_scan(path, "grype-json")
    path.write_text(json.dumps({"Results": [{"Vulnerabilities": [{"wrong": "x"}]}]}))
    with pytest.raises(ExternalScanFormatError, match="Target"):
        import_external_scan(path, "trivy-json")
