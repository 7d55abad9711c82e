"""Aggregation, dedup, serialization round-trips, and output formats."""
from __future__ import annotations

import builtins
import errno
import io
import itertools
import json
import os
import re
import shutil
import signal
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hostile_corpus import SYMLINKS, build_hostile_corpus
from slsa_audit import archive, ingest, report, vulnscan
from slsa_audit.archive import ArchiveError, ArchiveFormat, pack_entries
from slsa_audit.cli import main
from slsa_audit.config import AuditConfig
from slsa_audit.demo import build_demo_corpus, build_demo_db
from slsa_audit.ingest import ArtifactKind, CorpusEntry, load_corpus, serialize_manifest
from slsa_audit.model import (
    AttackVector,
    ComponentRef,
    CountStats,
    Finding,
    Repository,
    ScanReport,
    Severity,
)
from slsa_audit.report import (
    ComponentScan,
    aggregate,
    emit,
    exit_code_for,
    parse_report,
    scan_archives,
    scan_corpus,
    scan_docker,
    scan_iac,
    scan_vuln,
)

REF_A = ComponentRef(Repository.DOCKER_HUB, "alice", "app")
REF_B = ComponentRef(Repository.GITHUB, "bob", "lib")


def _finding(rule_id="R-1", component=REF_A, severity=Severity.HIGH, location="f.txt"):
    return Finding(
        rule_id=rule_id,
        vector=AttackVector.V1,
        severity=severity,
        component=component,
        location=location,
        evidence="example evidence",
        remediation="fix it",
    )


def test_aggregate_empty():
    report = aggregate([], "c", {REF_A: 0, REF_B: 0})
    assert report.stats.mean == 0
    assert report.severity_histogram == {}
    assert report.cdf_points[-1][1] == 1.0


def test_aggregate_merges_components():
    report = aggregate([_finding("R-1"), _finding("R-2", location="g.txt")], "c")
    assert len(report.per_component[REF_A]) == 2


def test_aggregate_dedups_on_rule_component_location():
    duplicated = _finding("R-1")
    other_loc = _finding("R-1", location="other.txt")
    report = aggregate([duplicated, duplicated, other_loc], "c")
    assert len(report.per_component[REF_A]) == 2
    assert sum(report.severity_histogram.values()) == 2


def test_aggregate_dedups_equal_components_that_are_distinct_objects():
    twin = ComponentRef(REF_A.repository, REF_A.publisher, REF_A.name, REF_A.version)
    assert twin == REF_A and twin is not REF_A
    first, second = _finding("R-1"), _finding("R-1", component=twin)
    report = aggregate([first, second], "c")
    assert report.per_component == {REF_A: [first]}
    assert report.severity_histogram == {Severity.HIGH: 1}


def test_histogram_conservation():
    findings = [
        _finding("R-1", severity=Severity.CRITICAL),
        _finding("R-2", severity=Severity.UNKNOWN, location="u.txt"),
        _finding("R-3", severity=Severity.HIGH, location="h.txt"),
    ]
    report = aggregate(findings, "c")
    total = sum(report.severity_histogram.values())
    assert total == 3
    assert report.severity_histogram[Severity.UNKNOWN] == 1


def test_json_round_trip():
    findings = [
        _finding("R-1", severity=Severity.CRITICAL),
        _finding("R-2", component=REF_B, location="x/y.tf"),
    ]
    report = aggregate(findings, "corpus-1", {REF_A: 3, REF_B: 0})
    blob = emit(report, "json")
    parsed = parse_report(blob)
    assert parsed == report
    assert emit(parsed, "json") == blob


def test_json_deterministic():
    findings = [_finding("R-2", location="b"), _finding("R-1", location="a")]
    report_a = aggregate(findings, "c")
    report_b = aggregate(list(reversed(findings)), "c")
    assert emit(report_a, "json") == emit(report_b, "json")


def test_json_findings_sorted():
    findings = [
        _finding("Z", component=REF_B, location="2"),
        _finding("A", component=REF_A, location="1"),
        _finding("A", component=REF_A, location="0"),
    ]
    doc = json.loads(emit(aggregate(findings, "c"), "json"))
    flattened = [
        (c["component"]["publisher"], f["rule_id"], f["location"])
        for c in doc["components"]
        for f in c["findings"]
    ]
    assert flattened == sorted(flattened)


def test_table_empty_has_header_only():
    report = aggregate([], "c")
    text = emit(report, "table").decode()
    lines = [l for l in text.splitlines() if l]
    assert any("component" in l for l in lines)
    assert not any(l.startswith("[") for l in lines)


def test_sarif_level_mapping():
    cases = {
        Severity.CRITICAL: "error",
        Severity.HIGH: "error",
        Severity.MEDIUM: "warning",
        Severity.LOW: "note",
        Severity.UNKNOWN: "none",
    }
    for severity, level in cases.items():
        report = aggregate([_finding(severity=severity)], "c")
        doc = json.loads(emit(report, "sarif-like"))
        results = doc["runs"][0]["results"]
        assert len(results) == 1
        assert results[0]["level"] == level
        assert results[0]["ruleId"] == "R-1"


def test_emit_unknown_format():
    with pytest.raises(ValueError):
        emit(aggregate([]), "yaml")


def test_exit_codes():
    report = aggregate([_finding(severity=Severity.MEDIUM)], "c")
    assert exit_code_for(report, None) == 0
    assert exit_code_for(report, Severity.HIGH) == 0
    assert exit_code_for(report, Severity.MEDIUM) == 1
    assert exit_code_for(report, Severity.LOW) == 1
    unknown_only = aggregate([_finding(severity=Severity.UNKNOWN)], "c")
    assert exit_code_for(unknown_only, Severity.LOW) == 0


def test_report_dict_shape():
    report = aggregate([_finding()], "c", {REF_A: 1})
    doc = json.loads(emit(report, "json"))
    assert set(doc) == {"corpus_id", "components", "severity_histogram", "stats", "cdf"}
    assert doc["components"][0]["vuln_count"] == 1


def _reference_report_dict(report: ScanReport) -> dict:
    """The json format's document, built as a dict: the writer's oracle."""

    def finding_dict(f: Finding) -> dict:
        return {
            "rule_id": f.rule_id,
            "vector": f.vector.value,
            "severity": f.severity.value,
            "component": f.component.to_dict(),
            "location": f.location,
            "evidence": f.evidence,
            "remediation": f.remediation,
        }

    return {
        "corpus_id": report.corpus_id,
        "components": [
            {
                "component": component.to_dict(),
                "vuln_count": report.vuln_counts.get(component, 0),
                "findings": [finding_dict(f) for f in findings],
            }
            for component, findings in report.per_component.items()
        ],
        "severity_histogram": {
            sev.value: report.severity_histogram.get(sev, 0) for sev in Severity
        },
        "stats": report.stats.to_dict() if report.stats else None,
        "cdf": [[threshold, fraction] for threshold, fraction in report.cdf_points],
    }


def _reference_json(report: ScanReport) -> bytes:
    return (json.dumps(_reference_report_dict(report), indent=2, sort_keys=True) + "\n").encode()


# Text with what JSON must escape: quotes, backslashes, control characters,
# non-ASCII (also beyond the BMP) and lone surrogates. The surrogates are
# low ones, as a surrogate escape gives: an escaped high one followed by an
# escaped low one reads back as one character.
_JSON_TEXT = st.text(
    st.one_of(
        st.sampled_from('"\\\x00\x1f\x7f\n\t\u2028\udc80\udcffé€\U0001d11e%'),
        st.characters(exclude_categories=["Cs"]),  # surrogates only from the list above
    ),
    max_size=12,
)
_NAMES = st.text(st.sampled_from("ab-_é\udcff"), min_size=1, max_size=4)
_COMPONENTS = st.builds(
    ComponentRef,
    st.sampled_from(Repository),
    _NAMES,
    _NAMES,
    st.one_of(st.none(), st.just(""), _JSON_TEXT),
)
_FLOATS = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _reports(draw) -> ScanReport:
    """A report as the json format may carry it; parse_report reads it back
    equal: every component has a count, and no severity counts 0."""
    components = draw(st.lists(_COMPONENTS, max_size=4, unique=True))
    per_component = {}
    for component in components:
        # A finding's component is its key, an equal copy of it, or another one.
        owners = st.sampled_from([
            component,
            ComponentRef(component.repository, component.publisher, component.name,
                         component.version),
        ]) | _COMPONENTS
        per_component[component] = draw(st.lists(
            st.builds(
                Finding, _JSON_TEXT, st.sampled_from(AttackVector), st.sampled_from(Severity),
                owners, _JSON_TEXT, _JSON_TEXT, _JSON_TEXT,
            ),
            max_size=3,
        ))
    return ScanReport(
        corpus_id=draw(_JSON_TEXT),
        per_component=per_component,
        vuln_counts={c: draw(st.integers(0, 10**6)) for c in components},
        severity_histogram=draw(st.dictionaries(st.sampled_from(Severity), st.integers(1, 10**6))),
        stats=draw(st.none() | st.builds(
            CountStats, _FLOATS, _FLOATS, st.integers(0, 99), st.integers(0, 99), _FLOATS
        )),
        cdf_points=draw(st.lists(st.tuples(st.integers(0, 10**4), _FLOATS), max_size=4)),
    )


@settings(max_examples=150, deadline=None)
@given(_reports())
@example(ScanReport(corpus_id=""))
def test_json_writer_equals_the_dict_reference(report):
    blob = emit(report, "json")
    assert blob == _reference_json(report)
    parsed = parse_report(blob)
    assert parsed == report
    assert emit(parsed, "json") == blob


def _meta_only_corpus(root):
    for publisher in ("alice", "bob"):
        ref = ComponentRef(Repository.DOCKER_HUB, publisher, "app")
        (root / ref.slug).mkdir(parents=True)
        (root / ref.slug / "component.meta").write_text(serialize_manifest(ref, {}))
    return root


def test_scan_corpus_indexes_advisories_once(tmp_path, monkeypatch):
    demo = build_demo_corpus(tmp_path / "corpus")
    meta_only = _meta_only_corpus(tmp_path / "meta-only")
    db = vulnscan.load_advisory_db(build_demo_db(tmp_path / "db"))
    calls = []
    original = vulnscan.index_advisories

    def counting(advisories):
        calls.append(1)
        return original(advisories)

    monkeypatch.setattr(vulnscan, "index_advisories", counting)
    config = AuditConfig(enabled_vectors=frozenset({AttackVector.V1}))
    run = scan_corpus(demo, config, db)
    assert len(run.report.vuln_counts) == 12
    assert sum(run.report.vuln_counts.values()) > 0
    assert len(calls) == 1
    # Only V1 reads the index, and only for a component with tree/.
    calls.clear()
    scan_corpus(demo, AuditConfig(enabled_vectors=frozenset(AttackVector) - {AttackVector.V1}), db)
    scan_corpus(meta_only, AuditConfig(), db)
    assert calls == []


def test_scan_corpus_reports_undecodable_run_commands(tmp_path):
    corpus = tmp_path / "corpus"
    refs = {}
    for publisher, data in (("bad", b"\xff\xfe docker run --privileged img\n"),
                            ("good", b"docker run --privileged img\n")):
        ref = refs[publisher] = ComponentRef(Repository.DOCKER_HUB, publisher, "app")
        component = corpus / ref.slug
        component.mkdir(parents=True)
        (component / "component.meta").write_text(serialize_manifest(ref, {}))
        (component / "run_commands.txt").write_bytes(data)
    run = scan_corpus(corpus, AuditConfig(enabled_vectors=frozenset({AttackVector.V3})))
    assert len(run.notices) == 1
    assert run.notices[0].startswith(f"{refs['bad'].slug}/run_commands.txt: ")
    assert run.report.per_component[refs["bad"]] == []
    assert [f.rule_id for f in run.report.per_component[refs["good"]]] == ["V3-PRIVILEGED"]


def test_an_undecodable_byte_hides_no_v3_or_v4_finding(tmp_path):
    corpus = build_demo_corpus(tmp_path / "corpus")
    config = AuditConfig(enabled_vectors=frozenset({AttackVector.V3, AttackVector.V4}))
    before = scan_corpus(corpus, config)
    commands = corpus / "acme__serverless-resizer" / "run_commands.txt"
    commands.write_bytes(commands.read_bytes() + b"docker run -e X='broken \xff")
    template = corpus / "bluefin__etl-serverless" / "iac" / "template.yaml"
    template.write_bytes(template.read_bytes().replace(b"\n", b"  # owner: \xff\xfe team\n", 1))
    after = scan_corpus(corpus, config)
    resizer = next(ref for ref in before.report.per_component if ref.name == "serverless-resizer")
    assert [f.vector for f in before.report.per_component[resizer]] == [AttackVector.V3] * 2
    assert after.report.per_component == before.report.per_component
    assert any(f.vector is AttackVector.V4 for f in after.report.all_findings())
    assert set(after.notices) - set(before.notices) == {
        "acme__serverless-resizer/run_commands.txt: undecodable bytes replaced with U+FFFD",
        "acme__serverless-resizer/run_commands.txt#2: cannot tokenize command: "
        "No closing quotation (column 17)",
        "bluefin__etl-serverless/iac/template.yaml: undecodable bytes replaced with U+FFFD",
    }


def test_v1_notices_name_the_component(tmp_path):
    corpus = build_demo_corpus(tmp_path / "corpus")
    db = vulnscan.load_advisory_db(build_demo_db(tmp_path / "db"))
    (corpus / "acme__serverless-resizer" / "tree" / "package.json").write_text("[]")
    run = scan_corpus(corpus, AuditConfig(enabled_vectors=frozenset({AttackVector.V1})), db)
    assert run.notices == [
        "acme__serverless-resizer/tree/package.json: the document is not a JSON object",
        "quayteam__event-gateway: version '1.0.1f' is not semver; using segment fallback",
    ]


def _component_with_v2_to_v4_notices(tmp_path):
    """The demo corpus, where one component has a V2, V3 and V4 notice."""
    corpus = build_demo_corpus(tmp_path / "corpus")
    slug = "cloudkite__thumbnail-service"
    component = corpus / slug
    (component / "archives").mkdir()
    cut_zip = pack_entries([("a.txt", b"hello")], ArchiveFormat.ZIP)[:30]
    (component / "archives" / "outer.zip").write_bytes(
        pack_entries([("inner.zip", cut_zip)], ArchiveFormat.ZIP)
    )
    (component / "run_commands.txt").write_text(
        "docker run --privileged img\ndocker run -e X='broken\n"
    )
    (component / "iac" / "bad.yaml").write_text("Resources: [\n")
    (component / "iac" / "undet.yaml").write_text(
        "Parameters:\n  Acl: {Type: String}\nResources:\n  B:\n    Type: AWS::S3::Bucket\n"
        "    Properties:\n      AccessControl: !Ref Acl\n"
    )
    return corpus, slug


def test_v2_to_v4_notices_name_the_component_and_the_file_once(tmp_path):
    corpus, slug = _component_with_v2_to_v4_notices(tmp_path)
    vectors = frozenset({AttackVector.V2, AttackVector.V3, AttackVector.V4})
    run = scan_corpus(corpus, AuditConfig(enabled_vectors=vectors))
    # The YAML error goes on over more lines; its first line is enough here.
    assert [notice.splitlines()[0] for notice in run.notices] == [
        f"{slug}/archives/outer.zip: nested archive 'inner.zip' not expanded: "
        "corrupt zip archive: File is not a zip file",
        f"{slug}/run_commands.txt#2: cannot tokenize command: No closing quotation (column 17)",
        f"{slug}/iac/bad.yaml: YAML/JSON syntax error at line 2: while parsing a flow node",
        f"{slug}/iac/undet.yaml: IAC-S3-PUBLIC-ACL undetermined for B",
    ]


def test_unreadable_archives_are_notices_and_the_others_still_scan(tmp_path):
    corpus = build_demo_corpus(tmp_path / "corpus")
    slug = "testbed__zip-bundle-serverless"
    config = AuditConfig(enabled_vectors=frozenset({AttackVector.V2}))
    before = scan_corpus(corpus, config).report.all_findings()
    archives = corpus / slug / "archives"
    (archives / "cut.zip").write_bytes((archives / "bundle.zip").read_bytes()[:40])
    (archives / "notes.txt").write_text("not an archive\n")
    run = scan_corpus(corpus, config)
    assert run.notices == [
        f"{slug}/archives/cut.zip: corrupt zip archive: File is not a zip file",
        f"{slug}/archives/notes.txt: unrecognized archive format for 'notes.txt'; "
        "supported kinds: 7z, tar, tar.bz2, tar.gz, tar.lzma, tar.xz, tar.zst, zip",
    ]
    assert before and run.report.all_findings() == before


@pytest.mark.parametrize("rel", [
    "acme__serverless-resizer/tree/package.json",
    "acme__serverless-resizer/tree/handler.js",
    "bluefin__etl-serverless/iac/template.yaml",
    "weaver__socket-bridge/run_commands.txt",
    "testbed__zip-bundle-serverless/archives/bundle.zip",
    "cloudkite__thumbnail-service/component.meta",
])
def test_an_unreadable_component_file_is_a_notice(tmp_path, monkeypatch, rel):
    corpus = build_demo_corpus(tmp_path / "corpus")
    db = vulnscan.load_advisory_db(build_demo_db(tmp_path / "db"))
    before = scan_corpus(corpus, AuditConfig(), db)
    slug = rel.partition("/")[0]
    target = str(corpus / rel)
    # Patched rather than chmod 000, which does not stop a read by root.
    # Component files are read through os.open, archives through io.open.
    for module in (builtins, io, os):
        def failing_open(file, *args, _open=module.open, **kwargs):
            if os.fspath(file) == target:
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), target)
            return _open(file, *args, **kwargs)

        monkeypatch.setattr(module, "open", failing_open)
    run = scan_corpus(corpus, AuditConfig(), db)
    assert run.notices.count(f"{rel}: cannot read: {os.strerror(errno.EACCES)}") == 1

    def others(per_component):
        return {ref: found for ref, found in per_component.items() if ref.slug != slug}

    assert others(run.report.per_component) == others(before.report.per_component)
    assert [n for n in run.notices if not n.startswith((f"{slug}/", f"{slug}:"))] == [
        n for n in before.notices if not n.startswith((f"{slug}/", f"{slug}:"))
    ]
    # Without its manifest the component is an ingest error; otherwise it is still listed.
    listed = {ref.slug for ref in run.report.per_component}
    assert (slug in listed) is not rel.endswith("component.meta")


def test_component_files_are_read_through_raw_descriptors_that_are_closed(
    tmp_path, monkeypatch
):
    corpus = build_demo_corpus(tmp_path / "corpus")
    db = vulnscan.load_advisory_db(build_demo_db(tmp_path / "db"))
    prefix = os.path.join(corpus, "")
    text_opened = []
    for module in (builtins, io):
        def recording_open(file, *args, _open=module.open, **kwargs):
            if isinstance(file, (str, os.PathLike)) and os.fspath(file).startswith(prefix):
                text_opened.append(os.fspath(file))
            return _open(file, *args, **kwargs)

        monkeypatch.setattr(module, "open", recording_open)
    raw_opened = []
    held: set[int] = set()

    def recording_os_open(path, *args, _open=os.open, **kwargs):
        fd = _open(path, *args, **kwargs)
        raw_opened.append(os.fspath(path))
        held.add(fd)
        return fd

    def recording_os_close(fd, _close=os.close):
        _close(fd)
        held.discard(fd)

    monkeypatch.setattr(os, "open", recording_os_open)
    monkeypatch.setattr(os, "close", recording_os_close)
    config = AuditConfig(enabled_vectors=frozenset(AttackVector) - {AttackVector.V2})
    scan_corpus(corpus, config, db)
    assert text_opened == []
    assert held == set()
    read = {path[len(prefix):].partition("/")[2].partition("/")[0] for path in raw_opened}
    assert read == {"component.meta", "tree", "iac", "run_commands.txt"}
    assert all(path.startswith(prefix) for path in raw_opened)


def _read_text(root: str, rel: str, notices: list[str], errors: str = "strict"):
    """ComponentScan.read of the file ``rel`` of a component rooted at ``root``."""
    entry = CorpusEntry(REF_A, Path(root), {}, ArtifactKind.SOURCE_TREE, frozenset())
    return ComponentScan(entry, AuditConfig()).read(rel, notices, errors)


def _text_mode_read_text(root: str, rel: str, notices: list[str], errors: str = "strict"):
    """ComponentScan.read as a text-mode ``open`` gives it: with ``errors``,
    and where that fails to decode, with a notice and ``errors="replace"``."""
    try:
        with open(os.path.join(root, rel), encoding="utf-8", errors=errors) as handle:
            return handle.read()
    except OSError as exc:
        notices.append(f"{rel}: cannot read: {exc.strerror or exc}")
    except UnicodeDecodeError:
        notices.append(f"{rel}: undecodable bytes replaced with U+FFFD")
        with open(os.path.join(root, rel), encoding="utf-8", errors="replace") as handle:
            return handle.read()
    return None


_READ_CHUNK = ingest._READ_CHUNK
_TEXT_PIECES = st.sampled_from([
    b"a", b" ", b"\x00", b"\r", b"\n", b"\r\n", b"\xef\xbb\xbf", "é€𝄞".encode(),
    b"\xff", b"\xe2\x82", b"\xed\xb3\xbf",  # invalid, truncated, an encoded surrogate
])


@settings(max_examples=200, deadline=None)
@given(
    padding=st.sampled_from([0, 1, _READ_CHUNK - 1, _READ_CHUNK + 7]),
    body=st.lists(_TEXT_PIECES, max_size=24).map(b"".join),
    errors=st.sampled_from(["strict", "replace"]),
)
@example(padding=_READ_CHUNK - 1, body=b"\r\nx\r", errors="strict")  # "\r" ends a chunk
@example(padding=0, body=b"", errors="strict")
@example(padding=_READ_CHUNK + 7, body=b"\xff", errors="strict")
def test_read_text_equals_a_text_mode_read(padding, body, errors):
    with tempfile.TemporaryDirectory() as root:
        with open(os.path.join(root, "f"), "wb") as handle:
            handle.write(b"x" * padding + body)
        got: list[str] = []
        expected: list[str] = []
        assert _read_text(root, "f", got, errors) == _text_mode_read_text(
            root, "f", expected, errors
        )
        assert got == expected


@pytest.mark.parametrize("rel", ["missing", "directory"])
def test_read_text_notice_equals_a_text_mode_read(tmp_path, rel):
    (tmp_path / "directory").mkdir()
    got: list[str] = []
    expected: list[str] = []
    assert _read_text(str(tmp_path), rel, got) is None
    assert _text_mode_read_text(str(tmp_path), rel, expected) is None
    assert got == expected and len(got) == 1


def _table_and_formats(corpus, db_dir, capsysbinary) -> dict[str, tuple[int, bytes]]:
    out = {}
    for output in ("table", "json", "sarif-like"):
        code = main(["--output", output, "scan-all", "--corpus", str(corpus), "--db", str(db_dir)])
        out[output] = (code, capsysbinary.readouterr().out)
    return out


def test_table_writes_an_undecodable_tree_path_as_its_bytes(tmp_path, capsysbinary):
    corpus = build_demo_corpus(tmp_path / "corpus")
    db_dir = build_demo_db(tmp_path / "db")
    tree = corpus / "acme__serverless-resizer" / "tree"
    os.mkdir(os.path.join(os.fsencode(tree), b"\xff"))
    for name in ("package.json", "package-lock.json"):
        shutil.move(tree / name, os.path.join(os.fsencode(tree), b"\xff", os.fsencode(name)))
    out = _table_and_formats(corpus, db_dir, capsysbinary)
    assert [code for code, _ in out.values()] == [0, 0, 0]
    assert b"acme__serverless-resizer:tree/\xff/package" in out["table"][1]
    # json and sarif-like write the name's escape, as before.
    run = scan_corpus(corpus, db=vulnscan.load_advisory_db(db_dir))
    assert out["json"][1] == _reference_json(run.report)
    assert b'"tree/\\udcff/package' in out["json"][1]
    assert b'"acme__serverless-resizer/tree/\\udcff/package' in out["sarif-like"][1]


def test_table_writes_an_undecodable_tar_member_as_its_bytes(tmp_path, capsysbinary):
    corpus = build_demo_corpus(tmp_path / "corpus")
    db_dir = build_demo_db(tmp_path / "db")
    archives = corpus / "testbed__zip-bundle-serverless" / "archives"
    # tarfile writes and reads member names with surrogate escapes.
    (archives / "odd.tar").write_bytes(
        pack_entries([("\udcff/eicar.com", archive.EICAR_TEST_STRING)], ArchiveFormat.TAR)
    )
    out = _table_and_formats(corpus, db_dir, capsysbinary)
    assert [code for code, _ in out.values()] == [0, 0, 0]
    assert b"testbed__zip-bundle-serverless:archives/odd.tar!\xff/eicar.com" in out["table"][1]
    run = scan_corpus(corpus, db=vulnscan.load_advisory_db(db_dir))
    assert out["json"][1] == _reference_json(run.report)
    assert b'"archives/odd.tar!\\udcff/eicar.com"' in out["json"][1]
    assert b'"testbed__zip-bundle-serverless/archives/odd.tar!\\udcff/eicar.com"' in (
        out["sarif-like"][1]
    )


def _components_with_v1_to_v4_notices(tmp_path):
    """`_component_with_v2_to_v4_notices` plus a V1 notice for that
    component and a V2 notice for a second one."""
    corpus, slug = _component_with_v2_to_v4_notices(tmp_path)
    (corpus / slug / "tree").mkdir(exist_ok=True)
    (corpus / slug / "tree" / "package.json").write_text("[]")
    archives = corpus / "testbed__zip-bundle-serverless" / "archives"
    (archives / "notes.txt").write_text("not an archive\n")
    return corpus, slug


def _force_fork(monkeypatch) -> None:
    """Run V2 in an ArchiveWorker whatever the archives weigh."""
    monkeypatch.setattr(report, "_FORK_MIN_BYTES", 0)


def test_archive_worker_keeps_each_components_notices_in_vector_order(tmp_path, monkeypatch):
    _force_fork(monkeypatch)
    corpus, slug = _components_with_v1_to_v4_notices(tmp_path)
    db = vulnscan.load_advisory_db(build_demo_db(tmp_path / "db"))
    config = AuditConfig(enabled_vectors=frozenset(AttackVector) - {AttackVector.V5})
    run = scan_corpus(corpus, config, db)
    assert run.archive_worker["components"] == 2

    # The same vectors in one process, one component after another.
    loaded = load_corpus(corpus)
    index = vulnscan.index_advisories(db)
    notices = [str(error) for error in loaded.errors]
    findings = []
    vuln_counts = {}
    for entry in loaded.entries:
        scan = ComponentScan(entry, config, index)
        findings += scan_vuln(scan)
        findings += scan_archives(scan)
        findings += scan_docker(scan)
        findings += scan_iac(scan)
        vuln_counts[entry.ref] = scan.vuln_count
        notices += scan.notices
    assert run.notices == notices
    assert [n.split(":")[0].split("/")[1] for n in notices if n.startswith(f"{slug}/")] == [
        "tree", "archives", "run_commands.txt#2", "iac", "iac",
    ]
    expected = aggregate(
        findings, run.corpus_id, vuln_counts, config.cdf_thresholds,
        [entry.ref for entry in loaded.entries],
    )
    assert emit(run.report) == emit(expected)


_V1_TO_V4 = (AttackVector.V1, AttackVector.V2, AttackVector.V3, AttackVector.V4)


def _by_component(notices: list[str]) -> dict[str, list[str]]:
    """Notices grouped by the slug each begins with."""
    grouped: dict[str, list[str]] = {}
    for notice in notices:
        grouped.setdefault(re.match(r"[^/:]*", notice).group(), []).append(notice)
    return grouped


def _finding_key(finding: Finding) -> tuple:
    return (*finding.sort_key(), finding.vector.value, finding.evidence, finding.remediation)


def test_each_vector_scans_alike_in_every_subset_of_vectors(tmp_path):
    corpus, slug = _components_with_v1_to_v4_notices(tmp_path)
    db = vulnscan.load_advisory_db(build_demo_db(tmp_path / "db"))
    runs = {
        subset: scan_corpus(corpus, AuditConfig(enabled_vectors=frozenset(subset)), db)
        for size in range(1, len(_V1_TO_V4) + 1)
        for subset in itertools.combinations(_V1_TO_V4, size)
    }
    single = {vector: runs[(vector,)] for vector in _V1_TO_V4}
    assert all(slug in _by_component(run.notices) for run in single.values())
    slugs = [entry.ref.slug for entry in load_corpus(corpus).entries]
    for subset, run in runs.items():
        union = [f for vector in subset for f in single[vector].report.all_findings()]
        assert sorted(run.report.all_findings(), key=_finding_key) == sorted(
            union, key=_finding_key
        ), subset
        grouped = {vector: _by_component(single[vector].notices) for vector in subset}
        assert run.notices == [
            notice for component in slugs for vector in subset
            for notice in grouped[vector].get(component, ())
        ], subset
        counts = single[AttackVector.V1].report.vuln_counts if AttackVector.V1 in subset else {}
        assert run.report.vuln_counts == counts, subset


_SCANNER_VECTORS = {
    "scan_vuln": AttackVector.V1,
    "scan_archives": AttackVector.V2,
    "scan_docker": AttackVector.V3,
    "scan_iac": AttackVector.V4,
}


@pytest.mark.parametrize("forked", [False, True])
def test_scanners_wrapped_at_the_module_attribute_run_once_per_component(
    tmp_path, monkeypatch, forked
):
    # perfbench/tracing.py times each scanner by replacing report.scan_*; a
    # scan that bound the scanners earlier would leave its timings at 0.
    if forked:
        _force_fork(monkeypatch)
    corpus = build_demo_corpus(tmp_path / "corpus")
    for name, vector in _SCANNER_VECTORS.items():
        def wrapped(scan, _scanner=getattr(report, name), _name=name, _vector=vector):
            # A notice, not a counter: V2 may run in the forked worker.
            scan.notices_for(_vector).append(f"wrapped {_name}")
            return _scanner(scan)

        monkeypatch.setattr(report, name, wrapped)
    run = scan_corpus(corpus)
    entries = load_corpus(corpus).entries
    for name, vector in _SCANNER_VECTORS.items():
        expected = [
            f"{entry.ref.slug}/wrapped {name}" for entry in entries
            # The worker scans only the components with archives/.
            if not (forked and vector is AttackVector.V2) or "archives" in entry.parts
        ]
        assert [n for n in run.notices if n.endswith(f"/wrapped {name}")] == expected
    assert any("archives" in entry.parts for entry in entries)
    assert run.archives["forked"] is forked


@pytest.mark.parametrize("cwd,spelled", [
    ("corpus", "."),
    ("corpus/acme__serverless-resizer", ".."),
    ("", "corpus/"),
    ("", "./corpus/../corpus"),
    ("", "link"),
])
def test_corpus_id_is_the_corpus_directory_name_however_its_path_is_spelled(
    tmp_path, monkeypatch, capsysbinary, cwd, spelled
):
    corpus = build_demo_corpus(tmp_path / "corpus")
    (tmp_path / "link").symlink_to(corpus)  # a symlink is named, not followed
    assert main(["--output", "json", "scan-all", "--corpus", str(corpus)]) == 0
    expected = capsysbinary.readouterr().out
    name = "link" if spelled == "link" else "corpus"
    monkeypatch.chdir(tmp_path / cwd)
    assert scan_corpus(spelled).corpus_id == name
    assert main(["--output", "json", "scan-all", "--corpus", spelled]) == 0
    out = capsysbinary.readouterr().out
    assert out == expected.replace(b'"corpus_id": "corpus"', f'"corpus_id": "{name}"'.encode())
    assert f'"corpus_id": "{name}"'.encode() in out


def test_an_exception_in_the_archive_worker_is_raised_by_scan_corpus(tmp_path, monkeypatch):
    _force_fork(monkeypatch)
    corpus = build_demo_corpus(tmp_path / "corpus")

    def failing_extract(*args, **kwargs):  # the forked worker inherits the patch
        raise RuntimeError("boom")

    monkeypatch.setattr(archive, "extract", failing_extract)
    with pytest.raises(RuntimeError, match="^boom$"):
        scan_corpus(corpus)


def test_an_exception_the_worker_cannot_pickle_is_a_runtime_error(tmp_path, monkeypatch):
    _force_fork(monkeypatch)
    corpus = build_demo_corpus(tmp_path / "corpus")

    class LocalError(Exception):  # pickle cannot find a class defined in a function
        pass

    def failing_extract(*args, **kwargs):
        raise LocalError("boom")

    monkeypatch.setattr(archive, "extract", failing_extract)
    with pytest.raises(RuntimeError, match="^archive scan worker failed:") as info:
        scan_corpus(corpus)
    assert "LocalError: boom" in str(info.value)


@pytest.mark.parametrize("end,ended", [
    (lambda: os._exit(3), "status 3"),
    (lambda: os.kill(os.getpid(), signal.SIGKILL), f"signal {int(signal.SIGKILL)}"),
])
def test_an_archive_worker_that_dies_is_an_archive_error(tmp_path, monkeypatch, capsys, end, ended):
    _force_fork(monkeypatch)
    corpus = build_demo_corpus(tmp_path / "corpus")
    monkeypatch.setattr(archive, "extract", lambda *args, **kwargs: end())
    message = f"archive scan worker ended with {ended} before sending its result"
    with pytest.raises(ArchiveError, match=f"^{message}$"):
        scan_corpus(corpus)
    assert main(["scan-all", "--corpus", str(corpus)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


@pytest.mark.parametrize("error", [ValueError("parent"), KeyboardInterrupt()])
def test_an_exception_in_the_parent_still_reaps_the_archive_worker(
    tmp_path, monkeypatch, forked_pids, error
):
    _force_fork(monkeypatch)
    corpus = build_demo_corpus(tmp_path / "corpus")

    def failing_scan_iac(*args, **kwargs):
        raise error

    monkeypatch.setattr(report, "scan_iac", failing_scan_iac)
    with pytest.raises(type(error)):
        scan_corpus(corpus)
    assert len(forked_pids) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(forked_pids[0], os.WNOHANG)


@pytest.mark.parametrize("corpus_kind,vectors", [
    ("meta-only", set(AttackVector)),
    ("demo", set(AttackVector) - {AttackVector.V2}),
])
def test_no_archive_worker_without_archives_to_scan(tmp_path, forked_pids, corpus_kind, vectors):
    if corpus_kind == "demo":
        corpus = build_demo_corpus(tmp_path / "corpus")
    else:
        corpus = _meta_only_corpus(tmp_path / "corpus")
    run = scan_corpus(corpus, AuditConfig(enabled_vectors=frozenset(vectors)))
    assert forked_pids == []
    assert run.archive_worker is None
    assert run.archives is None


_DEMO_ARCHIVES = ["bundle.zip", "worker.tar.zst"]


@pytest.mark.parametrize("added,vectors,heavy,forks", [
    ({}, set(AttackVector), False, False),
    # Over the budget by size, and by the per-archive allowance alone.
    ({"big.zip": 600 << 10}, set(AttackVector), True, True),
    ({f"t{i:03}.zip": 1 for i in range(126)}, set(AttackVector), True, True),
    ({"big.zip": 600 << 10}, {AttackVector.V2, AttackVector.V5}, True, False),  # nothing to overlap
], ids=["demo", "big-archive", "many-archives", "v2-only"])
def test_v2_forks_only_when_its_archives_pay_for_it(
    tmp_path, forked_pids, added, vectors, heavy, forks
):
    corpus = build_demo_corpus(tmp_path / "corpus")
    archives = corpus / "testbed__zip-bundle-serverless" / "archives"
    for name, size in added.items():
        (archives / name).write_bytes(pack_entries([("f", os.urandom(size))], ArchiveFormat.ZIP))
    files = sorted(archives.iterdir())
    run = scan_corpus(corpus, AuditConfig(enabled_vectors=frozenset(vectors)))
    assert len(forked_pids) == forks
    assert (run.archive_worker is not None) is forks
    assert run.archives == {
        "files": len(files), "bytes": sum(f.stat().st_size for f in files), "forked": forks,
    }
    weight = run.archives["bytes"] + len(files) * report._ARCHIVE_OVERHEAD_BYTES
    assert (weight >= report._FORK_MIN_BYTES) is heavy


def _with_non_regular_archives(corpus: Path, outside: Path) -> list[str]:
    """Adds a symlink to a zip outside the corpus, a directory holding a
    zip, a FIFO and a tar whose second header is bad to the demo's archive
    component; returns the V2 notices they give (none for the directory,
    which is walked)."""
    slug = "testbed__zip-bundle-serverless"
    archives = corpus / slug / "archives"
    eicar_zip = pack_entries([("eicar.com", archive.EICAR_TEST_STRING)], ArchiveFormat.ZIP)
    outside.write_bytes(eicar_zip)
    (archives / "link.zip").symlink_to(outside)
    (archives / "sub.zip").mkdir()
    (archives / "sub.zip" / "inner.zip").write_bytes(eicar_zip)
    os.mkfifo(archives / "pipe.zip")
    tar = bytearray(pack_entries(
        [("a.txt", b"a"), ("b.txt", b"b"), ("c.com", archive.EICAR_TEST_STRING)], ArchiveFormat.TAR
    ))
    tar[1024 + 148 : 1024 + 154] = b"000001"
    (archives / "zbad.tar").write_bytes(bytes(tar))
    return [
        f"{slug}/archives/link.zip: not a regular file (symlink); skipped",
        f"{slug}/archives/pipe.zip: not a regular file (FIFO); skipped",
    ]


def test_archives_are_listed_without_following_symlinks(tmp_path):
    corpus = build_demo_corpus(tmp_path / "corpus")
    config = AuditConfig(enabled_vectors=frozenset({AttackVector.V2}))
    before = scan_corpus(corpus, config)
    notices = _with_non_regular_archives(corpus, tmp_path / "outside.zip")
    run = scan_corpus(corpus, config)
    assert run.notices == before.notices + notices
    added = [f for f in run.report.all_findings() if f not in before.report.all_findings()]
    assert [(f.rule_id, f.location, f.evidence) for f in added] == [
        ("V2-SIGNATURE-MATCH", "archives/sub.zip/inner.zip!eicar.com", "signature eicar matched"),
        ("V2-UNSAFE-ARCHIVE", "archives/zbad.tar",
         "invalid tar header at offset 1024 hides the rest of the archive"),
    ]
    assert run.archives["files"] == len(_DEMO_ARCHIVES) + 2


def test_an_archives_directory_that_cannot_be_listed_is_a_notice(tmp_path, monkeypatch):
    corpus = build_demo_corpus(tmp_path / "corpus")
    slug = "acme__serverless-resizer"  # its tree/ tells its kind, so ingest lists no archives/
    (corpus / slug / "archives").mkdir()
    unlistable = os.path.join(corpus / slug, "archives")
    scandir = os.scandir

    def failing_scandir(path="."):
        if os.fspath(path) == unlistable:
            raise PermissionError(errno.EACCES, "Permission denied", unlistable)
        return scandir(path)

    monkeypatch.setattr(os, "scandir", failing_scandir)
    config = AuditConfig(enabled_vectors=frozenset({AttackVector.V2}))
    run = scan_corpus(corpus, config)
    assert run.notices == [f"{slug}/archives: cannot list: Permission denied"]
    assert {f.rule_id for f in run.report.all_findings()} == {"V2-SIGNATURE-MATCH"}
    assert run.archives["files"] == len(_DEMO_ARCHIVES)


def test_scan_all_opens_no_file_outside_the_hostile_corpus(tmp_path, monkeypatch, capsys):
    corpus = build_hostile_corpus(tmp_path / "corpus")
    monkeypatch.setattr(report, "_FORK_MIN_BYTES", 1 << 62)  # V2 reads in this process too
    opened: list[str] = []
    real_open = os.open

    def recording_open(path, *args, **kwargs):
        opened.append(os.path.realpath(path))
        return real_open(path, *args, **kwargs)

    monkeypatch.setattr(os, "open", recording_open)
    assert main(["scan-all", "--corpus", str(corpus)]) == 0
    inside = os.path.join(os.path.realpath(corpus), "")
    assert opened and [path for path in opened if not path.startswith(inside)] == []
    err = capsys.readouterr().err
    for rel in SYMLINKS:
        assert f"notice: {rel}: not a regular file (symlink); skipped\n" in err
    assert {path.rpartition("/")[2] for path in opened} >= {"hidden.zip", "bundle.zip"}


@pytest.mark.parametrize("corpus_kind", ["demo", "hostile"])
def test_v2_gives_the_same_output_in_the_parent_and_in_the_worker(
    tmp_path, monkeypatch, forked_pids, corpus_kind
):
    if corpus_kind == "demo":
        corpus = build_demo_corpus(tmp_path / "corpus")
    else:
        corpus = build_hostile_corpus(tmp_path / "corpus")
        _with_non_regular_archives(corpus, tmp_path / "outside.zip")
    db = vulnscan.load_advisory_db(build_demo_db(tmp_path / "db"))
    outputs = {}
    for forked, threshold in ((False, 1 << 62), (True, 0)):
        monkeypatch.setattr(report, "_FORK_MIN_BYTES", threshold)
        run = scan_corpus(corpus, db=db)
        assert run.archives["forked"] is forked
        outputs[forked] = (
            [emit(run.report, fmt) for fmt in ("json", "table", "sarif-like")], run.notices
        )
    assert len(forked_pids) == 1
    assert outputs[False] == outputs[True]
    kinds = {f.rule_id for f in parse_report(outputs[False][0][0]).all_findings()}
    assert "V2-SIGNATURE-MATCH" in kinds and any(kind.startswith("V1-") for kind in kinds)
    if corpus_kind == "hostile":
        assert {"V2-ENCRYPTED-ARCHIVE", "V2-UNSAFE-ARCHIVE"} <= kinds
        assert "testbed__zip-bundle-serverless:archives/sub/hidden.zip!vendor/cache.bin" in (
            outputs[False][0][1].decode()
        )
        assert [n for n in outputs[False][1] if "(symlink)" in n][:3] == [
            f"{rel}: not a regular file (symlink); skipped" for rel in sorted(SYMLINKS)
        ]
