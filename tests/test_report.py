"""Aggregation, dedup, serialization round-trips, and output formats."""
from __future__ import annotations

import builtins
import errno
import io
import json
import os
import signal

import pytest

from slsa_audit import archive, report, vulnscan
from slsa_audit.archive import ArchiveError, ArchiveFormat, pack_entries
from slsa_audit.cli import main
from slsa_audit.config import AuditConfig
from slsa_audit.demo import build_demo_corpus, build_demo_db
from slsa_audit.ingest import load_corpus, serialize_manifest
from slsa_audit.model import (
    AttackVector,
    ComponentRef,
    Finding,
    Repository,
    Severity,
)
from slsa_audit.report import (
    aggregate,
    emit,
    exit_code_for,
    parse_report,
    report_to_dict,
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
    doc = report_to_dict(report)
    assert set(doc) == {"corpus_id", "components", "severity_histogram", "stats", "cdf"}
    assert doc["components"][0]["vuln_count"] == 1


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
    for module in (builtins, io):
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


def test_archive_worker_keeps_each_components_notices_in_vector_order(tmp_path):
    corpus, slug = _component_with_v2_to_v4_notices(tmp_path)
    (corpus / slug / "tree").mkdir(exist_ok=True)
    (corpus / slug / "tree" / "package.json").write_text("[]")
    archives = corpus / "testbed__zip-bundle-serverless" / "archives"
    (archives / "notes.txt").write_text("not an archive\n")
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
        vuln_findings, vuln_counts[entry.ref] = scan_vuln(entry, index, config, notices)
        findings += vuln_findings
        findings += scan_archives(entry, config, notices)
        findings += scan_docker(entry, config, notices)
        findings += [finding for _, finding in scan_iac(entry, config, notices)]
    assert run.notices == notices
    assert [n.split(":")[0].split("/")[1] for n in notices if n.startswith(f"{slug}/")] == [
        "tree", "archives", "run_commands.txt#2", "iac", "iac",
    ]
    expected = aggregate(
        findings, run.corpus_id, vuln_counts, config.cdf_thresholds,
        [entry.ref for entry in loaded.entries],
    )
    assert emit(run.report) == emit(expected)


def test_an_exception_in_the_archive_worker_is_raised_by_scan_corpus(tmp_path, monkeypatch):
    corpus = build_demo_corpus(tmp_path / "corpus")

    def failing_extract(*args, **kwargs):  # the forked worker inherits the patch
        raise RuntimeError("boom")

    monkeypatch.setattr(archive, "extract", failing_extract)
    with pytest.raises(RuntimeError, match="^boom$"):
        scan_corpus(corpus)


def test_an_exception_the_worker_cannot_pickle_is_a_runtime_error(tmp_path, monkeypatch):
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
