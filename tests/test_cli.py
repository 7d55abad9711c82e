"""End-to-end CLI behaviour over the demo corpus."""
from __future__ import annotations

import builtins
import hashlib
import io
import json
import os
import shutil
from pathlib import Path

import pytest

from slsa_audit import archive, report, sevenz
from slsa_audit.cli import main
from slsa_audit.demo import build_demo_corpus, build_demo_db


@pytest.fixture(scope="module")
def demo(tmp_path_factory):
    dest = tmp_path_factory.mktemp("demo")
    corpus = build_demo_corpus(dest / "corpus")
    db = build_demo_db(dest / "db")
    return corpus, db


def test_demo_corpus_has_twelve_components(demo, capsys):
    corpus, _ = demo
    assert main(["ingest", "--root", str(corpus)]) == 0
    out = capsys.readouterr()
    assert len(out.out.strip().splitlines()) == 12


def test_ingest_filter_serverless(demo, capsys):
    corpus, _ = demo
    assert main(["ingest", "--root", str(corpus), "--filter-serverless"]) == 0
    filtered = capsys.readouterr().out.strip().splitlines()
    assert 0 < len(filtered) <= 12


def test_scan_all_json(demo, capsys):
    corpus, db = demo
    code = main(["--output", "json", "scan-all", "--corpus", str(corpus), "--db", str(db)])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["components"]) == 12
    rule_ids = {
        f["rule_id"] for c in doc["components"] for f in c["findings"]
    }
    # Every vector shows up in the demo corpus.
    assert any(r.startswith("V1-") for r in rule_ids)
    assert "V2-SIGNATURE-MATCH" in rule_ids
    assert "V3-DOCKER-SOCK" in rule_ids
    assert "R-ARN" in rule_ids and "R-CORS" in rule_ids
    assert "V5-NEAR-NAME" in rule_ids


def test_scan_all_fail_on(demo):
    corpus, db = demo
    assert main(["--output", "json", "--fail-on", "Critical",
                 "scan-all", "--corpus", str(corpus), "--db", str(db)]) == 1


def test_cvss3_vector_scores_reach_the_report_and_fail_on(tmp_path, capsys):
    corpus = build_demo_corpus(tmp_path / "corpus")
    db = build_demo_db(tmp_path / "db")
    vector = "CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H"  # 9.8, as OSV publishes it
    for path in db.iterdir():
        doc = json.loads(path.read_text())
        doc["severity"] = [{"type": "CVSS_V3", "score": vector}]
        path.write_text(json.dumps(doc))
    args = ["vulnscan", "--corpus", str(corpus), "--db", str(db)]
    assert main(["--output", "json", "--fail-on", "High", *args]) == 1
    captured = capsys.readouterr()
    findings = [f for item in json.loads(captured.out)["components"] for f in item["findings"]]
    assert findings and {f["severity"] for f in findings} == {"Critical"}
    assert "not scored" not in captured.err


def test_scan_all_byte_stable(demo, capsys):
    corpus, db = demo
    main(["--output", "json", "scan-all", "--corpus", str(corpus), "--db", str(db)])
    first = capsys.readouterr().out
    main(["--output", "json", "scan-all", "--corpus", str(corpus), "--db", str(db)])
    second = capsys.readouterr().out
    assert first == second


def test_scan_all_run_meta(demo, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(report, "_FORK_MIN_BYTES", 0)  # the demo's archives run in the parent
    corpus, db = demo
    meta_path = tmp_path / "meta.json"
    main(["--output", "json", "scan-all", "--corpus", str(corpus),
          "--db", str(db), "--run-meta", str(meta_path)])
    capsys.readouterr()
    meta = json.loads(meta_path.read_text())
    assert meta["enabled_vectors"] == ["V1", "V2", "V3", "V4", "V5"]
    assert meta["started"] and meta["finished"]
    worker = meta["archive_worker"]  # one demo component has archives/
    assert set(worker) == {
        "components", "seconds", "max_rss_mib", "parent_seconds", "waited_seconds"
    }
    assert worker["components"] == 1
    assert worker["seconds"] > 0 and worker["max_rss_mib"] > 0
    assert worker["parent_seconds"] >= 0 and worker["waited_seconds"] >= 0
    archives = sorted((corpus / "testbed__zip-bundle-serverless" / "archives").iterdir())
    assert meta["archives"] == {
        "files": len(archives), "bytes": sum(a.stat().st_size for a in archives), "forked": True,
    }

    bare = tmp_path / "bare"
    shutil.copytree(corpus, bare)
    shutil.rmtree(bare / "testbed__zip-bundle-serverless" / "archives")
    main(["--output", "json", "scan-all", "--corpus", str(bare),
          "--db", str(db), "--run-meta", str(meta_path)])
    capsys.readouterr()
    bare_meta = json.loads(meta_path.read_text())
    assert bare_meta["archive_worker"] is None and bare_meta["archives"] is None


def test_docker_cmd(demo, capsys):
    code = main(["--output", "json", "--fail-on", "High", "docker",
                 "--cmd", "docker run --privileged img"])
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    findings = doc["components"][0]["findings"]
    assert findings[0]["rule_id"] == "V3-PRIVILEGED"


def test_archive_scan_and_inject(demo, tmp_path, capsys):
    corpus, _ = demo
    bundle = corpus / "testbed__zip-bundle-serverless" / "archives" / "bundle.zip"
    assert main(["archive", "scan", str(bundle)]) == 0
    out = capsys.readouterr()
    assert "eicar" in out.out

    tree = tmp_path / "tree"
    tree.mkdir()
    (tree / "a.txt").write_text("hello")
    payload = tmp_path / "p.txt"
    payload.write_text("payload")
    out_file = tmp_path / "out.tar.gz"
    # gated without acknowledgement
    assert main(["archive", "inject", str(tree), str(payload),
                 "--format", "tar.gz", "-o", str(out_file)]) == 2
    assert main(["archive", "inject", str(tree), str(payload),
                 "--format", "tar.gz", "-o", str(out_file), "--i-am-testing"]) == 0
    assert out_file.is_file()


def test_vulnscan_compare(tmp_path, capsys):
    scan_a = tmp_path / "a.json"
    scan_b = tmp_path / "b.json"
    scan_a.write_text(json.dumps({
        "Results": [{"Target": "img", "Vulnerabilities": [
            {"VulnerabilityID": "CVE-1"}, {"VulnerabilityID": "CVE-2"}]}]
    }))
    scan_b.write_text(json.dumps({
        "source": {"target": "img"},
        "matches": [{"vulnerability": {"id": "CVE-2"}}, {"vulnerability": {"id": "CVE-3"}}],
    }))
    code = main(["vulnscan", "--corpus", "unused", "--db", "unused",
                 "--compare", str(scan_a), str(scan_b)])
    assert code == 0
    out = capsys.readouterr().out
    assert "jaccard 0.333" in out


_TRIVY = {"Results": [{"Target": "img", "Vulnerabilities": [{"VulnerabilityID": "CVE-1"}]}]}
_GRYPE = {"source": {"target": "img"}, "matches": [{"vulnerability": {"id": "CVE-1"}}]}


@pytest.mark.parametrize("fmt, content", [
    ("trivy-json", b"\xff\xfe{}"),
    ("trivy-json", b"[" * 100_000 + b"]" * 100_000),
    ("trivy-json", {"Results": 5}),
    ("trivy-json", {"Results": [5]}),
    ("trivy-json", {"ArtifactName": ["img"], "Results": []}),
    ("trivy-json", {"Results": [{"Target": 5}]}),
    ("trivy-json", {"Results": [{"Target": "img", "Vulnerabilities": 5}]}),
    ("trivy-json", {"Results": [{"Target": "img", "Vulnerabilities": [5]}]}),
    ("trivy-json", {"Results": [{"Target": "img", "Vulnerabilities": [{"VulnerabilityID": [1]}]}]}),
    ("grype-json", {"source": 5, "matches": []}),
    ("grype-json", {"source": {"target": {"userInput": ["img"]}}, "matches": []}),
    ("grype-json", {"matches": {"vulnerability": {"id": "CVE-1"}}}),
    ("grype-json", {"matches": [5]}),
    ("grype-json", {"matches": [{"vulnerability": 5}]}),
    ("grype-json", {"matches": [{"vulnerability": {"id": {"CVE": 1}}}]}),
], ids=["not-utf8", "too-deep", "results", "result", "artifact-name", "target", "vulns", "vuln",
        "vuln-id", "source", "target-input", "matches", "match", "vulnerability", "id"])
def test_vulnscan_compare_malformed_report_exits_2(tmp_path, capsys, monkeypatch, fmt, content):
    monkeypatch.chdir(tmp_path)
    good = {"trivy-json": _TRIVY, "grype-json": _GRYPE}
    for name, doc in good.items():
        Path(f"{name}.json").write_text(json.dumps(doc))
    if not isinstance(content, bytes):
        content = json.dumps(content).encode()
    Path("bad.json").write_bytes(content)
    reports = {name: f"{name}.json" for name in good} | {fmt: "bad.json"}
    assert main(["vulnscan", "--corpus", "unused", "--db", "unused",
                 "--compare", reports["trivy-json"], reports["grype-json"]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: bad.json: "), captured.err
    assert captured.err.count("\n") == 1


def _corpus_with_bad_component(corpus, tmp_path, manifest=b"repository=dockerhub\nname=c\n"):
    broken_corpus = shutil.copytree(corpus, tmp_path / corpus.name)
    bad = broken_corpus / "bad__c"
    bad.mkdir()
    (bad / "component.meta").write_bytes(manifest)  # by default, publisher missing
    return broken_corpus


BAD_COMPONENT_NOTICE = "notice: bad__c/component.meta: missing required key 'publisher'"


def test_vulnscan_reports_load_errors_and_skipped_advisories(demo, tmp_path, capsys):
    corpus, db = demo
    main(["--output", "json", "vulnscan", "--corpus", str(corpus), "--db", str(db)])
    clean = capsys.readouterr().out
    broken_corpus = _corpus_with_bad_component(corpus, tmp_path)
    broken_db = shutil.copytree(db, tmp_path / "db")
    (broken_db / "broken.json").write_text("{not json")
    code = main(["--output", "json", "vulnscan", "--corpus", str(broken_corpus),
                 "--db", str(broken_db)])
    assert code == 0
    captured = capsys.readouterr()
    assert captured.out == clean
    assert BAD_COMPONENT_NOTICE in captured.err
    assert "notice: skipped advisory broken.json" in captured.err


def test_scan_all_skips_advisories_of_the_wrong_shape(demo, tmp_path, capsys):
    corpus, db = demo
    command = ["--output", "json", "scan-all", "--corpus", str(corpus)]
    assert main([*command, "--db", str(db)]) == 0
    clean = capsys.readouterr().out
    bad_db = shutil.copytree(db, tmp_path / "db")
    shapes = {"list.json": [], "affected.json": {"id": "X-1", "affected": "x"},
              "severity.json": {"id": "X-2", "severity": 5}}
    for name, doc in shapes.items():
        (bad_db / name).write_text(json.dumps(doc))
    assert main([*command, "--db", str(bad_db)]) == 0
    captured = capsys.readouterr()
    assert captured.out == clean
    skipped = [line for line in captured.err.splitlines() if "skipped advisory" in line]
    assert sorted(line.split()[3] for line in skipped) == sorted(f"{n}:" for n in shapes)


def test_scan_all_skips_advisories_with_bad_version_bounds(demo, tmp_path, capsys):
    corpus, db = demo
    command = ["--output", "json", "scan-all", "--corpus", str(corpus)]
    assert main([*command, "--db", str(db)]) == 0
    clean = capsys.readouterr().out
    bad_db = shutil.copytree(db, tmp_path / "db")
    for name, bound in {"int.json": 5, "empty.json": ""}.items():
        (bad_db / name).write_text(json.dumps({"id": name, "affected": [{
            "package": {"ecosystem": "npm", "name": "lodash"},
            "ranges": [{"type": "SEMVER", "events": [{"introduced": bound}]}],
        }]}))
    assert main([*command, "--db", str(bad_db)]) == 0
    captured = capsys.readouterr()
    assert captured.out == clean
    skipped = [line for line in captured.err.splitlines() if "skipped advisory" in line]
    assert sorted(line.split()[3] for line in skipped) == ["empty.json:", "int.json:"]


@pytest.mark.parametrize("score", ["nan", "11", "inf", "-1"])
def test_scan_all_skips_an_advisory_whose_score_is_not_in_0_to_10(demo, tmp_path, capsys, score):
    corpus, db = demo
    command = ["--output", "json", "scan-all", "--corpus", str(corpus)]
    without = shutil.copytree(db, tmp_path / "without")
    (without / "CVE-2019-10744.json").unlink()
    assert main([*command, "--db", str(without)]) == 0
    clean = capsys.readouterr().out
    bad_db = shutil.copytree(db, tmp_path / "db")
    doc = json.loads((bad_db / "CVE-2019-10744.json").read_text())
    doc["severity"][0]["score"] = score
    (bad_db / "CVE-2019-10744.json").write_text(json.dumps(doc))
    assert main([*command, "--db", str(bad_db)]) == 0
    captured = capsys.readouterr()
    assert captured.out == clean
    assert (f"notice: skipped advisory CVE-2019-10744.json: CVSS score {score!r} is not a number"
            " in [0.0, 10.0]") in captured.err


def test_scan_all_skips_an_advisory_nested_too_deep(demo, tmp_path, capsys):
    corpus, db = demo
    command = ["--output", "json", "scan-all", "--corpus", str(corpus)]
    assert main([*command, "--db", str(db)]) == 0
    clean = capsys.readouterr().out
    bad_db = shutil.copytree(db, tmp_path / "db")
    (bad_db / "deep.json").write_text("[" * 200_000 + "]" * 200_000)
    assert main([*command, "--db", str(bad_db)]) == 0
    captured = capsys.readouterr()
    assert captured.out == clean
    assert "notice: skipped advisory deep.json: maximum recursion depth exceeded" in captured.err


@pytest.mark.parametrize("config, command", [
    ({"typosquat": {"max_distance": 0}}, ["scan-all"]),
    ({"typosquat": {"max_distance": 0}}, ["typosquat"]),
    (None, ["typosquat", "--max-distance", "0"]),
    (None, ["typosquat", "--max-distance", "-1"]),
], ids=["config-scan-all", "config-typosquat", "flag-0", "flag-minus-1"])
def test_max_distance_below_one_exits_2(demo, tmp_path, capsys, config, command):
    corpus, _ = demo
    argv = [*command[:1], "--corpus", str(corpus), *command[1:]]
    if config is not None:
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        argv = ["--config", str(config_path), *argv]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "typosquat.max_distance must be >= 1, got " in err, err


@pytest.mark.parametrize("key", ["max_expansion_ratio", "max_total_bytes"])
@pytest.mark.parametrize("value", [-1, 0, float("nan")], ids=["-1", "0", "NaN"])
def test_extraction_limit_that_disables_v2_exits_2(demo, tmp_path, capsys, key, value):
    corpus, db = demo
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"archive": {key: value}}))
    argv = ["--config", str(config_path), "scan-all", "--corpus", str(corpus), "--db", str(db)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {config_path}: bad config value: "), captured.err


@pytest.mark.parametrize("command", [
    ["--output", "json", "docker"],
    ["--output", "json", "iac"],
    ["typosquat"],
])
def test_corpus_commands_report_load_errors(demo, tmp_path, capsys, command):
    corpus, _ = demo
    assert main([*command, "--corpus", str(corpus)]) == 0
    clean = capsys.readouterr()
    assert BAD_COMPONENT_NOTICE not in clean.err
    broken_corpus = _corpus_with_bad_component(corpus, tmp_path)
    assert main([*command, "--corpus", str(broken_corpus)]) == 0
    captured = capsys.readouterr()
    assert captured.out == clean.out
    assert BAD_COMPONENT_NOTICE in captured.err


@pytest.mark.parametrize("command", [
    ["ingest", "--root"],
    ["--output", "json", "scan-all", "--corpus"],
], ids=["ingest", "scan-all"])
def test_non_utf8_manifest_is_a_load_error(demo, tmp_path, capsys, command):
    corpus, _ = demo
    assert main([*command, str(corpus)]) == 0
    clean = capsys.readouterr()
    broken_corpus = _corpus_with_bad_component(
        corpus, tmp_path, b"repository=dockerhub\npublisher=b\nname=b\xff\n"
    )
    assert main([*command, str(broken_corpus)]) == 0
    captured = capsys.readouterr()
    assert captured.out == clean.out
    assert "bad__c/component.meta: not UTF-8: " in captured.err


def test_iac_over_corpus(demo, capsys):
    corpus, _ = demo
    code = main(["--output", "json", "iac", "--corpus", str(corpus), "--histogram"])
    assert code == 0
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    rule_ids = {f["rule_id"] for c in doc["components"] for f in c["findings"]}
    assert {"R-ARN", "R-KMS", "R-CORS"} <= rule_ids
    assert "Terraform" in captured.err


_IAC_PATHS_TABLE = """\
corpus: paths
components: 1    findings: 6
severity: Critical 0  High 4  Medium 1  Low 1  Unknown 0

component                                    vulns  findings
------------------------------------------------------------
localcorpus/adhoc/template                       0         6
[Low     ] IAC-API-LOGGING-DISABLED adhoc__template:bluefin__etl-serverless/iac/template.yaml:EtlApi@7-12
[High    ] IAC-S3-PUBLIC-ACL        adhoc__template:acme__iac-library-serverless/iac/main.tf:aws_s3_bucket.assets@1-4
[High    ] R-ARN                    adhoc__template:acme__iac-library-serverless/iac/main.tf:aws_lambda_permission.invoke@6-11
[High    ] R-ARN                    adhoc__template:cloudkite__thumbnail-service/iac/template.yaml:InvokePermission@8-13
[High    ] R-CORS                   adhoc__template:bluefin__etl-serverless/iac/template.yaml:parameter CorsOrigin
[Medium  ] R-KMS                    adhoc__template:acme__iac-library-serverless/iac/stack.json:LogBucket@3-15
"""
_IAC_PATHS_ERR = """\
CloudFormation: Medium 1
SAM: High 2  Low 1
Terraform: High 2
notice: unsupported template extension '.txt' for notes.txt (expected .tf/.json/.yaml/.yml)
notice: broken.yaml: YAML/JSON syntax error at line 2: while parsing a flow node
"""  # then the composer's own lines, worded by libyaml or by PyYAML's pure-Python parser


@pytest.mark.parametrize("output", ["json", "table"])
def test_iac_paths_over_the_demo_templates(demo, tmp_path, capsys, monkeypatch, output):
    corpus, _ = demo
    monkeypatch.chdir(tmp_path)
    paths = []
    for template in sorted(corpus.glob("*/iac/*")):
        rel = template.relative_to(corpus)
        rel.parent.mkdir(parents=True, exist_ok=True)
        shutil.copy(template, rel)
        paths.append(rel.as_posix())
    Path("notes.txt").write_text("hello\n")
    Path("broken.yaml").write_text("Resources: [\n")
    argv = ["--output", output, "iac", "--histogram", "--paths", *paths, "notes.txt", "broken.yaml"]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err.startswith(_IAC_PATHS_ERR) and captured.err.count("notice: ") == 2
    if output == "table":
        assert captured.out == _IAC_PATHS_TABLE
    else:
        # The digest pins every byte; the findings must be the table's rows.
        digest = hashlib.sha256(captured.out.encode()).hexdigest()
        assert digest == "64eccea1345ea59bc6033fba0e07c5f7ba0f3ed702a7fb9b0f0054ee0406674a"
        (component,) = json.loads(captured.out)["components"]
        rows = [line.split(maxsplit=3) for line in _IAC_PATHS_TABLE.splitlines()[7:]]
        assert [
            ("[" + f["severity"], f["rule_id"], f"adhoc__template:{f['location']}")
            for f in component["findings"]
        ] == [(sev, rule, location) for sev, _, rule, location in rows]
    assert main(["--fail-on", "High", *argv]) == 1
    assert capsys.readouterr().err.startswith(_IAC_PATHS_ERR)


def test_iac_paths_reads_templates_as_a_corpus_scan_does(demo, tmp_path, capsys, monkeypatch):
    corpus, _ = demo
    monkeypatch.chdir(tmp_path)
    template = (corpus / "bluefin__etl-serverless" / "iac" / "template.yaml").read_bytes()
    Path("lf.yaml").write_bytes(template)
    Path("crlf.yaml").write_bytes(template.replace(b"\n", b"\r\n"))
    Path("bin.yaml").write_bytes(b"Resources: \xff\n")
    text_opened = []
    for module in (builtins, io):
        def recording_open(file, *args, _open=module.open, **kwargs):
            text_opened.append(os.fspath(file))
            return _open(file, *args, **kwargs)

        monkeypatch.setattr(module, "open", recording_open)
    outputs = []
    for name in ("lf.yaml", "crlf.yaml"):
        assert main(["--output", "json", "iac", "--paths", name]) == 0
        outputs.append(capsys.readouterr().out.replace(name, "<path>"))
    assert outputs[0] == outputs[1] and '"findings": []' not in outputs[0]
    assert main(["iac", "--paths", "bin.yaml"]) == 0
    assert capsys.readouterr().err == "notice: bin.yaml: undecodable bytes replaced with U+FFFD\n"
    assert [path for path in text_opened if path.endswith(".yaml")] == []


def test_an_undecodable_byte_hides_no_iac_paths_finding(tmp_path, capsys):
    corpus = build_demo_corpus(tmp_path / "corpus")
    component = corpus / "acme__iac-library-serverless"
    (component / "iac" / "main.tf").unlink()
    template = component / "iac" / "stack.json"
    template.write_bytes(template.read_bytes().replace(
        b'"Type": "AWS::S3::Bucket",', b'"Type": "AWS::S3::Bucket", "Metadata": {"Note": "caf\xe9"},'
    ))
    findings = {}
    for args in (["--paths", str(template)], ["--corpus", str(corpus)]):
        assert main(["--output", "json", "iac", *args]) == 0
        captured = capsys.readouterr()
        findings[args[0]] = [
            f["rule_id"] for c in json.loads(captured.out)["components"] for f in c["findings"]
            if c["component"]["name"] in ("template", "iac-library-serverless")
        ]
        path = str(template) if args[0] == "--paths" else "acme__iac-library-serverless/iac/stack.json"
        assert captured.err.endswith(f"notice: {path}: undecodable bytes replaced with U+FFFD\n")
    assert findings["--paths"] == findings["--corpus"] == ["R-KMS"]


def test_typosquat_over_corpus(demo, capsys):
    corpus, _ = demo
    assert main(["typosquat", "--corpus", str(corpus), "--max-distance", "1"]) == 0
    out = capsys.readouterr().out
    assert "serverless-resizer" in out


def test_operational_error_exit_code(tmp_path, capsys):
    assert main(["ingest", "--root", str(tmp_path / "missing")]) == 2
    capsys.readouterr()


def test_config_threading(demo, tmp_path, capsys):
    corpus, db = demo
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"enabled_vectors": ["V3"]}))
    main(["--config", str(config_path), "--output", "json",
          "scan-all", "--corpus", str(corpus), "--db", str(db)])
    doc = json.loads(capsys.readouterr().out)
    vectors = {f["vector"] for c in doc["components"] for f in c["findings"]}
    assert vectors == {"V3"}


def test_config_cors_substrings_reach_scan_all(demo, tmp_path, capsys):
    corpus, db = demo

    def cors_findings(*config_args: str) -> list:
        main([*config_args, "--output", "json", "scan-all", "--corpus", str(corpus), "--db", str(db)])
        doc = json.loads(capsys.readouterr().out)
        return [f for c in doc["components"] for f in c["findings"] if f["rule_id"] == "R-CORS"]

    assert cors_findings()
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"iaclint": {"cors_substrings": ["no-such-key"]}}))
    assert cors_findings("--config", str(config_path)) == []


def test_config_unknown_key_notice(demo, tmp_path, capsys):
    corpus, db = demo
    main(["--output", "json", "scan-all", "--corpus", str(corpus), "--db", str(db)])
    clean = capsys.readouterr().out
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"iaclint": {"cors_substring": ["no-such-key"]}}))
    main(["--config", str(config_path), "--output", "json",
          "scan-all", "--corpus", str(corpus), "--db", str(db)])
    captured = capsys.readouterr()
    assert captured.out == clean
    assert f"notice: {config_path}: unknown config key 'iaclint.cors_substring' ignored" in captured.err


@pytest.mark.parametrize("output", ["json", "table", "sarif-like"])
@pytest.mark.parametrize("command, vector", [("docker", "V3"), ("iac", "V4")])
def test_vector_command_is_scan_all_restricted(demo, tmp_path, capsys, output, command, vector):
    corpus, _ = demo
    main(["--output", output, command, "--corpus", str(corpus)])
    restricted = capsys.readouterr().out
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"enabled_vectors": [vector]}))
    main(["--config", str(config_path), "--output", output, "scan-all", "--corpus", str(corpus)])
    assert restricted == capsys.readouterr().out


def test_v1_off_report_has_no_vuln_stats(demo, tmp_path, capsys):
    corpus, db = demo
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"enabled_vectors": ["V3"]}))
    main(["--config", str(config_path), "--output", "json",
          "scan-all", "--corpus", str(corpus), "--db", str(db)])
    doc = json.loads(capsys.readouterr().out)
    assert doc["stats"] is None and doc["cdf"] == []
    assert len(doc["components"]) == 12


def test_config_env_var_fallback(demo, tmp_path, capsys, monkeypatch):
    corpus, db = demo
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"enabled_vectors": ["V4"]}))
    monkeypatch.setenv("SLSA_AUDIT_CONFIG", str(config_path))
    main(["--output", "json", "scan-all", "--corpus", str(corpus), "--db", str(db)])
    doc = json.loads(capsys.readouterr().out)
    vectors = {f["vector"] for c in doc["components"] for f in c["findings"]}
    assert vectors == {"V4"}


def _stdin(data: bytes) -> io.TextIOWrapper:
    """A stdin whose text layer decodes strictly, as Python's does under
    ``PYTHONIOENCODING=utf-8:strict``."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="strict")


def test_docker_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", _stdin(b"docker run --privileged img\n"))
    assert main(["--output", "json", "docker", "--cmd", "-"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["components"][0]["findings"][0]["rule_id"] == "V3-PRIVILEGED"


def test_docker_stdin_with_an_undecodable_byte_is_linted_with_a_notice(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", _stdin(b"docker run --privileged -e X=\xff img\r\n"))
    assert main(["--output", "json", "--fail-on", "High", "docker", "--cmd", "-"]) == 1
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert [f["rule_id"] for f in doc["components"][0]["findings"]] == ["V3-PRIVILEGED"]
    assert captured.err == "notice: cmdline: undecodable bytes replaced with U+FFFD\n"


def test_archive_scan_reads_signatures_and_depth_from_config(tmp_path, capsys):
    inner = archive.pack_entries(
        [("deep.txt", b"MARKER"), ("eicar.txt", archive.EICAR_TEST_STRING)], archive.ArchiveFormat.ZIP
    )
    outer = tmp_path / "outer.zip"
    outer.write_bytes(archive.pack_entries(
        [("top.txt", b"xx MARKER xx"), ("inner.zip", inner)], archive.ArchiveFormat.ZIP
    ))
    signatures = tmp_path / "sigs.jsonl"
    signatures.write_text(json.dumps({"id": "marker", "kind": "substring", "pattern": "MARKER"}))
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(
        {"archive": {"signature_db": str(signatures), "recursion_depth": 0}}
    ))

    def matches(config_args: list[str], scan_args: tuple[str, ...] = ()) -> list[str]:
        assert main([*config_args, "archive", "scan", str(outer), *scan_args]) == 0
        return capsys.readouterr().out.splitlines()

    with_config = ["--config", str(config_path)]
    assert matches([]) == ["match: eicar at inner.zip!eicar.txt"]
    assert matches(with_config) == ["match: marker at top.txt"]
    assert sorted(matches(with_config, ("--depth", "1"))) == [
        "match: marker at inner.zip!deep.txt", "match: marker at top.txt"
    ]
    no_signatures = tmp_path / "none.jsonl"
    no_signatures.write_text("")
    assert matches(with_config, ("--signatures", str(no_signatures))) == []


def _archive_scan_sample(tmp_path, kind: str) -> list[str]:
    """Arguments that make `archive scan` hit one unsafe or encrypted archive."""
    path = tmp_path / f"{kind}.bin"
    if kind == "bomb":
        path.write_bytes(archive.pack_entries([("a.txt", b"a" * 4096)], archive.ArchiveFormat.TAR_GZ))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"archive": {"max_total_bytes": 1024}}))
        return ["--config", str(config), "archive", "scan", str(path)]
    if kind == "traversal":
        path.write_bytes(sevenz.write_7z([("../evil.py", b"import os")]))
    else:
        data = bytearray(archive.pack_entries([("secret.txt", b"hidden")], archive.ArchiveFormat.ZIP))
        data[6] |= 0x1  # the encryption bit, in the local header and the central directory
        data[data.index(b"PK\x01\x02") + 8] |= 0x1
        path.write_bytes(bytes(data))
    return ["archive", "scan", str(path)]


@pytest.mark.parametrize("kind, fail_on, code, line", [
    ("bomb", None, 0, "unsafe: tar.gz stream inflated past the 1024-byte cap"),
    ("bomb", "High", 1, "unsafe: "),
    ("bomb", "Critical", 0, "unsafe: "),
    ("traversal", "Low", 1, "unsafe: path-traversal entry rejected: '../evil.py'"),
    ("encrypted", None, 0, "encrypted: zip entry 'secret.txt' is encrypted"),
    ("encrypted", "Medium", 1, "encrypted: "),
    ("encrypted", "High", 0, "encrypted: "),
], ids=["bomb", "bomb-fail-high", "bomb-fail-critical", "traversal-fail-low", "encrypted",
        "encrypted-fail-medium", "encrypted-fail-high"])
def test_archive_scan_reports_unsafe_and_encrypted(tmp_path, capsys, kind, fail_on, code, line):
    # The severities are those scan-all gives: High for unsafe, Medium for encrypted.
    fail_args = ["--fail-on", fail_on] if fail_on else []
    assert main([*fail_args, *_archive_scan_sample(tmp_path, kind)]) == code
    out = capsys.readouterr().out
    assert out.startswith(line) and out.count("\n") == 1, out


@pytest.mark.parametrize("name, data", [
    ("corrupt.tar.gz", b"\x1f\x8b\x08garbage"), ("notes.txt", b"plain text")
], ids=["corrupt", "unsupported"])
def test_archive_scan_corrupt_or_unsupported_exits_2(tmp_path, capsys, name, data):
    (tmp_path / name).write_bytes(data)
    assert main(["archive", "scan", str(tmp_path / name)]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: ")


def test_typosquat_reads_max_distance_from_config(demo, tmp_path, capsys):
    corpus, _ = demo
    main(["typosquat", "--corpus", str(corpus), "--max-distance", "2"])
    at_two = capsys.readouterr().out
    main(["typosquat", "--corpus", str(corpus)])
    assert capsys.readouterr().out != at_two
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"typosquat": {"max_distance": 2}}))
    main(["--config", str(config_path), "typosquat", "--corpus", str(corpus)])
    assert capsys.readouterr().out == at_two
    main(["--config", str(config_path), "typosquat", "--corpus", str(corpus), "--max-distance", "1"])
    assert capsys.readouterr().out != at_two


_STRING_TYPES_CATALOG = json.dumps([{"rule_id": "X-1", "severity": "High", "matchers": {
    "CloudFormation": {"resource_types": "AWS::S3::Bucket", "predicate": {"present": "A"}}}}])


@pytest.mark.parametrize("command, content", [
    (["docker", "--cmd", "docker run img", "--rules"], '{"classes": {"NoSuchClass": {}}}'),
    (["docker", "--cmd", "docker run img", "--rules"], '{"sensitive_keys_exact": "KEY"}'),
    (["iac", "--paths", "t.yaml", "--catalog"], '[{"rule_id": "X-1"}]'),
    (["iac", "--paths", "t.yaml", "--catalog"], _STRING_TYPES_CATALOG),
    (["archive", "scan", "outer.zip", "--signatures"], '{"id": "x", "kind": "substring"}'),
], ids=["docker-rules", "docker-rules-string", "iac-catalog", "iac-catalog-string",
        "archive-signatures"])
def test_malformed_rules_file_exits_2(demo, tmp_path, capsys, monkeypatch, command, content):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "t.yaml").write_text("Resources: {}\n")
    (tmp_path / "outer.zip").write_bytes(
        archive.pack_entries([("a.txt", b"a")], archive.ArchiveFormat.ZIP)
    )
    rules = tmp_path / "rules.json"
    rules.write_text(content)
    assert main([*command, str(rules)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {rules}"), err


@pytest.mark.parametrize("command", [["iac", "--paths"], ["archive", "scan"]], ids=["iac", "archive"])
def test_directory_for_a_file_exits_2(tmp_path, capsys, command):
    assert main([*command, str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured.err
    assert repr(str(tmp_path)) in captured.err


@pytest.mark.parametrize("content", [None, b'{"a": "\xff"}', b"{not json"],
                         ids=["missing", "not-utf8", "not-json"])
@pytest.mark.parametrize("command", [
    ["--config", "settings.json", "docker", "--cmd", "docker run img"],
    ["iac", "--paths", "t.yaml", "--catalog", "settings.json"],
    ["docker", "--cmd", "docker run img", "--rules", "settings.json"],
], ids=["config", "catalog", "rules"])
def test_unreadable_settings_file_exits_2(tmp_path, capsys, monkeypatch, command, content):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "t.yaml").write_text("Resources: {}\n")
    if content is not None:
        (tmp_path / "settings.json").write_bytes(content)
    assert main(command) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: settings.json: "), captured.err
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("setting, argv, expected", [
    ({"archive": {"signature_db": "nope.jsonl"}},
     ["--config", "config.json", "docker", "--cmd", "docker run img"],
     "error: config.json: archive.signature_db: nope.jsonl: cannot read: "),
    ({"iaclint": {"catalog": "nope.json"}},
     ["--config", "config.json", "docker", "--cmd", "docker run img"],
     "error: config.json: iaclint.catalog: nope.json: cannot read: "),
    ({}, ["archive", "scan", "t.zip", "--signatures", "nope.jsonl"],
     "error: nope.jsonl: cannot read: "),
], ids=["signature-db", "catalog", "signatures-flag"])
def test_missing_settings_file_is_named(tmp_path, capsys, monkeypatch, setting, argv, expected):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "config.json").write_text(json.dumps(setting))
    (tmp_path / "t.zip").write_bytes(
        archive.pack_entries([("a.txt", b"text")], archive.ArchiveFormat.ZIP)
    )
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(expected), captured.err
    assert captured.err.count("\n") == 1


_SIGNATURES = json.dumps({"id": "marker", "kind": "substring", "pattern": "MARKER"})
_CATALOG = json.dumps([{"rule_id": "X-ENC", "severity": "High", "matchers": {"CloudFormation": {
    "resource_types": ["AWS::S3::Bucket"], "predicate": {"present": "BucketEncryption"}}}}])


@pytest.mark.parametrize("command, flag, setting", [
    (["archive", "scan", "outer.zip"], ["--depth", "0"], {"archive": {"recursion_depth": 0}}),
    (["archive", "scan", "outer.zip"], ["--signatures", "sigs.jsonl"],
     {"archive": {"signature_db": "sigs.jsonl"}}),
    (["--output", "json", "iac", "--corpus", "corpus"], ["--catalog", "catalog.json"],
     {"iaclint": {"catalog": "catalog.json"}}),
    (["typosquat", "--corpus", "corpus"], ["--max-distance", "2"],
     {"typosquat": {"max_distance": 2}}),
    (["typosquat", "--corpus", "corpus"], ["--include-aws-sar"],
     {"typosquat": {"include_aws_sar": True}}),
    (["--output", "json", "vulnscan", "--corpus", "corpus", "--db", "db"], ["--fp-filter"],
     {"vulnscan": {"fp_filter": True}}),
], ids=["depth", "signatures", "catalog", "max-distance", "include-aws-sar", "fp-filter"])
def test_flag_gives_the_output_of_its_config_key(
    demo, tmp_path, capsys, monkeypatch, command, flag, setting
):
    corpus, db = demo
    monkeypatch.chdir(tmp_path)
    (tmp_path / "corpus").symlink_to(corpus)
    (tmp_path / "db").symlink_to(db)
    inner = archive.pack_entries([("eicar.txt", archive.EICAR_TEST_STRING)], archive.ArchiveFormat.ZIP)
    (tmp_path / "outer.zip").write_bytes(archive.pack_entries(
        [("top.txt", b"MARKER"), ("inner.zip", inner)], archive.ArchiveFormat.ZIP
    ))
    (tmp_path / "sigs.jsonl").write_text(_SIGNATURES)
    (tmp_path / "catalog.json").write_text(_CATALOG)
    (tmp_path / "config.json").write_text(json.dumps(setting))

    def output(*argv: str) -> str:
        assert main(list(argv)) == 0
        return capsys.readouterr().out

    by_flag = output(*command, *flag)
    assert by_flag == output("--config", "config.json", *command)
    assert by_flag != output(*command)
