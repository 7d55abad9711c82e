"""Template classification, parsing, rule engine, and the CORS check."""
from __future__ import annotations

import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from slsa_audit import iaclint, tfparse
from slsa_audit.config import AuditConfig
from slsa_audit.demo import build_demo_corpus
from slsa_audit.iaclint import (
    DEFAULT_CATALOG,
    MAX_NESTING,
    IaCFramework,
    SAM_TRANSFORM,
    TemplateParseError,
    UnsupportedExtensionError,
    check_cors_wildcard,
    lint_template,
    load_catalog,
    load_template,
    run_rules,
    severity_histogram,
)
from slsa_audit.ingest import serialize_manifest
from slsa_audit.model import AttackVector, AuditError, ComponentRef, Repository, Severity
from slsa_audit.report import scan_corpus
from slsa_audit.tfparse import TerraformParseError, parse_terraform

SAM_MINIMAL = f"""Transform: {SAM_TRANSFORM}
Resources:
  Fn:
    Type: AWS::Serverless::Function
    Properties:
      Handler: app.handler
      Runtime: python3.12
"""

CFN_MINIMAL = """Resources:
  Topic:
    Type: AWS::SNS::Topic
"""

TF_MINIMAL = 'resource "aws_sns_topic" "t" {\n  name = "events"\n}\n'


def _framework(path: str, contents: str) -> IaCFramework:
    return load_template(path, contents).framework


def test_classify_by_extension():
    assert _framework("main.tf", TF_MINIMAL) is IaCFramework.TERRAFORM
    assert _framework("t.yaml", SAM_MINIMAL) is IaCFramework.SAM
    assert _framework("t.yml", SAM_MINIMAL) is IaCFramework.SAM
    assert _framework("t.json", '{"Resources": {}}') is IaCFramework.CLOUDFORMATION
    assert _framework("t.yaml", CFN_MINIMAL) is IaCFramework.CLOUDFORMATION


def test_classify_transform_list_form():
    doc = f"Transform:\n  - {SAM_TRANSFORM}\n  - Other::Macro\nResources: {{}}\n"
    assert _framework("t.yaml", doc) is IaCFramework.SAM


def test_classify_unsupported_extension():
    with pytest.raises(UnsupportedExtensionError):
        load_template("t.xml", "<Resources/>")


def test_classify_from_tree_when_only_construction_would_fail():
    # The Transform line is a comment, which a textual search would match.
    doc = f"# Transform: {SAM_TRANSFORM}\nResources:\n  A: !!python/object:os.system {{Type: X}}\n"
    notices: list[str] = []
    framework, _ = lint_template("t.yaml", doc, notices=notices)
    assert framework is IaCFramework.CLOUDFORMATION
    assert notices == []


def test_classify_stable_under_key_reordering():
    base = {
        "Transform": SAM_TRANSFORM,
        "Resources": {"Fn": {"Type": "AWS::Serverless::Function", "Properties": {"Handler": "h"}}},
        "Parameters": {"P": {"Type": "String"}},
    }
    rng = random.Random(11)
    keys = list(base)
    for _ in range(8):
        rng.shuffle(keys)
        doc = json.dumps({k: base[k] for k in keys})
        assert _framework("t.json", doc) is IaCFramework.SAM


def test_load_template_resources_and_spans():
    model = load_template("t.yaml", SAM_MINIMAL)
    assert len(model.resources) == 1
    node = model.resources[0]
    assert node.logical_id == "Fn"
    assert node.resource_type == "AWS::Serverless::Function"
    assert 1 <= node.source_span.line_start <= node.source_span.line_end <= model.line_count
    assert SAM_TRANSFORM in model.transforms


def test_load_template_empty_resources():
    model = load_template("t.yaml", "Resources: {}\n")
    assert model.resources == []


def test_load_template_duplicate_ids_rejected():
    doc = "Resources:\n  A:\n    Type: X\n  A:\n    Type: Y\n"
    with pytest.raises(TemplateParseError, match="duplicate"):
        load_template("t.yaml", doc)


def test_parse_terraform_resource_block():
    model = load_template("m.tf", 'resource "aws_s3_bucket" "b" { }\n')
    assert [r.resource_type for r in model.resources] == ["aws_s3_bucket"]


def test_parse_terraform_syntax_error_names_line():
    with pytest.raises(TemplateParseError, match="line 2"):
        load_template("m.tf", 'resource "a" "b" {\n  x = = 1\n}\n')


@pytest.mark.parametrize("literal", ["2E", "1e", "1.2.3", "\u00b2", "-1e+", "7.e"])
def test_terraform_malformed_number_names_line(literal):
    with pytest.raises(TemplateParseError, match=re.escape(f"line 2: malformed number '{literal}'")):
        load_template("m.tf", f'resource "a" "b" {{\n  x = {literal}\n}}\n')


def test_terraform_numbers_keep_their_tokens():
    literals = ["0", "12", "-3", "1.5", "-0.25", "2e3", "1E-2", "1e+2", "4.", "007"]
    text = "a {\n" + "".join(f"  v{i} = {lit}\n" for i, lit in enumerate(literals)) + "}\n"
    body = parse_terraform(text)[0].body
    for i, literal in enumerate(literals):
        try:
            expected: object = int(literal)
        except ValueError:
            expected = float(literal)
        assert type(body[f"v{i}"]) is type(expected) and body[f"v{i}"] == expected


_TF_DEEP = 3000


@pytest.mark.parametrize("text", [
    'resource "a" "b" { x = ' + "[" * _TF_DEEP + "]" * _TF_DEEP + " }",
    "a {" * _TF_DEEP + "}" * _TF_DEEP,
    'resource "a" "b" { x = ' + "{ k = " * _TF_DEEP + "1" + "}" * _TF_DEEP + " }",
], ids=["lists", "blocks", "maps"])
def test_terraform_deep_nesting_is_a_parse_error(text):
    with pytest.raises(TerraformParseError, match="nesting too deep"):
        parse_terraform(text)


_TF_HAND_WRITTEN = """# numbers, references, calls, heredocs and nested blocks
variable "size" { default = 128 }
resource "aws_lambda_function" "fn" {
  memory_size = var.size
  timeout     = 3.5e1
  layers      = [aws_lambda_layer_version.dep[0].arn, "arn:aws:x"]
  environment {
    variables = { K = "v", N = -2, S = "${var.size}" }
  }
  policy = <<EOF
{"Statement": [{"Action": "*"}]}
EOF
  tags = merge(local.tags, { name = lookup(var.m, "k", 1) })
}
"""
_TF_BYTES = '{}[]()=,:"#/*<-+.eE0123456789\u00b2$ \n'


def test_mutated_terraform_raises_only_parse_errors(demo_templates):
    texts = [t for p, t in demo_templates if p.endswith(".tf")] + [_TF_HAND_WRITTEN]
    rng = random.Random("mutate-tf")
    for _ in range(2000):
        chars = list(rng.choice(texts))
        for _ in range(rng.randint(1, 4)):
            pos = rng.randrange(len(chars) + 1)
            op = rng.choice(("replace", "insert", "delete"))
            char = rng.choice(_TF_BYTES) if rng.random() < 0.8 else chr(rng.randrange(0x250))
            if op == "insert" or pos == len(chars):
                chars.insert(pos, char)
            elif op == "replace":
                chars[pos] = char
            else:
                del chars[pos]
        try:
            parse_terraform("".join(chars))
        except TerraformParseError:
            pass


def test_intrinsics_kept_opaque():
    doc = """Resources:
  Perm:
    Type: AWS::Lambda::Permission
    Properties:
      FunctionName: !Ref Fn
      SourceArn: !GetAtt [Bucket, Arn]
"""
    model = load_template("t.yaml", doc)
    findings = run_rules(model, notices=[])
    assert findings == []  # SourceArn present (as a reference), rule must not fire


# ---------------------------------------------------------------------------
# Golden rules
# ---------------------------------------------------------------------------

ARN_MISSING = """Resources:
  Permit:
    Type: AWS::Lambda::Permission
    Properties:
      Action: lambda:InvokeFunction
      FunctionName: target
      Principal: s3.amazonaws.com
"""

KMS_DEFAULT = """Resources:
  Bucket:
    Type: AWS::S3::Bucket
    Properties:
      BucketEncryption:
        ServerSideEncryptionConfiguration:
          - ServerSideEncryptionByDefault:
              SSEAlgorithm: aws:kms
"""

CORS_WILDCARD = f"""Transform: {SAM_TRANSFORM}
Parameters:
  CorsOrigin:
    Type: String
    Default: '*'
Resources:
  Api:
    Type: AWS::Serverless::Api
    Properties:
      StageName: prod
      AccessLogSetting:
        DestinationArn: arn:aws:logs:::x
"""


def test_rule_arn_fires_once():
    model = load_template("t.yaml", ARN_MISSING)
    findings = run_rules(model, notices=[])
    assert [f.rule_id for f in findings] == ["R-ARN"]
    assert findings[0].severity is Severity.HIGH


def test_rule_arn_negated():
    fixed = ARN_MISSING + "      SourceArn: arn:aws:s3:::bucket\n"
    model = load_template("t.yaml", fixed)
    assert run_rules(model, notices=[]) == []


def test_rule_kms_fires_once():
    model = load_template("t.yaml", KMS_DEFAULT)
    findings = run_rules(model, notices=[])
    assert [f.rule_id for f in findings] == ["R-KMS"]
    assert findings[0].severity is Severity.MEDIUM


def test_rule_kms_negated():
    fixed = KMS_DEFAULT + "              KMSMasterKeyID: arn:aws:kms:::key/1\n"
    model = load_template("t.yaml", fixed)
    assert run_rules(model, notices=[]) == []


def _sam_api(resource_type: str, log_property: str | None) -> str:
    doc = f"""Transform: {SAM_TRANSFORM}
Resources:
  Stage:
    Type: {resource_type}
    Properties:
      StageName: prod
"""
    if log_property:
        doc += f"      {log_property}:\n        DestinationArn: arn:aws:logs:::x\n"
    return doc


def _logging_findings(doc: str) -> list:
    _, findings = lint_template("t.yaml", doc, notices=[])
    return [f for f in findings if f.rule_id == "IAC-API-LOGGING-DISABLED"]


@pytest.mark.parametrize("stage_type", ["AWS::ApiGateway::Stage", "AWS::ApiGatewayV2::Stage"])
def test_sam_stage_logging_reads_access_log_settings(stage_type):
    assert _logging_findings(_sam_api(stage_type, "AccessLogSettings")) == []
    assert len(_logging_findings(_sam_api(stage_type, None))) == 1


def test_sam_serverless_api_logging_unchanged():
    api = "AWS::Serverless::Api"
    assert _logging_findings(_sam_api(api, "AccessLogSetting")) == []
    assert len(_logging_findings(_sam_api(api, None))) == 1


def test_cors_high_when_unauthenticated():
    model = load_template("t.yaml", CORS_WILDCARD)
    findings = check_cors_wildcard(model)
    assert len(findings) == 1
    assert findings[0].rule_id == "R-CORS" and findings[0].severity is Severity.HIGH


def test_cors_low_with_authorizer():
    doc = CORS_WILDCARD + "      Auth:\n        DefaultAuthorizer: Cognito\n"
    model = load_template("t.yaml", doc)
    findings = check_cors_wildcard(model)
    assert len(findings) == 1 and findings[0].severity is Severity.LOW


def test_cors_negated_on_pinned_origin():
    doc = CORS_WILDCARD.replace("Default: '*'", "Default: 'https://example.com'")
    model = load_template("t.yaml", doc)
    assert check_cors_wildcard(model) == []


def test_cors_silent_without_cors_keys():
    for doc, name in ((CFN_MINIMAL, "t.yaml"), (SAM_MINIMAL, "t.yaml"), (TF_MINIMAL, "t.tf")):
        model = load_template(name, doc)
        assert check_cors_wildcard(model) == []


def test_cors_inline_property():
    doc = f"""Transform: {SAM_TRANSFORM}
Resources:
  Api:
    Type: AWS::Serverless::Api
    Properties:
      StageName: prod
      Cors:
        AllowOrigin: "'*'"
"""
    model = load_template("t.yaml", doc)
    findings = check_cors_wildcard(model)
    assert len(findings) == 1 and findings[0].severity is Severity.HIGH


def test_rules_order_independent():
    model = load_template("t.yaml", ARN_MISSING + KMS_DEFAULT[10:])
    rng = random.Random(5)
    catalog = list(DEFAULT_CATALOG)
    baseline = run_rules(model, catalog, notices=[])
    for _ in range(5):
        rng.shuffle(catalog)
        assert run_rules(model, catalog, notices=[]) == baseline


def test_rules_only_fire_for_declared_framework():
    # A Terraform model must not trigger CloudFormation-typed rules.
    model = load_template("m.tf", TF_MINIMAL)
    assert run_rules(model, notices=[]) == []


def test_spans_inside_file():
    for doc in (ARN_MISSING, KMS_DEFAULT):
        model = load_template("t.yaml", doc)
        for resource in model.resources:
            assert 1 <= resource.source_span.line_start <= model.line_count
            assert resource.source_span.line_start <= resource.source_span.line_end


def test_histogram_sums():
    _, findings_a = lint_template("a.yaml", ARN_MISSING, notices=[])
    _, findings_b = lint_template(
        "b.tf", 'resource "aws_s3_bucket" "x" {\n  acl = "public-read"\n}\n', notices=[]
    )
    tagged = [(IaCFramework.CLOUDFORMATION, f) for f in findings_a]
    tagged += [(IaCFramework.TERRAFORM, f) for f in findings_b]
    histogram = severity_histogram(tagged)
    assert sum(histogram.total.values()) == len(tagged)
    per_framework_total = sum(
        count for per in histogram.by_framework.values() for count in per.values()
    )
    assert per_framework_total == len(tagged)


def test_histogram_empty():
    histogram = severity_histogram([])
    assert histogram.total == {} and histogram.by_framework == {}


def test_histogram_direct_counts():
    _, arn = lint_template("a.yaml", ARN_MISSING, notices=[])
    _, kms = lint_template("k.yaml", KMS_DEFAULT, notices=[])
    tagged = [(IaCFramework.CLOUDFORMATION, f) for f in arn + arn + kms]
    histogram = severity_histogram(tagged)
    assert histogram.total == {Severity.HIGH: 2, Severity.MEDIUM: 1}


def test_catalog_file_round_trip(tmp_path):
    doc = [
        {
            "rule_id": "X-TEST",
            "severity": "High",
            "description": "test rule",
            "matchers": {
                "CloudFormation": {
                    "resource_types": ["AWS::Lambda::Permission"],
                    "predicate": {"absent": "SourceArn"},
                }
            },
        }
    ]
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(doc))
    catalog = load_catalog(path)
    model = load_template("t.yaml", ARN_MISSING)
    findings = run_rules(model, catalog, notices=[])
    assert [f.rule_id for f in findings] == ["X-TEST"]
    doc.append(dict(doc[0]))
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="duplicate"):
        load_catalog(path)


def test_undetermined_terraform_value_notices():
    doc = (
        'resource "aws_s3_bucket" "b" {\n'
        "  acl = var.acl_mode\n"
        "}\n"
    )
    model = load_template("m.tf", doc)
    notices: list[str] = []
    findings = run_rules(model, notices=notices)
    assert findings == []
    assert any("undetermined" in n for n in notices)


# ---------------------------------------------------------------------------
# One composition per template: loaders, limits and hostile input
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def demo_corpus(tmp_path_factory):
    return build_demo_corpus(tmp_path_factory.mktemp("demo") / "corpus")


def _demo_templates(corpus: Path) -> list[tuple[str, str]]:
    return [
        (path.relative_to(corpus).as_posix(), path.read_text(encoding="utf-8"))
        for path in sorted(corpus.glob("*/iac/**/*"))
        if path.is_file()
    ]


def _one_component_corpus(root: Path, filename: str, text: str) -> ComponentRef:
    ref = ComponentRef(Repository.GITHUB, "alice", "stack")
    component = root / ref.slug
    (component / "iac").mkdir(parents=True)
    (component / "component.meta").write_text(serialize_manifest(ref, {}))
    (component / "iac" / filename).write_text(text)
    return ref


@pytest.mark.parametrize("filename, text, rule_ids, notice", [
    # The timestamp constructor raised ValueError on an impossible date;
    # compose-only parsing keeps the scalar as text.
    ("t.yaml", ARN_MISSING + "      Date: 2020-13-45\n", ["R-ARN"], None),
    ("t.json", '{"Resources": {"R": {"Type": "X", "Properties": {"P": '
     + "[" * 600 + "]" * 600 + "}}}}", [], "nesting deeper than 512 levels"),
    ("t.yaml", "Resources:\n  R: &a {Type: X, Properties: {P: *a}}\n", [], "aliases expand"),
    ("t.tf", 'resource "a" "b" {\n  x = 2E\n}\n', [], "line 2: malformed number"),
    ("t.tf", "a {" * 3000 + "}" * 3000, [], "nesting too deep"),
], ids=["bad-timestamp", "deep-json", "recursive-alias", "bad-tf-number", "deep-tf"])
def test_scan_corpus_isolates_bad_template(tmp_path, filename, text, rule_ids, notice):
    ref = _one_component_corpus(tmp_path / "corpus", filename, text)
    config = AuditConfig(enabled_vectors=frozenset({AttackVector.V4}))
    run = scan_corpus(tmp_path / "corpus", config)
    assert [f.rule_id for f in run.report.per_component[ref]] == rule_ids
    if notice is None:
        assert run.notices == []
    else:
        assert len(run.notices) == 1
        assert run.notices[0].startswith(f"{ref.slug}/iac/{filename}: ")
        assert notice in run.notices[0]


def test_scan_corpus_reports_undecodable_template(tmp_path):
    ref = _one_component_corpus(tmp_path / "corpus", "t.yaml", "")
    (tmp_path / "corpus" / ref.slug / "iac" / "t.yaml").write_bytes(b"Resources:\n  A: \xff\n")
    run = scan_corpus(tmp_path / "corpus", AuditConfig(enabled_vectors=frozenset({AttackVector.V4})))
    assert run.notices and run.notices[0].startswith(f"{ref.slug}/iac/t.yaml: ")


def test_nesting_guard_keeps_the_process_alive(tmp_path):
    # Composed without the guard, this document overflows libyaml's C stack,
    # so it runs in a child process: a crash fails the test, not the suite.
    template = tmp_path / "deep.yaml"
    template.write_text("Resources: " + "[" * 50_000 + "]" * 50_000 + "\n")
    src = Path(iaclint.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-m", "slsa_audit.cli", "iac", "--paths", str(template)],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert result.returncode == 0, result.stderr
    assert f"notice: {template}: nesting deeper than {MAX_NESTING} levels" in result.stderr


def test_nesting_limit_is_on_depth_not_indicator_count():
    many = "Resources:\n  R:\n    Type: X\n    Properties:\n      L:\n" + "        - x\n" * 600
    model = load_template("t.yaml", many)
    assert model.resources[0].properties["L"] == ["x"] * 600
    def nested(depth: int, open: str, close: str, inner: str = "") -> str:
        levels = depth - 4  # the root, Resources, R and Properties mappings are four
        return (
            '{"Resources": {"R": {"Type": "X", "Properties": {"L": '
            + open * levels + inner + close * levels + "}}}}"
        )

    def from_deep_stack(frames: int, call):
        return call() if frames == 0 else from_deep_stack(frames - 1, call)

    for path in ("t.json", "t.yaml"):
        for kind, innermost in ((("[", "]"), []), (('{"k": ', "}", "1"), {"k": 1})):
            with pytest.raises(TemplateParseError, match="nesting deeper than"):
                load_template(path, nested(MAX_NESTING + 1, *kind))
            # At the limit the values build, one frame per level, also when
            # the caller is already deep in its own stack.
            model = from_deep_stack(
                100, lambda: load_template(path, nested(MAX_NESTING, *kind))
            )
            value = model.resources[0].properties["L"]
            for _ in range(MAX_NESTING - 5):
                (value,) = value if isinstance(value, list) else value.values()
            assert value == innermost


def test_alias_expansion_bomb_refused():
    lines = ["Resources:", "  R:", "    Type: X", "    Properties:",
             "      a: &a [x, x, x, x, x, x, x, x, x, x]"]
    for prev, name in zip("abcde", "bcdef"):
        lines.append(f"      {name}: &{name} [" + ", ".join([f"*{prev}"] * 10) + "]")
    bomb = "\n".join(lines) + "\n"  # *f names 10**6 values
    with pytest.raises(TemplateParseError, match="aliases expand"):
        lint_template("t.yaml", bomb, notices=[])
    benign = "\n".join(lines[:6]) + "\n"  # *b names 100 values
    props = load_template("t.yaml", benign).resources[0].properties
    assert props["b"] == [["x"] * 10] * 10


_INTRINSIC = "INTRINSIC-SENTINEL"
_KEYS = ("Name", "AllowOrigin", "SourceArn", "Environment", "Variables", "Statement",
         "Action", "Auth", "Cors", "Tags", "a b", "x-y", "1")
_SCALARS = ("*", "'*'", "arn:aws:s3:::b", 7, -2.5, True, None, "", "yes", "0x1F",
            "2020-01-01", "- dash", "a: b", "# hash", "multi\nline\n", "  padded  ", _INTRINSIC)


def _random_value(rng: random.Random, depth: int = 0) -> object:
    roll = rng.random()
    if depth > 3 or roll < 0.45:
        return rng.choice(_SCALARS)
    if roll < 0.7:
        return [_random_value(rng, depth + 1) for _ in range(rng.randint(0, 3))]
    return {rng.choice(_KEYS): _random_value(rng, depth + 1) for _ in range(rng.randint(0, 4))}


def _random_template(rng: random.Random) -> tuple[str, str]:
    doc: dict = {}
    transform = rng.choice([None, SAM_TRANSFORM, [SAM_TRANSFORM, "Other::Macro"], ["Other::Macro"]])
    if transform is not None:
        doc["Transform"] = transform
    if rng.random() < 0.5:
        doc["Parameters"] = {f"P{i}": {"Type": "String", "Default": rng.choice(_SCALARS)}
                             for i in range(rng.randint(0, 3))}
    doc["Resources"] = {
        f"R{i}": {"Type": rng.choice(("AWS::Lambda::Permission", "AWS::S3::Bucket",
                                      "AWS::Serverless::Api", "AWS::IAM::Role")),
                  "Properties": _random_value(rng, 1)}
        for i in range(rng.randint(0, 4))
    }
    if rng.random() < 0.3:
        text = json.dumps(doc, indent=rng.choice((None, 2)))
        return "t.json", text.replace(f'"{_INTRINSIC}"', '{"Ref": "Other"}')
    text = yaml.safe_dump(doc, sort_keys=rng.random() < 0.5, width=rng.choice((20, 80)),
                          default_flow_style=rng.choice((False, None, True)))
    text = text.replace(_INTRINSIC, rng.choice(("!Ref Other", "!GetAtt [Other, Arn]")))
    return "t.yaml", rng.choice(("", "---\n", "# head\n")) + text + rng.choice(
        ("", "\n", "# tail\n", "...\n", "\n\n  # indented tail\n"))


_HAND_WRITTEN = """Transform: [AWS::Serverless-2016-10-31]
Parameters:
  Base: &base {Type: String, Default: '*'}
  Copy: *base
Resources:
  Fn:  # trailing comment
    Type: AWS::Serverless::Function
    Properties:
      Code: |
        def handler(event, context):
            return 1
      Role: !GetAtt [Role, Arn]
      Cond: !If [IsProd, {A: 1}, !Ref AWS::NoValue]
      Env: &env
        Variables: {K: v}

  Other:
    Type: AWS::Lambda::Function
    Properties: {Environment: *env, Flag: on, Size: 1e3, Octal: 0o17}
...
"""


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")
def test_libyaml_and_pure_loaders_build_equal_models(demo_corpus, monkeypatch):
    rng = random.Random(23)
    templates = _demo_templates(demo_corpus) + [("hand.yaml", _HAND_WRITTEN)]
    templates += [_random_template(rng) for _ in range(150)]
    for path, text in templates:
        monkeypatch.setattr(iaclint, "_LOADER", yaml.CSafeLoader)
        fast = load_template(path, text)
        monkeypatch.setattr(iaclint, "_LOADER", yaml.SafeLoader)
        assert load_template(path, text) == fast, text


def test_scan_corpus_composes_each_template_once(demo_corpus, monkeypatch):
    composed = []

    class CountingLoader(iaclint._LOADER):
        def __init__(self, stream):
            composed.append(stream)
            super().__init__(stream)

    monkeypatch.setattr(iaclint, "_LOADER", CountingLoader)
    templates = dict(_demo_templates(demo_corpus))
    run = scan_corpus(demo_corpus, AuditConfig(enabled_vectors=frozenset({AttackVector.V4})))
    assert run.report.all_findings()
    # Each YAML template is composed once; the JSON one is read by json.
    yaml_texts = [text for path, text in templates.items() if path.endswith(".yaml")]
    assert len(yaml_texts) == 2 and sorted(composed) == sorted(yaml_texts)
    assert sum(path.endswith(".json") for path in templates) == 1
    # A tab is one of the characters that send a JSON template to compose.
    composed.clear()
    (json_text,) = [text for path, text in templates.items() if path.endswith(".json")]
    tabbed = json_text.replace(",\n", ",\t\n", 1)
    assert tabbed != json_text
    load_template("iac/stack.json", tabbed)
    assert composed == [tabbed]


_STRUCTURAL_BYTES = list(b"[]{}:-?&*!|>'\"#,\n \t%@`")


@pytest.fixture(scope="module")
def demo_templates(demo_corpus):
    return _demo_templates(demo_corpus)


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_mutated_templates_raise_only_audit_errors(demo_templates, data):
    path, text = data.draw(st.sampled_from(demo_templates))
    raw = bytearray(text.encode("utf-8"))
    for _ in range(data.draw(st.integers(1, 6))):
        pos = data.draw(st.integers(0, len(raw)))
        byte = data.draw(st.one_of(st.sampled_from(_STRUCTURAL_BYTES), st.integers(0, 255)))
        op = data.draw(st.sampled_from(("replace", "insert", "delete")))
        if op == "insert" or pos == len(raw):
            raw.insert(pos, byte)
        elif op == "replace":
            raw[pos] = byte
        else:
            del raw[pos]
    # surrogateescape keeps undecodable bytes as lone surrogates.
    mutated = raw.decode("utf-8", errors="surrogateescape")
    try:
        lint_template(path, mutated, notices=[])
    except AuditError:
        pass


# ---------------------------------------------------------------------------
# The JSON path against compose
# ---------------------------------------------------------------------------


def _template_outcome(path: str, text: str, json_path: bool = True) -> str:
    """repr of load_template's model (dict order included), or its error."""
    saved = iaclint._json_model
    if not json_path:
        iaclint._json_model = lambda contents, path: None
    try:
        return repr(load_template(path, text))
    except TemplateParseError as exc:
        return f"TemplateParseError: {exc}"
    finally:
        iaclint._json_model = saved


_JSON_PLAIN_SCALARS = st.sampled_from([
    "0", "-0", "7", "-12", "1" * 40, "1e3", "1.0e3", "1E+3", "1.5E+3", "1.5e-3", "-0.5", "2.50",
    "1.5e+999", "NaN", "Infinity", "-Infinity", "true", "false", "null", '"*"', '"a\\/b"',
    '"q\\"\\\\\\b\\f\\n\\r\\t"', '"AWS::S3::Bucket"', '"AWS::Serverless::Api"', '"PublicRead"',
    f'"{SAM_TRANSFORM}"', '" "', '"# not a comment"', '"- x"', '"a: b"',
])
# Each of these sends its template to compose.
_JSON_TRAP_SCALARS = st.sampled_from([
    "1" * 4301, '"\\ud83d\\ude00"', '"\\u00e9"', '"\\\\u"', '"tab\there"', '"x' + "y" * 1100 + '"',
])
_JSON_KEYS = st.sampled_from(
    ["Type", "Properties", "AccessControl", "AllowOrigin", "Auth", "Default", "A", "B", "", "<<"]
)


def _json_values(scalars, space):
    """JSON value texts built from ``scalars``, with ``space`` around keys
    and colons (a newline before a colon included)."""

    def render(pairs):
        return "{" + ",".join(f"{a}{json.dumps(k)}{b}:{c}{v}" for (k, v), (a, b, c) in pairs) + "}"

    before_colon = st.sampled_from(["", " "] * 6 + ["\n"])
    return st.recursive(
        scalars,
        lambda inner: st.one_of(
            st.lists(inner, max_size=4).map(lambda items: "[" + ", ".join(items) + "]"),
            st.lists(
                st.tuples(st.tuples(_JSON_KEYS, inner), st.tuples(space, before_colon, space)),
                max_size=4,
            ).map(render),
        ),
        max_leaves=12,
    )


_PLAIN_SPACE = st.sampled_from(["", " ", "\n", "\n  ", "  \n", " \n\n "])
# Values a template reads with `json`, and values with every trap besides.
_JSON_PLAIN_VALUES = _json_values(
    st.one_of(_JSON_PLAIN_SCALARS, st.text(st.characters(min_codepoint=32, max_codepoint=126),
                                           max_size=6).map(json.dumps)),
    _PLAIN_SPACE,
)
_JSON_ANY_VALUES = _json_values(
    st.one_of(
        _JSON_PLAIN_SCALARS, _JSON_TRAP_SCALARS, st.text(max_size=6).map(json.dumps),
        st.text(max_size=3).map(lambda s: json.dumps(s, ensure_ascii=False)),
    ),
    st.one_of(_PLAIN_SPACE, st.just("\t")),
)


@st.composite
def _json_templates(draw) -> str:
    values = draw(st.sampled_from([_JSON_PLAIN_VALUES, _JSON_PLAIN_VALUES, _JSON_ANY_VALUES]))
    space = draw(st.sampled_from(["", " ", "\n", "\n  "]))
    resources = draw(st.lists(
        st.tuples(
            st.sampled_from(["R0", "R1", "R2", "Api", ""]),
            st.one_of(
                st.builds(
                    lambda type_, props: "{" + f'"Type": {type_},{space}"Properties": {props}' + "}",
                    st.sampled_from(['"AWS::S3::Bucket"', '"AWS::Serverless::Api"', "1.5E+3"]),
                    st.one_of(st.just("null"), values),
                ),
                values,
            ),
        ),
        min_size=1,
        max_size=4,
    ))
    root = []
    keys = draw(st.lists(st.sampled_from(["Transform", "Parameters", "Resources", "Outputs"]),
                         max_size=3))
    for key in keys + ["Resources"] * min(draw(st.integers(0, 4)), 1):
        if key == "Resources" and draw(st.integers(0, 3)):
            value = "{" + f",{space}".join(f"{json.dumps(k)}: {v}" for k, v in resources) + "}"
        elif key == "Parameters":
            value = "{" + ", ".join(
                f"{json.dumps(k)}: {v}" for k, v in draw(st.lists(st.tuples(_JSON_KEYS, values)))
            ) + "}"
        else:
            value = draw(values)
        root.append(f"{json.dumps(key)}: {value}")
    text = "{" + space + f",{space}".join(root) + space + "}"
    if draw(st.integers(0, 9)) < 7:
        return text + draw(st.sampled_from(["", "\n", " \n\n"]))
    return draw(st.sampled_from(["", " \n", "\ufeff", "[", "1 "])) + text + draw(
        st.sampled_from(["", "\n{}", "\n# tail", "x", "]", "\u2028"]))


@settings(max_examples=400, deadline=None)
@given(_json_templates())
def test_json_path_equals_compose(text):
    assert _template_outcome("t.json", text) == _template_outcome("t.json", text, json_path=False)


@pytest.mark.parametrize("text", [
    "", " ", "[]", "1", '"s"', "null", "{} {}", '{"a": 1}x', '{"a": 1,}', "{\"a\"\n: 1}",
    '{"Resources": ' * 300 + "{}" + "}" * 300,
    # Nesting near the depths where json's decoder and _ValueBuilder's
    # recursion give out, which lie close together.
    *(f'{{"Resources": {{"R": {"[" * depth + "]" * depth}}}}}' for depth in range(400, 511, 10)),
    *(f'{{"Transform": {"[" * depth + "]" * depth}}}' for depth in range(400, 511, 10)),
    *(f'{{"Parameters": {{"P": {"[" * depth + "]" * depth}}}}}' for depth in range(400, 511, 10)),
    '{"Resources": {"R": {"Type": "x", "Properties": ' + "[" * 480 + "]" * 480 + "}}}",
    '{"Resources": {"R": {"Type": "x"}, "R": {"Type": "y"}}}',
    '{"Resources": {"R": {"Type": "x"}}, "Resources": {"R": {"Type": "y"}}}',
    '{"Resources": {"R": {"Type": "x", "Type": "y", "Properties": {"A": 1, "A": {"A": 2}}}}}',
    '{"Parameters": {"P": {"Default": "*"}, "P": "x"}, "Resources": 5}',
    '{"Resources": {"R": "not an object", "S": {"Properties": null}}}',
    '{"Transform": "AWS::Serverless-2016-10-31", "Resources": {"F": {"Type": 1e3}}}',
    '{"Resources": {"' + "k" * 1030 + '": {"Type": "x"}}}',
    '{"Resources": {"R": {"Type": "' + "v" * 1010 + '"}}}',
    '{"Resources": {"R": {"Type": "x", "N": ' + "9" * 4301 + "}}}",
    '{"Resources": {"R": {"Type": "\\ud83d\\ude00"}}}',
    '﻿{"Resources": {"R": {"Type": "x"}}}',
    '{"Resources": {"R": {"Type": "x y"}}}',
    '{\n\t"Resources": {"R": {"Type": "x"}}}',
    '{"Resources":\n  {"R":\n    {"Type": "x"\n    }\n  ,\n  "S": {}}\n}\n',
])
def test_json_path_traps_equal_compose(text):
    assert _template_outcome("t.json", text) == _template_outcome("t.json", text, json_path=False)


def test_json_path_reads_generated_templates(demo_corpus):
    rng = random.Random(31)
    texts = [text for path, text in _demo_templates(demo_corpus) if path.endswith(".json")]
    for _ in range(150):
        path, text = _random_template(rng)
        if path.endswith(".json"):
            texts.append(text)
    assert len(texts) > 30
    for text in texts:
        assert iaclint._json_model(text, "t.json") is not None, text
        assert _template_outcome("t.json", text) == _template_outcome(
            "t.json", text, json_path=False
        )


# ---------------------------------------------------------------------------
# The Terraform tokenizer against its character loop
# ---------------------------------------------------------------------------


def _reference_tokenize(text: str) -> list[tfparse._Token]:
    """tfparse._tokenize as a loop over characters, kept as its oracle."""
    _Token, _PUNCT = tfparse._Token, tfparse._PUNCT
    tokens: list[_Token] = []
    i = 0
    line = 1
    n = len(text)
    while i < n:
        char = text[i]
        if char == "\n":
            line += 1
            i += 1
            continue
        if char in " \t\r":
            i += 1
            continue
        if char == "#" or text.startswith("//", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        if text.startswith("/*", i):
            end = text.find("*/", i + 2)
            if end == -1:
                raise TerraformParseError("unterminated block comment", line)
            line += text.count("\n", i, end)
            i = end + 2
            continue
        if text.startswith("<<", i):
            j = i + 2
            if j < n and text[j] == "-":
                j += 1
            marker_start = j
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            marker = text[marker_start:j]
            if not marker:
                raise TerraformParseError("malformed heredoc", line)
            body_start = text.find("\n", j) + 1
            if body_start == 0:
                raise TerraformParseError("unterminated heredoc", line)
            pos = body_start
            content_lines = []
            while True:
                line_end = text.find("\n", pos)
                if line_end == -1:
                    raise TerraformParseError("unterminated heredoc", line)
                candidate = text[pos:line_end]
                if candidate.strip() == marker:
                    break
                content_lines.append(candidate)
                pos = line_end + 1
            content = "\n".join(content_lines)
            tokens.append(_Token("string", content, line, interpolated="${" in content))
            line += text.count("\n", i, line_end)
            i = line_end + 1
            continue
        if char == '"':
            j = i + 1
            out = []
            interpolated = False
            depth = 0
            while j < n:
                c = text[j]
                if c == "\\" and j + 1 < n:
                    escape = text[j + 1]
                    out.append({"n": "\n", "t": "\t", '"': '"', "\\": "\\"}.get(escape, escape))
                    j += 2
                    continue
                if text.startswith("${", j):
                    interpolated = True
                    depth += 1
                    out.append("${")
                    j += 2
                    continue
                if depth and c == "}":
                    depth -= 1
                    out.append(c)
                    j += 1
                    continue
                if c == '"' and depth == 0:
                    break
                if c == "\n":
                    raise TerraformParseError("unterminated string", line)
                out.append(c)
                j += 1
            if j >= n:
                raise TerraformParseError("unterminated string", line)
            tokens.append(_Token("string", "".join(out), line, interpolated=interpolated))
            i = j + 1
            continue
        if char in _PUNCT:
            tokens.append(_Token("punct", char, line))
            i += 1
            continue
        if char.isdigit() or (char == "-" and i + 1 < n and text[i + 1].isdigit()):
            j = i + 1
            while j < n and (text[j].isdigit() or text[j] in ".eE+-"):
                if text[j] in "+-" and text[j - 1] not in "eE":
                    break
                j += 1
            literal = text[i:j]
            try:
                value: object = int(literal)
            except ValueError:
                try:
                    value = float(literal)
                except ValueError:
                    raise TerraformParseError(f"malformed number {literal!r}", line) from None
            tokens.append(_Token("number", value, line))
            i = j
            continue
        if char.isalpha() or char == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] in "_-."):
                j += 1
            tokens.append(_Token("ident", text[i:j], line))
            i = j
            continue
        raise TerraformParseError(f"unexpected character {char!r}", line)
    return tokens


_HCL_PIECES = st.sampled_from([
    "resource", "aws_s3_bucket", "b", "var.x", "a-b.c_d", "x9", "ä", "变量", "٣", "²", "½", "_u",
    "Ⅻ", "ǅ", "a٣²", '"plain"', '"with \\"escape\\""', '"tab\\tnl\\n\\\\"', '"${var.a}"',
    '"${ {x} }"', '"$"', '"cost $5"', '"{}"', '"\\${no}"', '"\\', '"open', '"multi\nline"',
    "<<EOF\nbody ${x}\n  EOF\n", "<<-EOT\n  indented\n  EOT\n", "<<EOF\nnever ends", "<<\n",
    "# hash comment", "// slash comment", "/* block\ncomment */", "/* open", "/", "/x",
    "1", "-2", "1.5e3", "2E", "1.2.3", "7e+2", "-", "{", "}", "[", "]", ",", "=", ":", "(", ")",
    " ", "\t", "\r", "\n", "  \n  ", "@", "<", "~", "é",
])


@settings(max_examples=500, deadline=None)
@given(st.lists(_HCL_PIECES, max_size=30).map(lambda pieces: "".join(pieces)))
def test_tokenizer_equals_the_character_loop(text):
    assert _outcome_of(tfparse._tokenize, text) == _outcome_of(_reference_tokenize, text)


def test_tokenizer_equals_the_character_loop_on_generated_files(demo_corpus):
    texts = [text for path, text in _demo_templates(demo_corpus) if path.endswith(".tf")]
    texts.append(TF_MINIMAL)
    assert texts
    for text in texts:
        assert tfparse._tokenize(text) == _reference_tokenize(text)


def _outcome_of(function, *args):
    try:
        return function(*args)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)
