"""Template classification, parsing, rule engine, and the CORS check."""
from __future__ import annotations

import json
import random

import pytest

from slsa_audit.iaclint import (
    DEFAULT_CATALOG,
    IaCFramework,
    SAM_TRANSFORM,
    TemplateParseError,
    UnsupportedExtensionError,
    check_cors_wildcard,
    classify_template,
    lint_template,
    load_catalog,
    parse_template,
    run_rules,
    severity_histogram,
)
from slsa_audit.model import Severity

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


def test_classify_by_extension():
    assert classify_template("main.tf", TF_MINIMAL) is IaCFramework.TERRAFORM
    assert classify_template("t.yaml", SAM_MINIMAL) is IaCFramework.SAM
    assert classify_template("t.yml", SAM_MINIMAL) is IaCFramework.SAM
    assert classify_template("t.json", '{"Resources": {}}') is IaCFramework.CLOUDFORMATION
    assert classify_template("t.yaml", CFN_MINIMAL) is IaCFramework.CLOUDFORMATION


def test_classify_transform_list_form():
    doc = f"Transform:\n  - {SAM_TRANSFORM}\n  - Other::Macro\nResources: {{}}\n"
    assert classify_template("t.yaml", doc) is IaCFramework.SAM


def test_classify_unsupported_extension():
    with pytest.raises(UnsupportedExtensionError):
        classify_template("t.xml", "<Resources/>")


def test_classify_textual_fallback_on_broken_yaml():
    broken = f"Transform: {SAM_TRANSFORM}\nResources:\n  - {{unclosed\n"
    notices: list[str] = []
    assert classify_template("t.yaml", broken, notices) is IaCFramework.SAM
    assert notices and "textually" in notices[0]


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
        assert classify_template("t.json", doc) is IaCFramework.SAM


def test_parse_template_resources_and_spans():
    model = parse_template(SAM_MINIMAL, IaCFramework.SAM, "t.yaml")
    assert len(model.resources) == 1
    node = model.resources[0]
    assert node.logical_id == "Fn"
    assert node.resource_type == "AWS::Serverless::Function"
    assert 1 <= node.source_span.line_start <= node.source_span.line_end <= model.line_count
    assert SAM_TRANSFORM in model.transforms


def test_parse_template_empty_resources():
    model = parse_template("Resources: {}\n", IaCFramework.CLOUDFORMATION, "t.yaml")
    assert model.resources == []


def test_parse_template_duplicate_ids_rejected():
    doc = "Resources:\n  A:\n    Type: X\n  A:\n    Type: Y\n"
    with pytest.raises(TemplateParseError, match="duplicate"):
        parse_template(doc, IaCFramework.CLOUDFORMATION, "t.yaml")


def test_parse_terraform_resource_block():
    model = parse_template(
        'resource "aws_s3_bucket" "b" { }\n', IaCFramework.TERRAFORM, "m.tf"
    )
    assert [r.resource_type for r in model.resources] == ["aws_s3_bucket"]


def test_parse_terraform_syntax_error_names_line():
    with pytest.raises(TemplateParseError, match="line 2"):
        parse_template('resource "a" "b" {\n  x = = 1\n}\n', IaCFramework.TERRAFORM, "m.tf")


def test_intrinsics_kept_opaque():
    doc = """Resources:
  Perm:
    Type: AWS::Lambda::Permission
    Properties:
      FunctionName: !Ref Fn
      SourceArn: !GetAtt [Bucket, Arn]
"""
    model = parse_template(doc, IaCFramework.CLOUDFORMATION, "t.yaml")
    findings = run_rules(model)
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
    model = parse_template(ARN_MISSING, IaCFramework.CLOUDFORMATION, "t.yaml")
    findings = run_rules(model)
    assert [f.rule_id for f in findings] == ["R-ARN"]
    assert findings[0].severity is Severity.HIGH


def test_rule_arn_negated():
    fixed = ARN_MISSING + "      SourceArn: arn:aws:s3:::bucket\n"
    model = parse_template(fixed, IaCFramework.CLOUDFORMATION, "t.yaml")
    assert run_rules(model) == []


def test_rule_kms_fires_once():
    model = parse_template(KMS_DEFAULT, IaCFramework.CLOUDFORMATION, "t.yaml")
    findings = run_rules(model)
    assert [f.rule_id for f in findings] == ["R-KMS"]
    assert findings[0].severity is Severity.MEDIUM


def test_rule_kms_negated():
    fixed = KMS_DEFAULT + "              KMSMasterKeyID: arn:aws:kms:::key/1\n"
    model = parse_template(fixed, IaCFramework.CLOUDFORMATION, "t.yaml")
    assert run_rules(model) == []


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
    _, findings = lint_template("t.yaml", doc)
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
    model = parse_template(CORS_WILDCARD, IaCFramework.SAM, "t.yaml")
    findings = check_cors_wildcard(model)
    assert len(findings) == 1
    assert findings[0].rule_id == "R-CORS" and findings[0].severity is Severity.HIGH


def test_cors_low_with_authorizer():
    doc = CORS_WILDCARD + "      Auth:\n        DefaultAuthorizer: Cognito\n"
    model = parse_template(doc, IaCFramework.SAM, "t.yaml")
    findings = check_cors_wildcard(model)
    assert len(findings) == 1 and findings[0].severity is Severity.LOW


def test_cors_negated_on_pinned_origin():
    doc = CORS_WILDCARD.replace("Default: '*'", "Default: 'https://example.com'")
    model = parse_template(doc, IaCFramework.SAM, "t.yaml")
    assert check_cors_wildcard(model) == []


def test_cors_silent_without_cors_keys():
    for doc, framework in ((CFN_MINIMAL, IaCFramework.CLOUDFORMATION),
                           (SAM_MINIMAL, IaCFramework.SAM),
                           (TF_MINIMAL, IaCFramework.TERRAFORM)):
        model = parse_template(doc, framework, "t")
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
    model = parse_template(doc, IaCFramework.SAM, "t.yaml")
    findings = check_cors_wildcard(model)
    assert len(findings) == 1 and findings[0].severity is Severity.HIGH


def test_rules_order_independent():
    model = parse_template(ARN_MISSING + KMS_DEFAULT[10:], IaCFramework.CLOUDFORMATION, "t.yaml")
    rng = random.Random(5)
    catalog = list(DEFAULT_CATALOG)
    baseline = run_rules(model, catalog)
    for _ in range(5):
        rng.shuffle(catalog)
        assert run_rules(model, catalog) == baseline


def test_rules_only_fire_for_declared_framework():
    # A Terraform model must not trigger CloudFormation-typed rules.
    model = parse_template(TF_MINIMAL, IaCFramework.TERRAFORM, "m.tf")
    assert run_rules(model) == []


def test_spans_inside_file():
    for doc, framework in (
        (ARN_MISSING, IaCFramework.CLOUDFORMATION),
        (KMS_DEFAULT, IaCFramework.CLOUDFORMATION),
    ):
        model = parse_template(doc, framework, "t.yaml")
        for resource in model.resources:
            assert 1 <= resource.source_span.line_start <= model.line_count
            assert resource.source_span.line_start <= resource.source_span.line_end


def test_histogram_sums():
    _, findings_a = lint_template("a.yaml", ARN_MISSING)
    _, findings_b = lint_template("b.tf", 'resource "aws_s3_bucket" "x" {\n  acl = "public-read"\n}\n')
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
    _, arn = lint_template("a.yaml", ARN_MISSING)
    _, kms = lint_template("k.yaml", KMS_DEFAULT)
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
    model = parse_template(ARN_MISSING, IaCFramework.CLOUDFORMATION, "t.yaml")
    findings = run_rules(model, catalog)
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
    model = parse_template(doc, IaCFramework.TERRAFORM, "m.tf")
    notices: list[str] = []
    findings = run_rules(model, notices=notices)
    assert findings == []
    assert any("undetermined" in n for n in notices)
