"""IaC template classification and misconfiguration rules (V4).

Templates are classified into Terraform / CloudFormation / SAM, parsed into
a framework-neutral resource model, and checked by a data-driven rule
catalog plus the dedicated wildcard-CORS check.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from enum import Enum
from json.decoder import scanstring
from pathlib import Path
from typing import Iterable

import yaml

from slsa_audit.model import (
    AttackVector,
    AuditError,
    ComponentRef,
    ConfigError,
    Finding,
    Repository,
    Severity,
    list_setting,
    read_settings_file,
)
from slsa_audit.tfparse import TerraformParseError, Undetermined, parse_terraform

SAM_TRANSFORM = "AWS::Serverless-2016-10-31"


class UnsupportedExtensionError(AuditError, ValueError):
    """Template extension is not .tf/.json/.yaml/.yml."""


class TemplateParseError(AuditError, ValueError):
    """Template body failed structural parsing."""


class IaCFramework(Enum):
    TERRAFORM = "Terraform"
    CLOUDFORMATION = "CloudFormation"
    SAM = "SAM"


@dataclass(frozen=True)
class IntrinsicRef:
    """A short-form intrinsic (!Ref, !GetAtt, ...) kept as an opaque node."""

    tag: str
    value: object


def _is_undetermined(value: object) -> bool:
    if isinstance(value, (IntrinsicRef, Undetermined)):
        return True
    # Long-form intrinsics in JSON templates: {"Ref": ...} / {"Fn::*": ...}.
    if isinstance(value, dict) and len(value) == 1:
        key = next(iter(value))
        return key == "Ref" or key.startswith("Fn::")
    return False


@dataclass(frozen=True)
class SourceSpan:
    file: str
    line_start: int
    line_end: int

    def __str__(self) -> str:
        return f"{self.file}:{self.line_start}-{self.line_end}"


@dataclass
class ResourceNode:
    logical_id: str
    resource_type: str
    properties: dict
    source_span: SourceSpan


@dataclass
class TemplateModel:
    framework: IaCFramework
    path: str
    parameters: dict[str, dict] = field(default_factory=dict)
    resources: list[ResourceNode] = field(default_factory=list)
    transforms: list[str] = field(default_factory=list)
    line_count: int = 0


# ---------------------------------------------------------------------------
# Classification and structured parsing: one composition per template
# ---------------------------------------------------------------------------

# libyaml's composer when PyYAML was built with it, the pure-Python one
# otherwise. Both resolve scalar tags with PyYAML's Python Resolver and keep
# the marks SourceSpan needs; no constructor runs, so nothing else differs.
_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader

# Deepest collection nesting a template may have. libyaml's composer
# recurses on the C stack, where a deep enough document kills the process
# instead of raising.
MAX_NESTING = 512
# Every collection level needs one of these indicators, so their count
# bounds the nesting depth.
_NESTING_INDICATORS = "[{-:?"

# Values built from one template's node tree, per character of its text.
# An alias is expanded wherever it is referenced, so without a cap a few
# hundred bytes can name millions of values.
_MAX_VALUES_PER_CHAR = 10


def _is_structured(path: str) -> bool:
    """True for a YAML/JSON template, False for Terraform."""
    suffix = Path(path).suffix.lower()
    if suffix == ".tf":
        return False
    if suffix not in (".json", ".yaml", ".yml"):
        raise UnsupportedExtensionError(
            f"unsupported template extension {suffix!r} for {path} (expected .tf/.json/.yaml/.yml)"
        )
    return True


def _check_nesting(contents: str, path: str) -> None:
    """Refuse a document nested deeper than MAX_NESTING, before composing it.

    The depth is measured only when the indicator count allows a deeper
    document, from the parser's event stream, which is iterative.
    """
    if sum(map(contents.count, _NESTING_INDICATORS)) <= MAX_NESTING:
        return
    depth = 0
    for event in yaml.parse(contents, Loader=_LOADER):
        if isinstance(event, yaml.CollectionStartEvent):
            depth += 1
            if depth > MAX_NESTING:
                raise TemplateParseError(f"{path}: nesting deeper than {MAX_NESTING} levels")
        elif isinstance(event, yaml.CollectionEndEvent):
            depth -= 1


class _ValueBuilder:
    """Builds plain value trees from one template's nodes, keeping intrinsics.

    Refuses to build more than _MAX_VALUES_PER_CHAR values per character
    of the template.
    """

    def __init__(self, path: str, contents: str) -> None:
        self.path = path
        self.remaining = _MAX_VALUES_PER_CHAR * len(contents)

    def __call__(self, node: yaml.Node) -> object:
        try:
            return self._value(node)
        except RecursionError:
            raise TemplateParseError(f"{self.path}: values nested too deep to build") from None

    def _value(self, node: yaml.Node) -> object:
        self.remaining -= 1
        if self.remaining < 0:
            raise TemplateParseError(
                f"{self.path}: aliases expand to more than {_MAX_VALUES_PER_CHAR} values per character"
            )
        if isinstance(node, yaml.ScalarNode):
            if node.tag.startswith("tag:yaml.org,2002:"):
                kind = node.tag.rsplit(":", 1)[-1]
                if kind == "int":
                    try:
                        return int(node.value)
                    except ValueError:
                        return node.value
                if kind == "float":
                    try:
                        return float(node.value)
                    except ValueError:
                        return node.value
                if kind == "bool":
                    return node.value.lower() in ("true", "yes", "on")
                if kind == "null":
                    return None
                return node.value
            return IntrinsicRef(tag=node.tag, value=node.value)
        # Loops, not comprehensions: a comprehension is a frame of its own
        # before Python 3.12, which would halve the depth that builds.
        if isinstance(node, yaml.SequenceNode):
            items = []
            for child in node.value:
                items.append(self._value(child))
            return items
        if isinstance(node, yaml.MappingNode):
            out = {}
            for key_node, value_node in node.value:
                key = str(self._value(key_node))
                out[key] = self._value(value_node)
            if not node.tag.startswith("tag:yaml.org,2002:"):
                return IntrinsicRef(tag=node.tag, value=out)
            return out
        raise TemplateParseError(f"{self.path}: unsupported YAML node {node!r}")


def load_template(path: str, contents: str) -> TemplateModel:
    """Classify and parse one template, composing a YAML/JSON text once.

    The framework comes from the extension and, for YAML/JSON, from the
    Transform value of the composed root.
    """
    if not _is_structured(path):
        return _parse_terraform_model(contents, path)
    return _parse_cfn_model(contents, path)


def _parse_cfn_model(contents: str, path: str) -> TemplateModel:
    """The model of a YAML/JSON template, its framework read from the root's
    Transform: from `_json_model` when it reads the text, else composed."""
    try:
        _check_nesting(contents, path)
        model = _json_model(contents, path) if path.lower().endswith(".json") else None
        root = yaml.compose(contents, Loader=_LOADER) if model is None else None
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        line = f" at line {mark.line + 1}" if mark else ""
        raise TemplateParseError(f"{path}: YAML/JSON syntax error{line}: {exc}") from exc
    except UnicodeEncodeError as exc:
        # libyaml takes UTF-8, which a str holding a lone surrogate has none of.
        raise TemplateParseError(f"{path}: {exc}") from exc
    except RecursionError:
        raise TemplateParseError(f"{path}: nesting too deep to compose") from None
    if model is None:
        model = TemplateModel(
            framework=IaCFramework.CLOUDFORMATION,
            path=path,
            line_count=contents.count("\n") + 1,
        )
        if root is not None:
            _read_root(root, path, contents, model)
    if SAM_TRANSFORM in model.transforms:
        model.framework = IaCFramework.SAM
    return model


def _read_root(root: yaml.Node, path: str, contents: str, model: TemplateModel) -> None:
    """Fill model from a composed template root."""
    if not isinstance(root, yaml.MappingNode):
        raise TemplateParseError(f"{path}: template root must be a mapping")
    values = _ValueBuilder(path, contents)
    for key_node, value_node in root.value:
        key = str(values(key_node))
        if key == "Transform":  # a later Transform key replaces an earlier one
            value = values(value_node)
            model.transforms = value if isinstance(value, list) else [value]
        elif key == "Parameters":
            if isinstance(value_node, yaml.MappingNode):
                for name_node, param_node in value_node.value:
                    param = values(param_node)
                    if isinstance(param, dict):
                        model.parameters[str(values(name_node))] = param
        elif key == "Resources":
            if not isinstance(value_node, yaml.MappingNode):
                continue
            seen: set[str] = set()
            for name_node, resource_node in value_node.value:
                logical_id = str(values(name_node))
                if logical_id in seen:
                    raise TemplateParseError(f"{path}: duplicate logical id {logical_id!r}")
                seen.add(logical_id)
                resource = values(resource_node)
                if not isinstance(resource, dict):
                    continue
                span = SourceSpan(
                    file=path,
                    line_start=name_node.start_mark.line + 1,
                    line_end=max(resource_node.end_mark.line, name_node.start_mark.line + 1),
                )
                model.resources.append(
                    ResourceNode(
                        logical_id=logical_id,
                        resource_type=str(resource.get("Type", "")),
                        properties=resource.get("Properties") or {},
                        source_span=span,
                    )
                )


# A JSON template is composed, not read with `json`, when its text holds a
# character other than printable ASCII and newline (a tab, a BOM, U+2028,
# ...), a \u escape (an escaped surrogate pair is a YAML scanner error), a
# line over 1,000 characters (libyaml ends a simple key at 1,024; matched
# after a newline put in front of the text) or a key whose ":" is on a later
# line (a simple key is one line).
_JSON_LONG_LINE = re.compile(r"\n[^\n]{1001}")
_JSON_KEY_ON_TWO_LINES = re.compile(r'"[ ]*\n[ \n]*:')
_JSON_SPACE = re.compile(r"[ \n]*")
# A JSON number that YAML 1.1 resolves as a float (PyYAML's resolver): a
# fraction, and a signed exponent if any. Others, such as 1e3, 1.0e3 and
# 1E+3, compose as strings, and so do NaN and Infinity.
_YAML_FLOAT = re.compile(r"-?[0-9]+\.[0-9]+(?:[eE][-+][0-9]+)?")
_JSON_DECODER = json.JSONDecoder(
    parse_float=lambda s: float(s) if _YAML_FLOAT.fullmatch(s) else s, parse_constant=str
)
# A value with more brackets than this is composed rather than decoded by
# `json`, whose C decoder recurses once per level on the caller's stack.
_JSON_MAX_BRACKETS = 200
# The root members whose object values are walked member by member.
_WALKED = ("Parameters", "Resources")


class _Members(list):
    """The members of a JSON object, each as (key, key offset, value
    offset, value, value end)."""


def _json_members(text: str, pos: int, walk: tuple[str, ...] = ()) -> tuple[_Members, int]:
    """The members of the JSON object that opens at text[pos], and the
    offset after it. A member whose key is in ``walk`` and whose value is an
    object has that object's `_Members` as its value. Raises ValueError or
    IndexError where there is no object."""
    if text[pos] != "{":
        raise ValueError("expected '{'")
    members = _Members()
    pos = _JSON_SPACE.match(text, pos + 1).end()
    if text[pos] == "}":
        return members, pos + 1
    while True:
        if text[pos] != '"':
            raise ValueError("expected a key")
        key, end = scanstring(text, pos + 1)
        end = _JSON_SPACE.match(text, end).end()
        if text[end] != ":":
            raise ValueError("expected ':'")
        start = _JSON_SPACE.match(text, end + 1).end()
        if key in walk and text[start] == "{":
            value, end = _json_members(text, start)
        else:
            value, end = _JSON_DECODER.raw_decode(text, start)
        members.append((key, pos, start, value, end))
        pos = _JSON_SPACE.match(text, end).end()
        if text[pos] == "}":
            return members, pos + 1
        if text[pos] != ",":
            raise ValueError("expected ','")
        pos = _JSON_SPACE.match(text, pos + 1).end()


def _json_model(contents: str, path: str) -> TemplateModel | None:
    """The model `_read_root` builds from the composed JSON text, read with
    `json`'s C scanner, or None where the two might differ.

    Spans are rebuilt from offsets: a resource starts on the line of its
    id's opening quote and ends on the line of its closing brace. Raises
    only the duplicate-logical-id TemplateParseError that `_read_root`
    raises.
    """
    if (
        not (contents.isascii() and contents.replace("\n", "").isprintable())
        or "\\u" in contents
        or _JSON_LONG_LINE.search("\n" + contents)
        or _JSON_KEY_ON_TWO_LINES.search(contents)
    ):
        return None
    try:
        root, end = _json_members(contents, _JSON_SPACE.match(contents).end(), _WALKED)
        if _JSON_SPACE.match(contents, end).end() != len(contents):
            return None
    except (ValueError, IndexError, RecursionError):
        return None
    model = TemplateModel(
        framework=IaCFramework.CLOUDFORMATION, path=path, line_count=contents.count("\n") + 1
    )

    def too_deep(start: int, end: int) -> bool:
        return contents.count("{", start, end) + contents.count("[", start, end) > _JSON_MAX_BRACKETS

    for key, _, start, value, end in root:
        if key == "Transform":
            if too_deep(start, end):
                return None
            model.transforms = value if isinstance(value, list) else [value]
        elif key == "Parameters" and isinstance(value, _Members):
            for name, _, start, param, end in value:
                if too_deep(start, end):
                    return None
                if isinstance(param, dict):
                    model.parameters[name] = param
        elif key == "Resources" and isinstance(value, _Members):
            seen: set[str] = set()
            line, at = 0, 0  # line is the 0-based line of offset at
            for logical_id, key_at, start, resource, end in value:
                if logical_id in seen:
                    raise TemplateParseError(f"{path}: duplicate logical id {logical_id!r}")
                seen.add(logical_id)
                if too_deep(start, end):
                    return None
                if not isinstance(resource, dict):
                    continue
                line += contents.count("\n", at, key_at)
                line_start = line + 1
                line += contents.count("\n", key_at, end)
                at = end
                model.resources.append(
                    ResourceNode(
                        logical_id=logical_id,
                        resource_type=str(resource.get("Type", "")),
                        properties=resource.get("Properties") or {},
                        source_span=SourceSpan(path, line_start, max(line, line_start)),
                    )
                )
    return model


def _parse_terraform_model(contents: str, path: str) -> TemplateModel:
    try:
        blocks = parse_terraform(contents)
    except TerraformParseError as exc:
        raise TemplateParseError(f"{path}: {exc}") from exc
    model = TemplateModel(
        framework=IaCFramework.TERRAFORM, path=path, line_count=contents.count("\n") + 1
    )
    for block in blocks:
        if block.kind == "resource" and len(block.labels) >= 2:
            model.resources.append(
                ResourceNode(
                    logical_id=f"{block.labels[0]}.{block.labels[1]}",
                    resource_type=block.labels[0],
                    properties=block.body,
                    source_span=SourceSpan(path, block.line_start, block.line_end),
                )
            )
        elif block.kind == "variable" and block.labels:
            model.parameters[block.labels[0]] = {
                "Default": block.body.get("default"),
                "Type": block.body.get("type"),
            }
    return model


# ---------------------------------------------------------------------------
# Rule catalog and matcher mini-language
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RuleMatcher:
    """Matcher for one framework: resource-type selector + property predicate.

    Predicates: {"absent": path} | {"present": path} | {"equals": [path, value]}
    | {"wildcard": path} | {"any": [...]} | {"all": [...]} | {"not": {...}}.
    Paths are dot-separated property keys; lists broadcast automatically.
    """

    resource_types: tuple[str, ...]
    predicate: dict


@dataclass(frozen=True)
class MisconfigRule:
    rule_id: str
    severity: Severity
    description: str
    remediation: str = ""
    matchers: dict[IaCFramework, RuleMatcher] = field(default_factory=dict)


def _resolve_path(value: object, segments: list[str]) -> list[object]:
    """All values reachable at the path; lists map over their elements."""
    if not segments:
        return [value]
    if isinstance(value, list):
        out: list[object] = []
        for item in value:
            out.extend(_resolve_path(item, segments))
        return out
    head, *rest = segments
    if isinstance(value, dict):
        if head == "*":
            out = []
            for child in value.values():
                out.extend(_resolve_path(child, rest))
            return out
        if head in value:
            return _resolve_path(value[head], rest)
    return []


def _eval_predicate(predicate: dict, properties: dict) -> bool | None:
    """Tri-state evaluation: True/False, or None when undetermined."""
    if "all" in predicate:
        result: bool | None = True
        for sub in predicate["all"]:
            verdict = _eval_predicate(sub, properties)
            if verdict is None:
                return None
            result = result and verdict
        return result
    if "any" in predicate:
        result = False
        for sub in predicate["any"]:
            verdict = _eval_predicate(sub, properties)
            if verdict is None:
                return None
            result = result or verdict
        return result
    if "not" in predicate:
        verdict = _eval_predicate(predicate["not"], properties)
        return None if verdict is None else not verdict
    if "absent" in predicate:
        values = _resolve_path(properties, predicate["absent"].split("."))
        return len(values) == 0
    if "present" in predicate:
        values = _resolve_path(properties, predicate["present"].split("."))
        return len(values) > 0
    if "equals" in predicate:
        path, expected = predicate["equals"]
        values = _resolve_path(properties, path.split("."))
        if any(_is_undetermined(v) for v in values):
            return None
        return any(v == expected for v in values)
    if "wildcard" in predicate:
        values = _resolve_path(properties, predicate["wildcard"].split("."))
        if any(_is_undetermined(v) for v in values):
            return None
        return any(_is_wildcard_origin(v) for v in values)
    raise ValueError(f"unknown predicate {predicate!r}")


def _is_wildcard_origin(value: object) -> bool:
    if isinstance(value, str):
        return value.strip() in ("*", "'*'", '"*"')
    if isinstance(value, list):
        return any(_is_wildcard_origin(v) for v in value)
    return False


def _cfn_and_sam(matcher: RuleMatcher) -> dict[IaCFramework, RuleMatcher]:
    """One matcher for both CloudFormation and SAM, whose templates share
    the AWS resource types and property names it reads."""
    return {IaCFramework.CLOUDFORMATION: matcher, IaCFramework.SAM: matcher}


DEFAULT_CATALOG: tuple[MisconfigRule, ...] = (
    MisconfigRule(
        rule_id="R-ARN",
        severity=Severity.HIGH,
        description="Lambda permission without a source ARN allows any principal of the service to invoke the function",
        remediation="set SourceArn to the specific resource allowed to invoke",
        matchers={
            **_cfn_and_sam(RuleMatcher(("AWS::Lambda::Permission",), {"absent": "SourceArn"})),
            IaCFramework.TERRAFORM: RuleMatcher(
                ("aws_lambda_permission",), {"absent": "source_arn"}
            ),
        },
    ),
    MisconfigRule(
        rule_id="R-KMS",
        severity=Severity.MEDIUM,
        description="S3 bucket encrypted with an AWS-managed key instead of a customer-managed KMS key",
        remediation="reference a customer-managed key id in the bucket encryption settings",
        matchers={
            **_cfn_and_sam(RuleMatcher(
                ("AWS::S3::Bucket",),
                {
                    "all": [
                        {
                            "present": "BucketEncryption.ServerSideEncryptionConfiguration."
                            "ServerSideEncryptionByDefault.SSEAlgorithm"
                        },
                        {
                            "absent": "BucketEncryption.ServerSideEncryptionConfiguration."
                            "ServerSideEncryptionByDefault.KMSMasterKeyID"
                        },
                    ]
                },
            )),
            IaCFramework.TERRAFORM: RuleMatcher(
                ("aws_s3_bucket", "aws_s3_bucket_server_side_encryption_configuration"),
                {
                    "all": [
                        {
                            "present": "server_side_encryption_configuration.rule."
                            "apply_server_side_encryption_by_default.sse_algorithm"
                        },
                        {
                            "absent": "server_side_encryption_configuration.rule."
                            "apply_server_side_encryption_by_default.kms_master_key_id"
                        },
                    ]
                },
            ),
        },
    ),
    MisconfigRule(
        rule_id="IAC-S3-PUBLIC-ACL",
        severity=Severity.HIGH,
        description="S3 bucket grants public access through its ACL",
        remediation="switch the ACL to private and use bucket policies for scoped access",
        matchers={
            **_cfn_and_sam(RuleMatcher(
                ("AWS::S3::Bucket",),
                {"any": [{"equals": ["AccessControl", "PublicRead"]},
                          {"equals": ["AccessControl", "PublicReadWrite"]}]},
            )),
            IaCFramework.TERRAFORM: RuleMatcher(
                ("aws_s3_bucket", "aws_s3_bucket_acl"),
                {"any": [{"equals": ["acl", "public-read"]},
                          {"equals": ["acl", "public-read-write"]}]},
            ),
        },
    ),
    MisconfigRule(
        rule_id="IAC-IAM-WILDCARD-ACTION",
        severity=Severity.HIGH,
        description="IAM policy statement allows every action",
        remediation="enumerate the specific actions the role needs",
        matchers={
            **_cfn_and_sam(RuleMatcher(
                ("AWS::IAM::Policy", "AWS::IAM::Role", "AWS::IAM::ManagedPolicy"),
                {"any": [
                    {"equals": ["PolicyDocument.Statement.Action", "*"]},
                    {"equals": ["Policies.PolicyDocument.Statement.Action", "*"]},
                ]},
            )),
            IaCFramework.TERRAFORM: RuleMatcher(
                ("aws_iam_policy", "aws_iam_role_policy"),
                {"equals": ["policy.Statement.Action", "*"]},
            ),
        },
    ),
    MisconfigRule(
        rule_id="IAC-LAMBDA-ENV-NO-KMS",
        severity=Severity.MEDIUM,
        description="Lambda environment variables are not encrypted with a customer-managed key",
        remediation="set KmsKeyArn so environment variables are encrypted at rest with a key you control",
        matchers={
            IaCFramework.CLOUDFORMATION: RuleMatcher(
                ("AWS::Lambda::Function",),
                {"all": [{"present": "Environment.Variables"}, {"absent": "KmsKeyArn"}]},
            ),
            IaCFramework.SAM: RuleMatcher(
                ("AWS::Lambda::Function", "AWS::Serverless::Function"),
                {"all": [{"present": "Environment.Variables"}, {"absent": "KmsKeyArn"}]},
            ),
            IaCFramework.TERRAFORM: RuleMatcher(
                ("aws_lambda_function",),
                {"all": [{"present": "environment.variables"}, {"absent": "kms_key_arn"}]},
            ),
        },
    ),
    MisconfigRule(
        rule_id="IAC-API-LOGGING-DISABLED",
        severity=Severity.LOW,
        description="API stage has no access logging configured",
        remediation="configure access log settings on the stage",
        matchers={
            IaCFramework.CLOUDFORMATION: RuleMatcher(
                ("AWS::ApiGateway::Stage", "AWS::ApiGatewayV2::Stage"),
                {"absent": "AccessLogSettings"},
            ),
            IaCFramework.SAM: RuleMatcher(
                ("AWS::ApiGateway::Stage", "AWS::ApiGatewayV2::Stage", "AWS::Serverless::Api"),
                # Serverless::Api names the property AccessLogSetting; the
                # ApiGateway stages name it AccessLogSettings.
                {"all": [{"absent": "AccessLogSetting"}, {"absent": "AccessLogSettings"}]},
            ),
            IaCFramework.TERRAFORM: RuleMatcher(
                ("aws_api_gateway_stage",), {"absent": "access_log_settings"}
            ),
        },
    ),
)


def load_catalog(path: str | Path) -> tuple[MisconfigRule, ...]:
    """Load a JSON rule catalog: a list of rule objects with per-framework
    matchers ({framework: {resource_types, predicate}}).

    Malformed content raises ConfigError.
    """
    doc = read_settings_file(path)
    try:
        rules: list[MisconfigRule] = []
        seen: set[str] = set()
        for entry in doc:
            rule_id = entry["rule_id"]
            if rule_id in seen:
                raise ValueError(f"duplicate rule id {rule_id!r} in catalog")
            seen.add(rule_id)
            matchers = {}
            for name, matcher in entry["matchers"].items():
                predicate = matcher["predicate"]
                # Empty properties leave no value undetermined, so this walks the
                # whole predicate and raises on any unknown or misshapen part.
                _eval_predicate(predicate, {})
                matchers[IaCFramework(name)] = RuleMatcher(
                    resource_types=list_setting(matcher, "resource_types"), predicate=predicate
                )
            rules.append(
                MisconfigRule(
                    rule_id=rule_id,
                    severity=Severity(entry["severity"]),
                    description=entry.get("description", ""),
                    remediation=entry.get("remediation", ""),
                    matchers=matchers,
                )
            )
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise ConfigError(f"{path}: bad rule catalog: {exc}") from exc
    return tuple(rules)


_FALLBACK_COMPONENT = ComponentRef(Repository.LOCAL_CORPUS, "adhoc", "template")


def run_rules(
    model: TemplateModel,
    catalog: Iterable[MisconfigRule] = DEFAULT_CATALOG,
    component: ComponentRef | None = None,
    *,
    notices: list[str],
) -> list[Finding]:
    """Apply every catalog rule declared for the model's framework.

    Undetermined property values (references, interpolations) make a rule
    skip the resource with a notice instead of firing.
    """
    component = component or _FALLBACK_COMPONENT
    findings: list[Finding] = []
    for rule in catalog:
        matcher = rule.matchers.get(model.framework)
        if matcher is None:
            continue
        for resource in model.resources:
            if resource.resource_type not in matcher.resource_types:
                continue
            verdict = _eval_predicate(matcher.predicate, resource.properties)
            if verdict is None:
                notices.append(f"{model.path}: {rule.rule_id} undetermined for {resource.logical_id}")
                continue
            if verdict:
                findings.append(
                    Finding(
                        rule_id=rule.rule_id,
                        vector=AttackVector.V4,
                        severity=rule.severity,
                        component=component,
                        location=f"{model.path}:{resource.logical_id}"
                        f"@{resource.source_span.line_start}-{resource.source_span.line_end}",
                        evidence=f"{resource.resource_type} {resource.logical_id}: {rule.description}",
                        remediation=rule.remediation,
                    )
                )
    return sorted(findings, key=Finding.sort_key)


# ---------------------------------------------------------------------------
# Wildcard CORS check
# ---------------------------------------------------------------------------

CORS_KEY_SUBSTRINGS = ("corsorigin", "alloworigin")
AUTH_KEYS = ("auth", "authorizer", "authorizers")

_API_RESOURCE_TYPES = (
    "AWS::Serverless::Api",
    "AWS::Serverless::HttpApi",
    "AWS::ApiGateway::RestApi",
    "AWS::ApiGateway::Method",
    "AWS::ApiGatewayV2::Api",
    "aws_api_gateway_rest_api",
    "aws_apigatewayv2_api",
)

CORS_RULE_ID = "R-CORS"


_NOT_LOWER_ALNUM = re.compile(r"[^a-z0-9]")


def _normalize_key(key: str) -> str:
    return _NOT_LOWER_ALNUM.sub("", key.lower())


class _KeyMemo(dict):
    """``function`` of each key looked up, computed on its first lookup. One
    lives for one `check_cors_wildcard` call, so no key outlives it."""

    def __init__(self, function) -> None:
        super().__init__()
        self.function = function

    def __missing__(self, key: str) -> object:
        value = self[key] = self.function(key)
        return value


def _walk_items(tree: object, items: list | None = None) -> list[tuple[object, object]]:
    """Each (key, value) of every mapping in tree, depth first, in order."""
    if items is None:
        items = []
    if isinstance(tree, dict):
        for key, value in tree.items():
            items.append((key, value))
            _walk_items(value, items)
    elif isinstance(tree, list):
        for item in tree:
            _walk_items(item, items)
    return items


def _resource_has_auth(resource: ResourceNode, normalized_keys: _KeyMemo) -> bool:
    for key, value in _walk_items(resource.properties):
        normalized = normalized_keys[str(key)]
        if normalized in AUTH_KEYS and value not in (None, {}, []):
            return True
        if normalized == "authorizationtype" and isinstance(value, str) and value.upper() != "NONE":
            return True
    return False


def check_cors_wildcard(
    model: TemplateModel,
    component: ComponentRef | None = None,
    cors_substrings: tuple[str, ...] = CORS_KEY_SUBSTRINGS,
) -> list[Finding]:
    """Flag wildcard CORS origins; severity depends on API authentication.

    A wildcard origin feeding an unauthenticated API is High; a wildcard
    with every relevant API authenticated (or none present) is a Low
    advisory. Templates without CORS-related keys yield nothing.
    """
    component = component or _FALLBACK_COMPONENT
    normalized = _KeyMemo(_normalize_key)
    is_cors = _KeyMemo(lambda key: any(s in normalized[key] for s in cors_substrings))
    wildcard_sites: list[tuple[str, ResourceNode | None]] = []
    for name, param in model.parameters.items():
        if is_cors[name] and _is_wildcard_origin(param.get("Default")):
            wildcard_sites.append((f"parameter {name}", None))
    for resource in model.resources:
        for key, value in _walk_items(resource.properties):
            if is_cors[str(key)] and _is_wildcard_origin(value):
                wildcard_sites.append((f"{resource.logical_id}.{key}", resource))
    if not wildcard_sites:
        return []

    apis = [r for r in model.resources if r.resource_type in _API_RESOURCE_TYPES]
    findings: list[Finding] = []
    for site, owner in wildcard_sites:
        if owner is not None and owner.resource_type in _API_RESOURCE_TYPES:
            relevant = [owner]
        else:
            relevant = apis
        unauthenticated = [r for r in relevant if not _resource_has_auth(r, normalized)]
        if unauthenticated:
            target = unauthenticated[0]
            findings.append(
                Finding(
                    rule_id=CORS_RULE_ID,
                    vector=AttackVector.V4,
                    severity=Severity.HIGH,
                    component=component,
                    location=f"{model.path}:{site}",
                    evidence=(
                        f"wildcard CORS origin at {site} feeds unauthenticated API "
                        f"{target.logical_id}: any domain can call it"
                    ),
                    remediation="pin the allowed origin and add an authorizer to the API",
                )
            )
        else:
            findings.append(
                Finding(
                    rule_id=CORS_RULE_ID,
                    vector=AttackVector.V4,
                    severity=Severity.LOW,
                    component=component,
                    location=f"{model.path}:{site}",
                    evidence=f"wildcard CORS origin at {site}; APIs declare authentication",
                    remediation="pin the allowed origin to the front-end domains",
                )
            )
    return sorted(findings, key=Finding.sort_key)


# ---------------------------------------------------------------------------
# Histogram
# ---------------------------------------------------------------------------


@dataclass
class IaCHistogram:
    total: dict[Severity, int] = field(default_factory=dict)
    by_framework: dict[IaCFramework, dict[Severity, int]] = field(default_factory=dict)


def severity_histogram(
    tagged_findings: Iterable[tuple[IaCFramework, Finding]]
) -> IaCHistogram:
    """Severity counts, total and split per framework."""
    histogram = IaCHistogram()
    for framework, finding in tagged_findings:
        histogram.total[finding.severity] = histogram.total.get(finding.severity, 0) + 1
        per = histogram.by_framework.setdefault(framework, {})
        per[finding.severity] = per.get(finding.severity, 0) + 1
    return histogram


def lint_template(
    path: str,
    contents: str,
    catalog: Iterable[MisconfigRule] = DEFAULT_CATALOG,
    component: ComponentRef | None = None,
    *,
    notices: list[str],
    cors_substrings: tuple[str, ...] = CORS_KEY_SUBSTRINGS,
) -> tuple[IaCFramework, list[Finding]]:
    """Classify, parse, and run all checks over one template."""
    model = load_template(path, contents)
    findings = run_rules(model, catalog, component, notices=notices)
    findings.extend(check_cors_wildcard(model, component, cors_substrings))
    return model.framework, sorted(findings, key=Finding.sort_key)
