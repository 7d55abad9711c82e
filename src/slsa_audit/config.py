"""Runtime configuration: every analyzer knob in one JSON-loadable object.

Resolution order for the CLI: --config flag, then the SLSA_AUDIT_CONFIG
environment variable, then built-in defaults.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, replace
from pathlib import Path

from slsa_audit import dockerlint, iaclint, vulnscan
from slsa_audit.archive import BUILTIN_SIGNATURES, ExtractionLimits, Signature, load_signatures
from slsa_audit.model import DEFAULT_CDF_THRESHOLDS, AttackVector, ConfigError, list_setting


CONFIG_ENV_VAR = "SLSA_AUDIT_CONFIG"


@dataclass(frozen=True)
class AuditConfig:
    enabled_vectors: frozenset[AttackVector] = frozenset(AttackVector)
    # vulnscan
    source_extensions: tuple[str, ...] = vulnscan.SOURCE_EXTENSIONS
    fp_filter: bool = False
    # archive
    extraction_limits: ExtractionLimits = ExtractionLimits()
    recursion_depth: int = 3
    signatures: tuple[Signature, ...] = BUILTIN_SIGNATURES
    # dockerlint
    docker_rules: dict = field(default_factory=lambda: dict(dockerlint.DEFAULT_RULES))
    sensitive_keys: dockerlint.SensitiveKeyConfig = dockerlint.DEFAULT_KEY_CONFIG
    # iaclint
    iac_catalog: tuple[iaclint.MisconfigRule, ...] = iaclint.DEFAULT_CATALOG
    cors_substrings: tuple[str, ...] = iaclint.CORS_KEY_SUBSTRINGS
    # typosquat
    typosquat_max_distance: int = 1
    include_aws_sar: bool = False
    # reporting
    cdf_thresholds: tuple[int, ...] = DEFAULT_CDF_THRESHOLDS


# The keys load_config reads in each section; "enabled_vectors" is the one top-level setting.
_SECTION_KEYS: dict[str, frozenset[str]] = {
    "vulnscan": frozenset({"source_extensions", "fp_filter"}),
    "archive": frozenset(
        {"max_expansion_ratio", "max_total_bytes", "recursion_depth", "signature_db"}
    ),
    "dockerlint": frozenset(
        {"sensitive_key_patterns", "sensitive_keys_exact", "min_value_length", "entropy_threshold"}
    ),
    "iaclint": frozenset({"catalog", "cors_substrings"}),
    "typosquat": frozenset({"max_distance", "include_aws_sar"}),
    "report": frozenset({"cdf_thresholds"}),
}


def _unknown_keys(doc: dict) -> list[str]:
    """Dotted names of the keys load_config does not read."""
    unknown = []
    for key, value in doc.items():
        if key in _SECTION_KEYS:
            unknown.extend(f"{key}.{sub}" for sub in value if sub not in _SECTION_KEYS[key])
        elif key != "enabled_vectors":
            unknown.append(key)
    return unknown


def load_config(path: str | Path | None = None, notices: list[str] | None = None) -> AuditConfig:
    """Build an AuditConfig from a JSON file (or defaults when absent).

    Each key the file holds but no setting reads is named in ``notices``
    and otherwise ignored.
    """
    if path is None:
        env_path = os.environ.get(CONFIG_ENV_VAR)
        if not env_path:
            return AuditConfig()
        path = env_path
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: expected a JSON object")
    for section in _SECTION_KEYS:
        if not isinstance(doc.get(section, {}), dict):
            raise ConfigError(f"{path}: section {section!r} must be a JSON object")
    if notices is not None:
        notices.extend(f"{path}: unknown config key {key!r} ignored" for key in _unknown_keys(doc))
    config = AuditConfig()
    try:
        if "enabled_vectors" in doc:
            config = replace(
                config,
                enabled_vectors=frozenset(AttackVector(v) for v in doc["enabled_vectors"]),
            )
        vuln = doc.get("vulnscan", {})
        config = replace(
            config,
            source_extensions=list_setting(vuln, "source_extensions", config.source_extensions),
        )
        if "fp_filter" in vuln:
            config = replace(config, fp_filter=bool(vuln["fp_filter"]))
        arch = doc.get("archive", {})
        limits = config.extraction_limits
        config = replace(
            config,
            extraction_limits=ExtractionLimits(
                max_expansion_ratio=float(
                    arch.get("max_expansion_ratio", limits.max_expansion_ratio)
                ),
                max_total_bytes=int(arch.get("max_total_bytes", limits.max_total_bytes)),
            ),
            recursion_depth=int(arch.get("recursion_depth", config.recursion_depth)),
        )
        if "signature_db" in arch:
            config = replace(config, signatures=tuple(load_signatures(arch["signature_db"])))
        docker = doc.get("dockerlint", {})
        if docker:
            key_config = dockerlint.SensitiveKeyConfig(
                patterns=list_setting(
                    docker, "sensitive_key_patterns", config.sensitive_keys.patterns
                ),
                exact=list_setting(docker, "sensitive_keys_exact", config.sensitive_keys.exact),
                min_value_length=int(
                    docker.get("min_value_length", config.sensitive_keys.min_value_length)
                ),
                entropy_threshold=float(
                    docker.get("entropy_threshold", config.sensitive_keys.entropy_threshold)
                ),
            )
            config = replace(config, sensitive_keys=key_config)
        iac = doc.get("iaclint", {})
        if "catalog" in iac:
            config = replace(config, iac_catalog=tuple(iaclint.load_catalog(iac["catalog"])))
        config = replace(
            config, cors_substrings=list_setting(iac, "cors_substrings", config.cors_substrings)
        )
        squat = doc.get("typosquat", {})
        config = replace(
            config,
            typosquat_max_distance=int(squat.get("max_distance", config.typosquat_max_distance)),
            include_aws_sar=bool(squat.get("include_aws_sar", config.include_aws_sar)),
        )
        if config.typosquat_max_distance < 1:
            raise ValueError(
                f"typosquat.max_distance must be >= 1, got {config.typosquat_max_distance}"
            )
        thresholds = list_setting(doc.get("report", {}), "cdf_thresholds", config.cdf_thresholds)
        config = replace(config, cdf_thresholds=tuple(int(t) for t in thresholds))
    except (TypeError, ValueError, KeyError, OverflowError) as exc:
        raise ConfigError(f"{path}: bad config value: {exc}") from exc
    return config
