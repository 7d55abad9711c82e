"""Runtime configuration: every analyzer knob in one JSON-loadable object.

Resolution order for the CLI: --config flag, then the SLSA_AUDIT_CONFIG
environment variable, then built-in defaults. A subcommand flag then
overrides its setting by replacing it in the loaded AuditConfig, so a flag
and a config key are checked by the same code.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path

from slsa_audit import dockerlint, iaclint, vulnscan
from slsa_audit.archive import BUILTIN_SIGNATURES, ExtractionLimits, Signature, load_signatures
from slsa_audit.model import (
    DEFAULT_CDF_THRESHOLDS,
    AttackVector,
    ConfigError,
    list_setting,
    read_settings_file,
)


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

    def __post_init__(self) -> None:
        # The near-name search refuses it too; this names the setting before any scan.
        if not self.typosquat_max_distance >= 1:
            raise ConfigError(
                f"typosquat.max_distance must be >= 1, got {self.typosquat_max_distance}"
            )


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


def _load_named_file(config_path: str | Path, key: str, load, name: object):
    """``load(name)`` for a setting that names another settings file. Its
    errors also name the config file and the setting."""
    try:
        return load(name)
    except (ConfigError, TypeError) as exc:  # TypeError: the value is not a path
        raise ConfigError(f"{config_path}: {key}: {exc}") from exc


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
    doc = read_settings_file(path)
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: expected a JSON object")
    for section in _SECTION_KEYS:
        if not isinstance(doc.get(section, {}), dict):
            raise ConfigError(f"{path}: section {section!r} must be a JSON object")
    if notices is not None:
        notices.extend(f"{path}: unknown config key {key!r} ignored" for key in _unknown_keys(doc))
    default = AuditConfig()
    limits = default.extraction_limits
    vuln, arch, docker, iac, squat, report = (
        doc.get(s, {}) for s in ("vulnscan", "archive", "dockerlint", "iaclint", "typosquat", "report")
    )
    signatures, iac_catalog = default.signatures, default.iac_catalog
    if "signature_db" in arch:
        signatures = tuple(
            _load_named_file(path, "archive.signature_db", load_signatures, arch["signature_db"])
        )
    if "catalog" in iac:
        iac_catalog = _load_named_file(path, "iaclint.catalog", iaclint.load_catalog, iac["catalog"])
    try:
        return AuditConfig(
            enabled_vectors=frozenset(
                AttackVector(v) for v in doc.get("enabled_vectors", default.enabled_vectors)
            ),
            source_extensions=list_setting(vuln, "source_extensions", default.source_extensions),
            fp_filter=bool(vuln.get("fp_filter", default.fp_filter)),
            extraction_limits=ExtractionLimits(
                max_expansion_ratio=float(arch.get("max_expansion_ratio", limits.max_expansion_ratio)),
                max_total_bytes=int(arch.get("max_total_bytes", limits.max_total_bytes)),
            ),
            recursion_depth=int(arch.get("recursion_depth", default.recursion_depth)),
            signatures=signatures,
            sensitive_keys=dockerlint.parse_key_config(docker),
            iac_catalog=iac_catalog,
            cors_substrings=list_setting(iac, "cors_substrings", default.cors_substrings),
            typosquat_max_distance=int(squat.get("max_distance", default.typosquat_max_distance)),
            include_aws_sar=bool(squat.get("include_aws_sar", default.include_aws_sar)),
            cdf_thresholds=tuple(
                int(t) for t in list_setting(report, "cdf_thresholds", default.cdf_thresholds)
            ),
        )
    except (TypeError, ValueError, KeyError, OverflowError) as exc:
        raise ConfigError(f"{path}: bad config value: {exc}") from exc
