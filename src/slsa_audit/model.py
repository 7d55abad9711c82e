"""Shared domain types: attack vectors, severities, findings, and scan statistics.

Every analyzer produces :class:`Finding` objects tagged with one of the five
attack vectors; the report layer folds them into a :class:`ScanReport`.
"""
from __future__ import annotations

import json
import statistics
from bisect import bisect_right
from dataclasses import dataclass, field
from enum import Enum
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Iterable, Sequence


class AuditError(Exception):
    """Base class for all slsa-audit errors."""


class EmptyInputError(AuditError, ValueError):
    """An operation that needs at least one element got none."""


class ScoreRangeError(AuditError, ValueError):
    """A CVSS score fell outside [0.0, 10.0]."""


class ConfigError(AuditError, ValueError):
    """A config, rules, catalog or signature file is missing or malformed."""


def read_settings_file(path: str | Path) -> object:
    """The JSON document of a config, rules or catalog file.

    A file that cannot be read, is not UTF-8 or is not JSON raises ConfigError naming it.
    """
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read: {exc.strerror or exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad UTF-8, bad JSON, nesting too deep
        raise ConfigError(f"{path}: not UTF-8 JSON: {exc}") from exc


def dump_json(value: object, newline: str = "\n") -> str:
    """JSON text indented by two spaces with sorted keys, as json.dumps gives
    it with ``indent`` 2 and ``sort_keys``.

    ``newline`` begins every line after the first: a newline and the indent
    of the depth at which the text goes into a larger document.

    json.dumps encodes in pure Python whenever an indent is asked for. This
    walks the containers itself and hands each string to the C string
    encoder and every other scalar to json.dumps, dispatching as json's
    encoder does: dict; list or tuple; str. A dict key that is not a str
    raises TypeError.
    """
    parts: list[str] = []
    _dump_json(value, parts, newline)
    return "".join(parts)


def _dump_json(value: object, parts: list[str], newline: str) -> None:
    if isinstance(value, str):
        parts.append(encode_basestring_ascii(value))
    elif isinstance(value, dict):
        if not value:
            parts.append("{}")
            return
        inner = newline + "  "
        separator, comma = "{" + inner, "," + inner
        for key, item in sorted(value.items()):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be str, not {type(key).__name__}")
            parts.append(separator)
            parts.append(encode_basestring_ascii(key))
            parts.append(": ")
            _dump_json(item, parts, inner)
            separator = comma
        parts.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            parts.append("[]")
            return
        inner = newline + "  "
        separator, comma = "[" + inner, "," + inner
        for item in value:
            parts.append(separator)
            _dump_json(item, parts, inner)
            separator = comma
        parts.append(newline + "]")
    else:
        parts.append(json.dumps(value))


def list_setting(section: dict, key: str, default: tuple | None = None) -> tuple:
    """A list setting of a JSON settings file, required when it has no default.

    A string there is refused, since it would be read as its characters.
    """
    if key not in section:
        if default is None:
            raise KeyError(key)
        return default
    if not isinstance(section[key], list):
        raise TypeError(f"{key!r} must be a JSON list, not {section[key]!r}")
    return tuple(section[key])


class Repository(Enum):
    DOCKER_HUB = "dockerhub"
    GITHUB = "github"
    AWS_SAR = "awssar"
    SERVERLESS_FRAMEWORK = "serverlessframework"
    RED_HAT_QUAY = "redhatquay"
    LOCAL_CORPUS = "localcorpus"

    @classmethod
    def parse(cls, token: str) -> "Repository":
        try:
            return cls(token.strip().lower())
        except ValueError:
            valid = ", ".join(r.value for r in cls)
            raise ValueError(f"unknown repository {token!r} (expected one of: {valid})") from None


class AttackVector(Enum):
    V1 = "V1"  # vulnerable third-party libraries
    V2 = "V2"  # malicious payloads in compressed components
    V3 = "V3"  # sensitive parameters in docker run commands
    V4 = "V4"  # misconfigurations in IaC templates
    V5 = "V5"  # typo-squatting


class Severity(Enum):
    CRITICAL = "Critical"
    HIGH = "High"
    MEDIUM = "Medium"
    LOW = "Low"
    UNKNOWN = "Unknown"

    @property
    def rank(self) -> int:
        """Total order over the four real severities; Unknown has no rank."""
        if self is Severity.UNKNOWN:
            raise ValueError("Unknown severity is excluded from ordering")
        return _SEVERITY_RANK[self]

    def at_least(self, threshold: "Severity") -> bool:
        """True when self is as severe as threshold; Unknown never qualifies."""
        if self is Severity.UNKNOWN:
            return False
        return self.rank >= threshold.rank


_SEVERITY_RANK = {
    Severity.LOW: 1,
    Severity.MEDIUM: 2,
    Severity.HIGH: 3,
    Severity.CRITICAL: 4,
}


def severity_band(cvss_score: float | None) -> Severity:
    """Band a CVSS 3.1 base score into a severity level.

    None or 0.0 map to Unknown; NaN and scores outside [0.0, 10.0] raise
    :class:`ScoreRangeError`. Comparison happens on tenths so that scores
    produced by 0.1-step arithmetic band exactly.
    """
    if cvss_score is None:
        return Severity.UNKNOWN
    if not 0.0 <= cvss_score <= 10.0:  # also NaN
        raise ScoreRangeError(f"CVSS score {cvss_score} outside [0.0, 10.0]")
    tenths = round(cvss_score * 10)
    if tenths == 0:
        return Severity.UNKNOWN
    if tenths <= 39:
        return Severity.LOW
    if tenths <= 69:
        return Severity.MEDIUM
    if tenths <= 89:
        return Severity.HIGH
    return Severity.CRITICAL


@dataclass(frozen=True)
class ComponentRef:
    """Identity of a serverless component within a corpus."""

    repository: Repository
    publisher: str
    name: str
    version: str | None = None

    def __post_init__(self) -> None:
        if not self.publisher:
            raise ValueError("publisher must be non-empty")
        if not self.name:
            raise ValueError("name must be non-empty")

    @property
    def slug(self) -> str:
        return f"{self.publisher}__{self.name}"

    def sort_key(self) -> tuple[str, str, str, str]:
        return (self.repository.value, self.publisher, self.name, self.version or "")

    def to_dict(self) -> dict:
        d = {
            "repository": self.repository.value,
            "publisher": self.publisher,
            "name": self.name,
        }
        if self.version is not None:
            d["version"] = self.version
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ComponentRef":
        return cls(
            repository=Repository.parse(d["repository"]),
            publisher=d["publisher"],
            name=d["name"],
            version=d.get("version"),
        )


@dataclass(slots=True)
class Finding:
    """One detected issue, carrying its attack-vector tag and evidence.

    Evidence must never contain an unredacted credential value; redaction
    happens at detection time (see dockerlint). A finding is built once per
    report row, so it is a plain slotted record: cheap to build, compared
    by value, and neither hashed nor changed once built.
    """

    rule_id: str
    vector: AttackVector
    severity: Severity
    component: ComponentRef
    location: str
    evidence: str
    remediation: str = ""

    def sort_key(self) -> tuple:
        return (*self.component.sort_key(), self.rule_id, self.location)

    @classmethod
    def from_dict(cls, d: dict) -> "Finding":
        return cls(
            rule_id=d["rule_id"],
            vector=AttackVector(d["vector"]),
            severity=Severity(d["severity"]),
            component=ComponentRef.from_dict(d["component"]),
            location=d["location"],
            evidence=d["evidence"],
            remediation=d.get("remediation", ""),
        )


@dataclass(frozen=True)
class CountStats:
    """Summary statistics over per-component vulnerability counts."""

    mean: float
    median: float
    min: int
    max: int
    stddev: float

    def to_dict(self) -> dict:
        return {
            "mean": self.mean,
            "median": self.median,
            "min": self.min,
            "max": self.max,
            "stddev": self.stddev,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CountStats":
        return cls(
            mean=float(d["mean"]),
            median=float(d["median"]),
            min=int(d["min"]),
            max=int(d["max"]),
            stddev=float(d["stddev"]),
        )


def summarize_counts(counts: Sequence[int]) -> CountStats:
    """Mean/median/min/max/stddev over a non-empty list of counts.

    Stddev is the population standard deviation, so a singleton list yields 0.
    Even-length medians are the mean of the two middle values.
    """
    if not counts:
        raise EmptyInputError("summarize_counts requires at least one count")
    return CountStats(
        mean=statistics.fmean(counts),
        median=float(statistics.median(counts)),
        min=min(counts),
        max=max(counts),
        stddev=statistics.pstdev(counts),
    )


def cdf_of_counts(
    counts: Sequence[int], thresholds: Sequence[int]
) -> list[tuple[int, float]]:
    """Empirical CDF of counts evaluated at the given ascending thresholds.

    Each point is (threshold, fraction of counts <= threshold).
    """
    if not counts:
        raise EmptyInputError("cdf_of_counts requires at least one count")
    if any(b < a for a, b in zip(thresholds, thresholds[1:])):
        raise ValueError("thresholds must be sorted ascending")
    ordered = sorted(counts)
    n = len(ordered)
    return [(t, bisect_right(ordered, t) / n) for t in thresholds]


DEFAULT_CDF_THRESHOLDS = (0, 1, 10, 100, 1000, 10000)


@dataclass
class ScanReport:
    """Per-component findings plus corpus-level aggregations.

    Unknown-severity records keep their own histogram bucket rather than
    being dropped, so the exclusion from statistics stays auditable.

    ``per_component`` is in output order, as `report.aggregate` builds it and
    `report.parse_report` reads it back: every component of ``vuln_counts``,
    by ``ComponentRef.sort_key``, each with its findings by ``Finding.sort_key``.
    """

    corpus_id: str
    per_component: dict[ComponentRef, list[Finding]] = field(default_factory=dict)
    vuln_counts: dict[ComponentRef, int] = field(default_factory=dict)
    severity_histogram: dict[Severity, int] = field(default_factory=dict)
    stats: CountStats | None = None
    cdf_points: list[tuple[int, float]] = field(default_factory=list)

    def all_findings(self) -> list[Finding]:
        return [f for findings in self.per_component.values() for f in findings]

    def recompute(self, cdf_thresholds: Iterable[int] = DEFAULT_CDF_THRESHOLDS) -> None:
        """Derive histogram, stats, and CDF points from findings and counts."""
        hist: dict[Severity, int] = {}
        for findings in self.per_component.values():
            for finding in findings:
                hist[finding.severity] = hist.get(finding.severity, 0) + 1
        self.severity_histogram = hist
        if self.vuln_counts:
            counts = list(self.vuln_counts.values())
            self.stats = summarize_counts(counts)
            self.cdf_points = cdf_of_counts(counts, sorted(cdf_thresholds))
        else:
            self.stats = None
            self.cdf_points = []
