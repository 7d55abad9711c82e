"""Package-inventory extraction and offline advisory matching (V1).

A component's manifests and lockfiles are parsed into a
:class:`PackageInventory`, matched against an offline advisory database
(a documented subset of the OSV JSON schema), and optionally filtered by
the metadata-only false-positive heuristic.
"""
from __future__ import annotations

import functools
import json
import os
import re
from dataclasses import dataclass, field
from enum import Enum
from operator import attrgetter
from pathlib import Path
from typing import Callable, Iterable, Mapping

from slsa_audit.ingest import read_file, walk_files
from slsa_audit.model import AuditError, Severity, read_settings_file, severity_band


class ManifestError(AuditError, ValueError):
    """A supported manifest failed to parse; message names the line."""


class ExternalScanFormatError(AuditError, ValueError):
    """An external scanner report did not match the documented subset."""


class Ecosystem(Enum):
    NPM = "npm"
    PYPI = "pypi"
    GOMOD = "gomod"
    OS_PACKAGES = "os-packages"

    @classmethod
    def parse(cls, token: str) -> "Ecosystem":
        normalized = _ECOSYSTEM_ALIASES.get(token.strip().lower())
        if normalized is None:
            raise ValueError(f"unknown ecosystem {token!r}")
        return normalized


_ECOSYSTEM_ALIASES = {
    "npm": Ecosystem.NPM,
    "pypi": Ecosystem.PYPI,
    "go": Ecosystem.GOMOD,
    "gomod": Ecosystem.GOMOD,
    "os-packages": Ecosystem.OS_PACKAGES,
}


# ---------------------------------------------------------------------------
# Version comparison
# ---------------------------------------------------------------------------

_SEMVER_RE = re.compile(
    r"^v?([0-9]+)(?:\.([0-9]+))?(?:\.([0-9]+))?(?:-([0-9A-Za-z.-]+))?(?:\+[0-9A-Za-z.-]+)?$"
)


@dataclass(slots=True)
class Version:
    """A comparable package version.

    Semantic-version precedence where the string parses as (possibly
    truncated) semver; otherwise a deterministic positional fallback on
    dot-split segments, recorded via ``fallback``. Each segment compares
    as (0, int) or (1, str), so numeric segments precede alphanumeric
    ones at the same position ("1.0.1" < "1.0.1f" < "1.0.1g").
    """

    raw: str
    segments: tuple[tuple[int, int | str], ...]
    prerelease: tuple[tuple[int, int | str], ...] | None
    fallback: bool
    key: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        # The comparison key, built once. A release sorts after any
        # prerelease of the same segments.
        pre = ((1,),) if self.prerelease is None else ((0,), *self.prerelease)
        self.key = (self.segments, pre)

    def __lt__(self, other: "Version") -> bool:
        return self.key < other.key

    def __le__(self, other: "Version") -> bool:
        return self.key <= other.key


def _identifier_key(ident: str) -> tuple[int, int | str]:
    # Only ASCII digits are a number: int() rejects "²" and reads "٣" as 3.
    if ident.isascii() and ident.isdigit():
        return (0, int(ident))
    return (1, ident)


def parse_version(text: str) -> Version:
    """Parse a version string into a comparable key.

    Raises ValueError for empty strings; never fails otherwise (the
    fallback path handles arbitrary tokens and sets ``fallback``).
    """
    raw = text.strip()
    if not raw:
        raise ValueError("empty version string")
    m = _SEMVER_RE.match(raw)
    if m:
        major, minor, patch, pre = m.groups()
        segments = ((0, int(major)), (0, int(minor or 0)), (0, int(patch or 0)))
        prerelease = None
        if pre is not None:
            prerelease = tuple(_identifier_key(ident) for ident in pre.split("."))
        return Version(raw=raw, segments=segments, prerelease=prerelease, fallback=False)
    segments = tuple(_identifier_key(seg) for seg in raw.split("."))
    return Version(raw=raw, segments=segments, prerelease=None, fallback=True)


@dataclass(slots=True)
class VersionInterval:
    """One affected range with inclusive/exclusive bounds (None = unbounded)."""

    low: str | None = None
    low_inclusive: bool = True
    high: str | None = None
    high_inclusive: bool = False
    # The comparison keys (Version.key) of the bounds.
    _low: tuple | None = field(init=False, compare=False, repr=False)
    _high: tuple | None = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        # Bounds are parsed once here, so a malformed one fails at load time.
        low, high = _bound_key(self.low), _bound_key(self.high)
        if low is not None and high is not None and high < low:
            raise ValueError(f"interval has high {self.high!r} below low {self.low!r}")
        self._low, self._high = low, high

    def contains(self, version: Version) -> bool:
        key, low, high = version.key, self._low, self._high
        if low is not None:
            if key < low or (not self.low_inclusive and not low < key):
                return False
        if high is not None:
            if high < key or (not self.high_inclusive and not key < high):
                return False
        return True


# Advisory databases repeat a few version strings across many ranges, so
# intervals share one comparison key per string instead of each holding a copy.
_parse_bound_text = functools.lru_cache(maxsize=4096)(parse_version)


def _bound_key(bound: object) -> tuple | None:
    if bound is None:
        return None
    if not isinstance(bound, str):
        raise ValueError(f"version bound {bound!r} is not a string")
    return _parse_bound_text(bound).key


# ---------------------------------------------------------------------------
# Advisory database (offline OSV subset)
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class Advisory:
    """One vulnerability record for one package.

    Loaded from the offline advisory DB: a directory of JSON files, each a
    subset of the OSV schema (id, affected package + SEMVER range events,
    numeric CVSS 3.1 score under ``severity``).
    """

    id: str
    ecosystem: Ecosystem
    package_name: str
    affected: tuple[VersionInterval, ...]
    cvss_score: float | None = None
    summary: str = ""

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("advisory id must be non-empty")


def _intervals_from_events(events: list[dict]) -> list[VersionInterval]:
    intervals: list[VersionInterval] = []
    low: str | None = None
    opened = False
    for event in events:
        if "introduced" in event:
            if opened:
                intervals.append(VersionInterval(low=low))
                opened = False
            raw = event["introduced"]
            low = None if raw == "0" else raw
            opened = True
        elif "fixed" in event:
            intervals.append(VersionInterval(low=low, high=event["fixed"], high_inclusive=False))
            low, opened = None, False
        elif "last_affected" in event:
            intervals.append(VersionInterval(low=low, high=event["last_affected"], high_inclusive=True))
            low, opened = None, False
    if opened:
        intervals.append(VersionInterval(low=low))
    return intervals


# CVSS v3.0 and v3.1 base metrics and their weights (CVSS v3.1
# specification, section 7.4). Scope picks the equations and has no weight;
# Privileges Required weighs more when Scope is Changed.
_CVSS3_BASE = {
    "AV": {"N": 0.85, "A": 0.62, "L": 0.55, "P": 0.2},
    "AC": {"L": 0.77, "H": 0.44},
    "PR": {"N": 0.85, "L": 0.62, "H": 0.27},
    "UI": {"N": 0.85, "R": 0.62},
    "S": {"U": 0.0, "C": 0.0},
    "C": {"H": 0.56, "L": 0.22, "N": 0.0},
    "I": {"H": 0.56, "L": 0.22, "N": 0.0},
    "A": {"H": 0.56, "L": 0.22, "N": 0.0},
}
_CVSS3_PR_CHANGED = {"N": 0.85, "L": 0.68, "H": 0.5}
# Temporal and environmental metrics, which a vector may carry and the base
# score does not read.
_CVSS3_OTHER = frozenset("E RL RC CR IR AR MAV MAC MPR MUI MS MC MI MA".split())


def cvss3_base_score(vector: str) -> float:
    """The base score of a CVSS v3.0 or v3.1 vector string, such as
    ``CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H`` (9.8), by the base
    equations of the CVSS v3.1 specification (section 7.1) and its
    ``Roundup`` (Appendix A), for both versions. Raises ValueError for any
    other string, a v2 or v4 vector among them."""
    if not isinstance(vector, str) or not vector.startswith(("CVSS:3.0/", "CVSS:3.1/")):
        raise ValueError("not a number or a CVSS v3.0/v3.1 vector")
    values: dict[str, str] = {}
    for metric in vector[9:].split("/"):
        name, _, value = metric.partition(":")
        known = value in _CVSS3_BASE[name] if name in _CVSS3_BASE else name in _CVSS3_OTHER
        if not known or not value or name in values:
            raise ValueError(f"malformed CVSS v3 metric {metric!r}")
        values[name] = value
    missing = [name for name in _CVSS3_BASE if name not in values]
    if missing:
        raise ValueError(f"CVSS v3 vector without {'/'.join(missing)}")
    av, ac, pr, ui, _, c, i, a = (_CVSS3_BASE[name][values[name]] for name in _CVSS3_BASE)
    changed = values["S"] == "C"
    iss = 1 - (1 - c) * (1 - i) * (1 - a)
    if changed:
        pr = _CVSS3_PR_CHANGED[values["PR"]]
        impact = 7.52 * (iss - 0.029) - 3.25 * (iss - 0.02) ** 15
    else:
        impact = 6.42 * iss
    if impact <= 0:
        return 0.0
    exploitability = 8.22 * av * ac * pr * ui
    return _cvss_roundup(min((1.08 if changed else 1.0) * (impact + exploitability), 10.0))


def _cvss_roundup(value: float) -> float:
    """The smallest number with one decimal place that is at least
    ``value``, computed on an integer so that float error in ``value`` does
    not round it up a tenth (CVSS v3.1, Appendix A)."""
    scaled = round(value * 100_000)
    if scaled % 10_000 == 0:
        return scaled / 100_000
    return (scaled // 10_000 + 1) / 10


def advisory_from_osv(doc: dict, notices: list[str] | None = None) -> list[Advisory]:
    """Flatten one OSV-subset document into per-package Advisory records.

    The score is the first ``severity[].score`` that is a number or a CVSS
    v3.0/v3.1 vector (`cvss3_base_score`). When scores are given but none
    of them scores, the advisory loads as Unknown with the notice
    ``advisory <id>: severity <score> not scored (<reason>); loaded as
    Unknown``, naming the first.
    """
    advisory_id = doc.get("id", "")
    score: float | None = None
    unscored = ""
    for sev in doc.get("severity", []):
        raw = sev.get("score")
        if raw is None:
            continue
        try:
            score = float(raw)
        except (TypeError, ValueError):
            try:
                score = cvss3_base_score(raw)
            except ValueError as exc:
                unscored = unscored or f"{raw!r} not scored ({exc})"
                continue
        if not 0.0 <= score <= 10.0:  # also NaN
            raise ValueError(f"CVSS score {raw!r} is not a number in [0.0, 10.0]")
        break
    if score is None and unscored and notices is not None:
        notices.append(f"advisory {advisory_id}: severity {unscored}; loaded as Unknown")
    out: list[Advisory] = []
    for affected in doc.get("affected", []):
        package = affected.get("package", {})
        intervals: list[VersionInterval] = []
        for rng in affected.get("ranges", []):
            if rng.get("type") != "SEMVER":
                continue
            intervals.extend(_intervals_from_events(rng.get("events", [])))
        if not intervals:
            continue
        ecosystem = Ecosystem.parse(package.get("ecosystem", ""))
        name = package.get("name", "")
        out.append(
            Advisory(
                id=advisory_id,
                ecosystem=ecosystem,
                # PyPI names are case-insensitive; inventories store them lowercased.
                package_name=name.lower() if ecosystem is Ecosystem.PYPI else name,
                affected=tuple(intervals),
                cvss_score=score,
                summary=doc.get("summary", ""),
            )
        )
    return out


def load_advisory_db(db_dir: str | Path, notices: list[str] | None = None) -> list[Advisory]:
    """Load every regular ``*.json`` file under db_dir as advisories, in
    `ingest.walk_files` order (its notices join the skipped files')."""
    root = Path(db_dir)
    if not root.is_dir():
        raise FileNotFoundError(f"advisory database directory not found: {root}")
    advisories: list[Advisory] = []
    for path in walk_files(root, notices, os.path.join(root, "")):
        if not path.endswith(".json"):
            continue
        try:
            # Decoded before json.loads, which would otherwise accept UTF-16 and UTF-32.
            doc = json.loads(read_file(path).decode("utf-8"))
            advisories.extend(advisory_from_osv(doc, notices))
        # Not UTF-8 JSON, nested too deep to decode, or not OSV-shaped.
        except (ValueError, RecursionError, KeyError, TypeError, AttributeError) as exc:
            if notices is not None:
                notices.append(f"skipped advisory {path.rpartition('/')[2]}: {exc}")
    return advisories


# ---------------------------------------------------------------------------
# Package inventory
# ---------------------------------------------------------------------------


@dataclass
class PackageRecord:
    """One (name, ecosystem) entry with every declared version merged in."""

    name: str
    ecosystem: Ecosystem
    versions: set[str] = field(default_factory=set)
    declared_in: set[str] = field(default_factory=set)
    referenced_in_source: set[str] = field(default_factory=set)


@dataclass
class PackageInventory:
    """Packages extracted from a component's manifests and lockfiles."""

    packages: dict[tuple[str, Ecosystem], PackageRecord] = field(default_factory=dict)

    def add(self, name: str, version: str, ecosystem: Ecosystem, declared_in: str) -> None:
        key = (name, ecosystem)
        record = self.packages.get(key)
        if record is None:
            record = PackageRecord(name=name, ecosystem=ecosystem)
            self.packages[key] = record
        if version:
            record.versions.add(version)
        record.declared_in.add(declared_in)

    def merge(self, other: "PackageInventory") -> None:
        for record in other.packages.values():
            key = (record.name, record.ecosystem)
            mine = self.packages.get(key)
            if mine is None:
                self.packages[key] = record
            else:
                mine.versions |= record.versions
                mine.declared_in |= record.declared_in
                mine.referenced_in_source |= record.referenced_in_source

    def records(self) -> list[PackageRecord]:
        return [self.packages[k] for k in sorted(self.packages, key=lambda k: (k[0], k[1].value))]


MANIFEST_KINDS = ("package.json", "package-lock.json", "requirements.txt", "go.mod", "os-packages.txt")

# ASCII digits only: int() also reads other Unicode digits. A part that does not
# parse must not end the match early, so the rest cannot begin with "." or a word
# character ("^4.١٧.11" is unresolvable, not "4.0.0").
_NPM_RANGE_RE = re.compile(
    r"^[\^~>]=?\s*v?([0-9]+)(?:\.([0-9]+|[xX*]))?(?:\.([0-9]+|[xX*]))?(?![.\w])(.*)$"
)


def _min_satisfying_npm(spec: str) -> str | None:
    """Resolve an npm range expression to its minimum satisfying version."""
    spec = spec.strip()
    if not spec or spec in ("*", "latest"):
        return "0.0.0"
    if re.fullmatch(r"v?[0-9]+\.[0-9]+\.[0-9]+([-+][0-9A-Za-z.-]+)?", spec):
        return spec.lstrip("v")
    wildcard = re.fullmatch(r"v?([0-9]+)(?:\.([0-9]+|[xX*]))?(?:\.([0-9]+|[xX*]))?", spec)
    if wildcard:
        major, minor, patch = wildcard.groups()
        minor = "0" if minor in (None, "x", "X", "*") else minor
        patch = "0" if patch in (None, "x", "X", "*") else patch
        return f"{major}.{minor}.{patch}"
    m = _NPM_RANGE_RE.match(spec)
    if m:
        major, minor, patch, rest = m.groups()
        minor = "0" if minor in (None, "x", "X", "*") else minor
        patch = "0" if patch in (None, "x", "X", "*") else patch
        base = [int(major), int(minor), int(patch)]
        if spec.startswith(">") and not spec.startswith(">="):
            base[2] += 1
        pre = ""
        if rest.startswith("-"):
            pre = rest.split(" ", 1)[0].split(",", 1)[0]
        return f"{base[0]}.{base[1]}.{base[2]}{pre}"
    return None


def parse_manifest(
    path: str,
    contents: str,
    notices: list[str],
) -> PackageInventory:
    """Parse one manifest file into a partial inventory.

    Unsupported kinds are skipped with a notice; syntax errors raise
    :class:`ManifestError` naming the offending line.
    """
    inventory = PackageInventory()
    filename = path.rpartition("/")[2].lower()
    if filename == "package.json":
        _parse_package_json(path, contents, inventory, notices)
    elif filename == "package-lock.json":
        _parse_package_lock(path, contents, inventory)
    elif filename == "requirements.txt":
        _parse_requirements(path, contents, inventory, notices)
    elif filename == "go.mod":
        _parse_go_mod(path, contents, inventory)
    elif filename == "os-packages.txt":
        _parse_os_packages(path, contents, inventory)
    else:
        notices.append(f"{path}: skipped unsupported manifest kind")
    return inventory


def _npm_document(path: str, contents: str) -> dict:
    """The JSON object an npm manifest holds; an empty file reads as {}."""
    try:
        doc = json.loads(contents) if contents.strip() else {}
    except (ValueError, RecursionError) as exc:  # also an over-long integer, nesting too deep
        raise ManifestError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ManifestError(f"{path}: the document is not a JSON object")
    return doc


def _json_object(path: str, value, what: str, key: str) -> dict:
    if not isinstance(value, dict):
        raise ManifestError(f"{path}: {what} {key!r} is not a JSON object")
    return value


def _npm_version(path: str, meta, what: str, key: str) -> str | None:
    """The version of one lockfile entry, which must be a JSON object."""
    version = _json_object(path, meta, what, key).get("version")
    if version is not None and not isinstance(version, str):
        raise ManifestError(f"{path}: version of {what} {key!r} is not a string")
    return version


def _parse_package_json(path: str, contents: str, inv: PackageInventory, notices) -> None:
    doc = _npm_document(path, contents)
    for section in ("dependencies", "devDependencies", "optionalDependencies"):
        for name, spec in _json_object(path, doc.get(section) or {}, "section", section).items():
            if not name:
                raise ManifestError(f"{path}: empty package name in section {section!r}")
            version = _min_satisfying_npm(str(spec))
            if version is None:
                notices.append(f"{path}: cannot resolve npm range {spec!r} for {name}")
                continue
            inv.add(name, version, Ecosystem.NPM, path)


def _parse_package_lock(path: str, contents: str, inv: PackageInventory) -> None:
    doc = _npm_document(path, contents)
    # Lockfile v2/v3 layout.
    for pkg_path, meta in _json_object(path, doc.get("packages") or {}, "section", "packages").items():
        if not pkg_path:
            continue
        name = pkg_path.rsplit("node_modules/", 1)[-1]
        if not name:
            raise ManifestError(f"{path}: empty package name in packages entry {pkg_path!r}")
        version = _npm_version(path, meta, "packages entry", pkg_path)
        if version:
            inv.add(name, version, Ecosystem.NPM, path)
    # Lockfile v1 layout (possibly alongside v2 keys).
    def walk(deps: dict) -> None:
        for name, meta in deps.items():
            if not name:
                raise ManifestError(f"{path}: empty package name in dependencies")
            version = _npm_version(path, meta, "dependencies entry", name)
            if version:
                inv.add(name, version, Ecosystem.NPM, path)
            walk(_json_object(path, meta.get("dependencies") or {}, "dependencies of", name))

    walk(_json_object(path, doc.get("dependencies") or {}, "section", "dependencies"))


_REQUIREMENT_RE = re.compile(
    r"^\s*([A-Za-z0-9._-]+)\s*(?:\[[^\]]*\])?\s*(==|>=|~=|<=|>|<|!=)?\s*([^\s;#,]+)?"
)


def _parse_requirements(path: str, contents: str, inv: PackageInventory, notices) -> None:
    for lineno, raw in enumerate(contents.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line or line.startswith(("-", "--")):
            continue
        if "://" in line or line.startswith(("git+", "hg+", "svn+")):
            notices.append(f"{path}:{lineno}: skipped URL requirement")
            continue
        m = _REQUIREMENT_RE.match(line)
        if not m or not m.group(1):
            raise ManifestError(f"{path}: cannot parse requirement at line {lineno}")
        name, op, version = m.groups()
        if op in ("==", ">=", "~=") and version:
            resolved = version
        elif op in (">",) and version:
            resolved = version  # minimum open bound; exact successor is undefined for PEP 440
            notices.append(f"{path}:{lineno}: open bound {op}{version}; using {version}")
        else:
            resolved = "0.0.0"
            notices.append(f"{path}:{lineno}: unpinned requirement {name}; using 0.0.0")
        inv.add(name.lower(), resolved, Ecosystem.PYPI, path)


_GO_REQUIRE_RE = re.compile(r"^\s*([^\s]+)\s+v([0-9][^\s/]*)(?:\s*//.*)?$")


def _parse_go_mod(path: str, contents: str, inv: PackageInventory) -> None:
    in_require = False
    for lineno, raw in enumerate(contents.splitlines(), 1):
        line = raw.strip()
        if line.startswith("require ("):
            in_require = True
            continue
        if in_require and line.startswith(")"):
            in_require = False
            continue
        candidate = None
        if in_require and line and not line.startswith("//"):
            candidate = line
        elif line.startswith("require "):
            candidate = line[len("require "):]
        if candidate is None:
            continue
        m = _GO_REQUIRE_RE.match(candidate)
        if not m:
            raise ManifestError(f"{path}: cannot parse require directive at line {lineno}")
        inv.add(m.group(1), m.group(2), Ecosystem.GOMOD, path)


def _parse_os_packages(path: str, contents: str, inv: PackageInventory) -> None:
    for lineno, raw in enumerate(contents.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ManifestError(f"{path}: expected name=version at line {lineno}")
        name, _, version = line.partition("=")
        name = name.strip()
        if not name:
            raise ManifestError(f"{path}: empty package name at line {lineno}")
        inv.add(name, version.strip(), Ecosystem.OS_PACKAGES, path)


def _suffix(rel: str) -> str:
    """``Path(rel).suffix``: "" for dotfiles and names ending in a dot."""
    name = rel.rpartition("/")[2]
    dot = name.rfind(".")
    return name[dot:] if 0 < dot < len(name) - 1 else ""


def extract_inventory(
    files: Iterable[str], read: Callable[[str], str | None], notices: list[str]
) -> PackageInventory:
    """Merge every supported manifest among a tree's files (see ingest.walk_files).

    ``read(rel)`` gives a file's text, or None for a file it could not read.
    Paths are as ``files`` lists them: each package's ``declared_in`` and
    the start of each notice name the file that way.
    """
    inventory = PackageInventory()
    for rel in files:
        if rel.rpartition("/")[2].lower() in MANIFEST_KINDS:
            contents = read(rel)
            if contents is None:
                continue
            try:
                inventory.merge(parse_manifest(rel, contents, notices))
            except ManifestError as exc:
                notices.append(str(exc))
    return inventory


# ---------------------------------------------------------------------------
# Source-reference marking (metadata-only false-positive heuristic)
# ---------------------------------------------------------------------------

SOURCE_EXTENSIONS = (".py", ".js", ".ts", ".java", ".go", ".rb", ".sh", ".c", ".cpp")


def _import_pattern(record: PackageRecord) -> re.Pattern[str]:
    name = re.escape(record.name)
    alternatives = [
        rf"\bimport\s+['\"]?{name}\b",
        rf"\bfrom\s+['\"]?{name}\b",
        rf"\brequire\s*\(\s*['\"]{name}(?:/[^'\"]*)?['\"]",
    ]
    if record.ecosystem is Ecosystem.GOMOD:
        alternatives.append(rf"['\"]{name}(?:/[^'\"]*)?['\"]")
    return re.compile("|".join(alternatives))


def mark_source_references(
    inventory: PackageInventory,
    files: Iterable[str],
    read: Callable[[str], str | None],
    source_extensions: Iterable[str] = SOURCE_EXTENSIONS,
) -> PackageInventory:
    """Populate referenced_in_source with the tree's files (see ingest.walk_files)
    importing each package, named as ``files`` lists them.

    Only files whose extension is in the source set count; metadata files
    never do. ``read(rel)`` gives a file's text, or None for a file it
    could not read. Matching requires the package name as a whole token in
    an import-like context, which is stricter than bare substring search.
    """
    source_exts = tuple(source_extensions)
    if not inventory.packages:
        return inventory
    # Compiled on first use: most packages are never named in any file.
    patterns: dict[tuple[str, Ecosystem], re.Pattern[str]] = {}
    for rel in files:
        if _suffix(rel).lower() not in source_exts:
            continue
        text = read(rel)
        if text is None:
            continue
        for key, record in inventory.packages.items():
            # Every import pattern contains the name literally and is
            # case-sensitive, so a file without the name cannot match.
            if record.name not in text:
                continue
            pattern = patterns.get(key)
            if pattern is None:
                pattern = patterns[key] = _import_pattern(record)
            if pattern.search(text):
                record.referenced_in_source.add(rel)
    return inventory


# ---------------------------------------------------------------------------
# Matching
# ---------------------------------------------------------------------------


class FpClass(Enum):
    SOURCE_REFERENCED = "SourceReferenced"
    METADATA_ONLY = "MetadataOnly"


@dataclass(slots=True)
class VulnMatch:
    """One advisory matched to one declared package version."""

    advisory_id: str
    package_name: str
    package_version: str
    ecosystem: Ecosystem
    severity: Severity
    fp_class: FpClass
    declared_in: tuple[str, ...] = ()
    summary: str = ""


# Keyed by package name alone: a str hashes in C, an Ecosystem member in
# Python. A name's advisories of other ecosystems are dropped per record.
AdvisoryIndex = dict[str, list[Advisory]]


def index_advisories(advisories: Iterable[Advisory]) -> AdvisoryIndex:
    """Group advisories by package name, keeping their order."""
    index: AdvisoryIndex = {}
    for advisory in advisories:
        index.setdefault(advisory.package_name, []).append(advisory)
    return index


def match_advisories(
    inventory: PackageInventory,
    index: AdvisoryIndex,
    notices: list[str],
) -> list[VulnMatch]:
    """Match every declared package version against the indexed advisories.

    ``index`` comes from :func:`index_advisories`. Matches deduplicate on
    (advisory, package, version); packages whose version string is empty
    are excluded with a notice, and a version compared by segment fallback
    is named in one. Matches are ordered by (package, advisory, version).
    """
    matches: list[VulnMatch] = []
    for record in inventory.records():
        ecosystem = record.ecosystem
        candidates = [a for a in index.get(record.name, ()) if a.ecosystem is ecosystem]
        if not candidates:
            continue
        fp_class = (
            FpClass.SOURCE_REFERENCED if record.referenced_in_source else FpClass.METADATA_ONLY
        )
        declared_in = tuple(sorted(record.declared_in))
        for version_str in sorted(record.versions):
            try:
                version = parse_version(version_str)
            except ValueError:
                notices.append(f"excluded {record.name}: unparseable version {version_str!r}")
                continue
            if version.fallback:
                notices.append(f"version {version.raw!r} is not semver; using segment fallback")
            # Records are unique by (name, ecosystem) and each version is
            # visited once, so the advisory id alone dedups here.
            matched: set[str] = set()
            for advisory in candidates:
                if advisory.id in matched:
                    continue
                for interval in advisory.affected:
                    if interval.contains(version):
                        break
                else:
                    continue
                matched.add(advisory.id)
                matches.append(VulnMatch(
                    advisory.id, record.name, version_str, ecosystem,
                    severity_band(advisory.cvss_score), fp_class, declared_in, advisory.summary,
                ))
    matches.sort(key=attrgetter("package_name", "advisory_id", "package_version"))
    return matches


@dataclass
class FpFilterResult:
    kept: list[VulnMatch]
    suspected_fp: list[VulnMatch]
    fp_rate: float


def filter_false_positives(matches: Iterable[VulnMatch]) -> FpFilterResult:
    """Partition matches into source-referenced and suspected false positives.

    A match is a suspected false positive when its package appears only in
    metadata files. fp_rate is 0 for an empty match list.
    """
    kept: list[VulnMatch] = []
    suspected: list[VulnMatch] = []
    for match in matches:
        (suspected if match.fp_class is FpClass.METADATA_ONLY else kept).append(match)
    total = len(kept) + len(suspected)
    rate = len(suspected) / total if total else 0.0
    return FpFilterResult(kept=kept, suspected_fp=suspected, fp_rate=rate)


def jaccard_similarity(set_a: set[str], set_b: set[str]) -> float:
    """|A∩B| / |A∪B|, with two empty sets defined as fully similar (1.0)."""
    if not set_a and not set_b:
        return 1.0
    return len(set_a & set_b) / len(set_a | set_b)


# ---------------------------------------------------------------------------
# External scanner import
# ---------------------------------------------------------------------------


def import_external_scan(path: str | Path, format: str) -> dict[str, set[str]]:
    """Normalize a third-party scanner report to advisory-id sets per component.

    Supported format subsets:
      trivy-json: {"ArtifactName": str?, "Results": [{"Target": str?,
                   "Vulnerabilities": [{"VulnerabilityID": str}]}]}
      grype-json: {"source": {"target": str|{"userInput": str}},
                   "matches": [{"vulnerability": {"id": str}}]}

    A report that cannot be read, is not UTF-8 JSON or strays from its
    subset raises an AuditError naming the file.
    """
    importer = {"trivy-json": _import_trivy, "grype-json": _import_grype}.get(format)
    if importer is None:
        raise ValueError(f"unknown scan format {format!r}; expected trivy-json or grype-json")
    doc = read_settings_file(path)
    try:
        return importer(doc)
    except ExternalScanFormatError as exc:
        raise ExternalScanFormatError(f"{path}: {exc}") from exc


_SHAPES = {dict: "an object", list: "a list", str: "a string"}


def _shaped(value, kind: type, what: str):
    """value, if it is a ``kind``; else ExternalScanFormatError naming ``what``."""
    if not isinstance(value, kind):
        raise ExternalScanFormatError(f"{what} must be {_SHAPES[kind]}")
    return value


def _import_trivy(doc: object) -> dict[str, set[str]]:
    if not isinstance(doc, dict) or "Results" not in doc:
        raise ExternalScanFormatError("trivy-json: missing field 'Results'")
    default_component = _shaped(doc.get("ArtifactName") or "", str, "trivy-json: 'ArtifactName'")
    out: dict[str, set[str]] = {}
    if default_component:
        out.setdefault(default_component, set())
    for result in _shaped(doc["Results"], list, "trivy-json: 'Results'"):
        result = _shaped(result, dict, "trivy-json: each 'Results' entry")
        component = _shaped(result.get("Target") or default_component, str, "trivy-json: 'Target'")
        if not component:
            raise ExternalScanFormatError("trivy-json: result missing field 'Target'")
        ids = out.setdefault(component, set())
        vulns = _shaped(result.get("Vulnerabilities") or [], list, "trivy-json: 'Vulnerabilities'")
        for vuln in vulns:
            vuln_id = _shaped(vuln, dict, "trivy-json: each vulnerability").get("VulnerabilityID")
            if not vuln_id:
                raise ExternalScanFormatError("trivy-json: missing field 'VulnerabilityID'")
            ids.add(_shaped(vuln_id, str, "trivy-json: 'VulnerabilityID'"))
    return out


def _import_grype(doc: object) -> dict[str, set[str]]:
    if not isinstance(doc, dict) or "matches" not in doc:
        raise ExternalScanFormatError("grype-json: missing field 'matches'")
    target = _shaped(doc.get("source") or {}, dict, "grype-json: 'source'").get("target", "unknown")
    if isinstance(target, Mapping):
        target = target.get("userInput") or target.get("name") or "unknown"
    ids: set[str] = set()
    for match in _shaped(doc["matches"], list, "grype-json: 'matches'"):
        match = _shaped(match, dict, "grype-json: each match")
        vulnerability = match.get("vulnerability") or {}
        vuln_id = _shaped(vulnerability, dict, "grype-json: 'vulnerability'").get("id")
        if not vuln_id:
            raise ExternalScanFormatError("grype-json: missing field 'vulnerability.id'")
        ids.add(_shaped(vuln_id, str, "grype-json: 'vulnerability.id'"))
    return {_shaped(target, str, "grype-json: 'source.target'"): ids}
