"""Aggregation of analyzer findings into reports, plus output formats.

Report JSON is byte-stable for identical inputs: keys are sorted, findings
are ordered by (component, rule_id, location), and no timestamps appear in
the body. Run metadata (timestamps, tool versions) lives in the separate
AuditRun record.
"""
from __future__ import annotations

import functools
import hashlib
import io
import json
import os
import pickle
import platform
import signal
import time
from collections import Counter
from dataclasses import dataclass, field
from datetime import datetime, timezone
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from pathlib import Path
from types import SimpleNamespace
from typing import Iterable, Mapping

from slsa_audit import __version__, archive, dockerlint, iaclint, typosquat, vulnscan
from slsa_audit.config import AuditConfig
from slsa_audit.ingest import (
    CorpusEntry,
    CorpusLoadResult,
    decode_noted,
    decode_text,
    is_serverless,
    load_corpus,
    read_component_file,
    walk_files,
)
from slsa_audit.model import (
    DEFAULT_CDF_THRESHOLDS,
    AttackVector,
    ComponentRef,
    CountStats,
    Finding,
    ScanReport,
    Severity,
    dump_json,
)


def aggregate(
    findings: Iterable[Finding],
    corpus_id: str = "",
    vuln_counts: Mapping[ComponentRef, int] | None = None,
    cdf_thresholds: Iterable[int] = DEFAULT_CDF_THRESHOLDS,
    components: Iterable[ComponentRef] = (),
) -> ScanReport:
    """Merge findings into one deduplicated, deterministic report.

    Findings deduplicate on (rule_id, component, location). Every
    component in ``components`` or ``vuln_counts`` is listed, with or
    without findings, in output order (see ScanReport); vuln stats and the
    CDF are derived from ``vuln_counts`` alone.
    """
    # Findings are grouped by component, looked up by equality once per
    # component object, so equal components share a group and dedup within
    # a group needs only (rule_id, location). Sorting the components, then
    # each group by rule and location, orders findings as Finding.sort_key
    # does, ties in input order.
    by_component: dict[ComponentRef, list[Finding]] = {}
    by_object: dict[int, list[Finding]] = {}
    for finding in findings:
        group = by_object.get(id(finding.component))
        if group is None:
            group = by_object[id(finding.component)] = by_component.setdefault(
                finding.component, []
            )
        group.append(finding)
    counts = dict(vuln_counts or {})
    per_component: dict[ComponentRef, list[Finding]] = {}
    groups = dict.fromkeys([*components, *counts], ()) | by_component
    for component in sorted(groups, key=ComponentRef.sort_key):
        kept = per_component[component] = []
        seen: set[tuple[str, str]] = set()
        for finding in sorted(groups[component], key=attrgetter("rule_id", "location")):
            dedup = (finding.rule_id, finding.location)
            if dedup not in seen:
                seen.add(dedup)
                kept.append(finding)
    report = ScanReport(corpus_id=corpus_id, per_component=per_component, vuln_counts=counts)
    report.recompute(cdf_thresholds)
    return report


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

_SEVERITY_ORDER = (Severity.CRITICAL, Severity.HIGH, Severity.MEDIUM, Severity.LOW, Severity.UNKNOWN)


# One finding of the json format, after the separator that precedes it, as
# dump_json writes it at the depth of components[].findings[]: keys sorted,
# strings through the C encoder.
_FINDING_JSON = (
    '%s{\n          "component": %s,\n          "evidence": %s,\n          "location": %s,'
    '\n          "remediation": %s,\n          "rule_id": %s,\n          "severity": %s,'
    '\n          "vector": %s\n        }'
)


def _emit_json(report: ScanReport) -> bytes:
    """The report in the json format (see README): what ``dump_json``
    writes for its dict form, from one list of parts joined once.

    Each component's dict is rendered once per depth and each finding from
    `_FINDING_JSON`; the corpus-level values go through ``dump_json``.
    """
    parts = [
        '{\n  "cdf": ',
        dump_json([[t, fraction] for t, fraction in report.cdf_points], "\n  "),
        ',\n  "components": ',
    ]
    separator = "[\n    "
    for component, findings in report.per_component.items():
        parts += (separator, '{\n      "component": ', dump_json(component.to_dict(), "\n      "))
        separator = ",\n    "
        if findings:
            nested = dump_json(component.to_dict(), "\n          ")
            row_separator = ',\n      "findings": [\n        '
            for finding in findings:
                owner = finding.component
                parts.append(_FINDING_JSON % (
                    row_separator,
                    nested if owner is component or owner == component
                    else dump_json(owner.to_dict(), "\n          "),
                    encode_basestring_ascii(finding.evidence),
                    encode_basestring_ascii(finding.location),
                    encode_basestring_ascii(finding.remediation),
                    encode_basestring_ascii(finding.rule_id),
                    encode_basestring_ascii(finding.severity.value),
                    encode_basestring_ascii(finding.vector.value),
                ))
                row_separator = ",\n        "
            parts.append("\n      ]")
        else:
            parts.append(',\n      "findings": []')
        count = report.vuln_counts.get(component, 0)
        parts += (',\n      "vuln_count": ', json.dumps(count), "\n    }")
    histogram = {sev.value: report.severity_histogram.get(sev, 0) for sev in _SEVERITY_ORDER}
    parts += (
        "\n  ]" if report.per_component else "[]",
        ',\n  "corpus_id": ',
        encode_basestring_ascii(report.corpus_id),
        ',\n  "severity_histogram": ',
        dump_json(histogram, "\n  "),
        ',\n  "stats": ',
        dump_json(report.stats.to_dict() if report.stats else None, "\n  "),
        "\n}\n",
    )
    return "".join(parts).encode()


def parse_report(data: bytes | str) -> ScanReport:
    doc = json.loads(data)
    report = ScanReport(corpus_id=doc["corpus_id"])
    for item in doc["components"]:
        component = ComponentRef.from_dict(item["component"])
        report.per_component[component] = [Finding.from_dict(f) for f in item["findings"]]
        report.vuln_counts[component] = int(item["vuln_count"])
    report.severity_histogram = {
        Severity(name): count for name, count in doc["severity_histogram"].items() if count
    }
    report.stats = CountStats.from_dict(doc["stats"]) if doc.get("stats") else None
    report.cdf_points = [(int(t), float(f)) for t, f in doc.get("cdf", [])]
    return report


_SARIF_LEVELS = {
    Severity.CRITICAL: "error",
    Severity.HIGH: "error",
    Severity.MEDIUM: "warning",
    Severity.LOW: "note",
    Severity.UNKNOWN: "none",
}


def emit(report: ScanReport, format: str = "json") -> bytes:
    """Render a report as json, table, or sarif-like bytes."""
    if format == "json":
        return _emit_json(report)
    if format == "table":
        # A file name that is not UTF-8 is read with surrogate escapes;
        # written back this way it shows as its bytes on disk.
        return _emit_table(report).encode(errors="surrogateescape")
    if format == "sarif-like":
        return (dump_json(_emit_sarif(report)) + "\n").encode()
    raise ValueError(f"unknown output format {format!r} (expected json, table, or sarif-like)")


def _emit_table(report: ScanReport) -> str:
    lines: list[str] = []
    findings_total = sum(len(v) for v in report.per_component.values())
    lines.append(f"corpus: {report.corpus_id or '(unnamed)'}")
    lines.append(f"components: {len(report.per_component)}    findings: {findings_total}")
    if report.stats:
        s = report.stats
        lines.append(
            "vulns/component: "
            f"mean {s.mean:.1f}  median {s.median:.1f}  max {s.max}  min {s.min}  stddev {s.stddev:.1f}"
        )
    histogram = "  ".join(
        f"{sev.value} {report.severity_histogram.get(sev, 0)}" for sev in _SEVERITY_ORDER
    )
    lines.append(f"severity: {histogram}")
    if report.cdf_points:
        cdf = "  ".join(f"<={t}: {frac:.2f}" for t, frac in report.cdf_points)
        lines.append(f"cdf: {cdf}")
    header = f"{'component':<44} {'vulns':>5}  {'findings':>8}"
    lines.append("")
    lines.append(header)
    lines.append("-" * len(header))
    for component, findings in report.per_component.items():
        slug = f"{component.repository.value}/{component.publisher}/{component.name}"
        lines.append(
            f"{slug:<44} {report.vuln_counts.get(component, 0):>5}  {len(findings):>8}"
        )
    for component, findings in report.per_component.items():
        for finding in findings:
            lines.append(
                f"[{finding.severity.value:<8}] {finding.rule_id:<24} "
                f"{component.slug}:{finding.location}"
            )
    return "\n".join(lines) + "\n"


def _emit_sarif(report: ScanReport) -> dict:
    results = []
    rule_ids: dict[str, dict] = {}
    for finding in report.all_findings():
        rule_ids.setdefault(finding.rule_id, {"id": finding.rule_id})
        results.append(
            {
                "ruleId": finding.rule_id,
                "level": _SARIF_LEVELS[finding.severity],
                "message": {"text": finding.evidence},
                "locations": [
                    {
                        "physicalLocation": {
                            "artifactLocation": {
                                "uri": f"{finding.component.slug}/{finding.location}"
                            }
                        }
                    }
                ],
                "properties": {
                    "vector": finding.vector.value,
                    "severity": finding.severity.value,
                },
            }
        )
    return {
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "slsa-audit",
                        "version": __version__,
                        "rules": [rule_ids[k] for k in sorted(rule_ids)],
                    }
                },
                "results": results,
            }
        ],
    }


# ---------------------------------------------------------------------------
# Orchestration
# ---------------------------------------------------------------------------


@dataclass
class AuditRun:
    """Run metadata; kept out of the report body so output stays byte-stable."""

    corpus_id: str
    enabled_vectors: set[AttackVector]
    report: ScanReport
    iac_histogram: iaclint.IaCHistogram = field(default_factory=iaclint.IaCHistogram)
    tool_versions: dict[str, str] = field(default_factory=dict)
    started: str = ""
    finished: str = ""
    notices: list[str] = field(default_factory=list)
    archives: dict | None = None  # the archives V2 listed; None when it listed none
    archive_worker: dict | None = None  # ArchiveWorker.meta, None when none ran
    analysed: dict = field(default_factory=dict)  # AnalysisMemo.counts per enabled V2-V4

    def meta_dict(self) -> dict:
        return {
            "corpus_id": self.corpus_id,
            "enabled_vectors": sorted(v.value for v in self.enabled_vectors),
            "tool_versions": self.tool_versions,
            "started": self.started,
            "finished": self.finished,
            "notices": list(self.notices),
            "archives": self.archives,
            "archive_worker": self.archive_worker,
            "analysed": self.analysed,
        }


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


class AnalysisMemo:
    """The V2, V3 and V4 results of one `scan_corpus` call, one per
    distinct (vector, component-relative path, sha256 of the file's bytes),
    so each distinct file is analysed once per run
    (`ComponentScan.analysed`). A result is the findings of the component
    that was analysed, V4's framework, and the notices as they follow that
    component's slug. ``files`` counts the files looked up per vector.
    Each call makes its own, and an archive worker fills the copy it forked
    with."""

    __slots__ = ("results", "files")

    def __init__(self) -> None:
        self.results: dict[tuple[AttackVector, str, bytes], tuple] = {}
        self.files: Counter[AttackVector] = Counter()

    def counts(self, vector: AttackVector) -> dict[str, int]:
        """``{"files": n, "distinct": m}``: the files of ``vector`` looked
        up, and how many of them were analysed."""
        distinct = sum(1 for key in self.results if key[0] is vector)
        return {"files": self.files[vector], "distinct": distinct}


class ComponentScan:
    """One component's scan step, which each ``scan_*`` takes: the one
    reader of its files, and the one place a notice gets its component in
    front. V1 sets ``vuln_count``; V4 tags its findings with their
    framework in ``iac_tagged``. Building one touches no file."""

    __slots__ = (
        "entry", "config", "index", "memo", "vuln_count", "iac_tagged", "notices_by_vector",
        "archives",
    )

    def __init__(
        self,
        entry: CorpusEntry,
        config: AuditConfig,
        index: vulnscan.AdvisoryIndex | None = None,
        memo: AnalysisMemo | None = None,
    ) -> None:
        self.entry = entry
        self.config = config
        self.index = index or {}  # what V1 matches against
        self.memo = memo or AnalysisMemo()  # shared by the scans of one run
        self.vuln_count = 0
        self.iac_tagged: list[tuple[iaclint.IaCFramework, Finding]] = []
        self.notices_by_vector: dict[AttackVector, list[str]] = {}
        self.archives: list[tuple[str, int]] | None = None  # set by archive_files

    def notices_for(self, vector: AttackVector, prefix: str = "/") -> SimpleNamespace:
        """What ``vector`` passes as an analyzer's ``notices`` list, which is
        only appended to: ``append`` keeps each notice as
        ``<slug><prefix><notice>``. The prefix is ``"/"`` for a notice that
        begins with its component-relative path, ``"/<path>: "`` for one
        about ``path`` and ``": "`` for one about the component."""
        into, prefix = self.notices_by_vector.setdefault(vector, []), self.entry.ref.slug + prefix
        return SimpleNamespace(append=lambda notice: into.append(prefix + notice))

    @property
    def notices(self) -> list[str]:
        """The component's notices in vector order."""
        return [n for vector in AttackVector for n in self.notices_by_vector.get(vector, ())]

    def has(self, part: str, vector: AttackVector) -> bool:
        """Whether the component has ``part``, told without touching a file.
        A part `load_corpus` skipped gives its notice to ``vector`` here."""
        if part in self.entry.skipped_parts:
            self.notices_for(vector).append(self.entry.skipped_parts[part])
        return part in self.entry.parts

    def archive_files(self) -> list[tuple[str, int]]:
        """The regular files under ``archives/``, as ``(archives/<path>,
        size)`` in `ingest.walk_files` order, with its notices for V2. Only
        the first call lists, so the fork gate and `scan_archives` see the
        same files."""
        if self.archives is None:
            self.archives = []
            if self.has("archives", AttackVector.V2):
                notices = self.notices_for(AttackVector.V2)
                for rel in walk_files(self.entry.root_path / "archives", notices, "archives/"):
                    try:
                        self.archives.append((rel, os.lstat(self.entry.root_path / rel).st_size))
                    except OSError as exc:
                        notices.append(f"{rel}: cannot read: {exc.strerror or exc}")
        return self.archives

    def read_bytes(self, rel: str, notices: SimpleNamespace | list[str]) -> bytes | None:
        """The bytes of the component file ``rel``, or None with its notice
        (`ingest.read_component_file`, which follows no symlink)."""
        return read_component_file(os.path.join(self.entry.root_path, rel), rel, notices)

    def read(
        self, rel: str, notices: SimpleNamespace | list[str], errors: str = "strict"
    ) -> str | None:
        """The UTF-8 text, with universal newlines, of the component file
        ``rel``, or None with the notice of `read_bytes`. Bytes that do not
        decode become U+FFFD: with ``errors="strict"`` the notice of
        `ingest.decode_noted` says so, with ``"replace"`` nothing does."""
        data = self.read_bytes(rel, notices)
        if data is None:
            return None
        return decode_text(data, errors) if errors == "replace" else decode_noted(data, rel, notices)

    def analysed(self, vector: AttackVector, rel: str, data: bytes, analyse) -> tuple:
        """``analyse(self, rel, data)``, which returns ``(findings,
        framework)``, run once per run for each distinct ``(vector, rel,
        data)`` (`AnalysisMemo`). The first component to ask keeps the
        analyser's findings. Each later one gets copies that name it, and
        the first one's ``vector`` notices from the analysis again, after
        its own slug."""
        memo = self.memo
        memo.files[vector] += 1
        key = (vector, rel, hashlib.sha256(data).digest())
        into = self.notices_by_vector.setdefault(vector, [])
        slug = self.entry.ref.slug
        result = memo.results.get(key)
        if result is None:
            start = len(into)
            findings, framework = analyse(self, rel, data)
            memo.results[key] = findings, framework, [n[len(slug):] for n in into[start:]]
            return findings, framework
        findings, framework, notices = result
        into += [slug + notice for notice in notices]
        ref = self.entry.ref
        return [
            Finding(f.rule_id, f.vector, f.severity, ref, f.location, f.evidence, f.remediation)
            for f in findings
        ], framework


def scan_vuln(scan: ComponentScan) -> list[Finding]:
    """V1 for one component: inventory, advisory matching, optional FP filter.

    The tree is listed as ``tree/<file>`` paths, so a match's first
    manifest is its location.
    """
    entry, config = scan.entry, scan.config
    if not scan.has("tree", AttackVector.V1):
        return []
    notices = scan.notices_for(AttackVector.V1)
    files = walk_files(os.path.join(entry.root_path, "tree"), notices, "tree/")
    read = functools.partial(scan.read, notices=notices, errors="replace")
    inventory = vulnscan.extract_inventory(files, read, notices)
    vulnscan.mark_source_references(inventory, files, read, config.source_extensions)
    matches = vulnscan.match_advisories(
        inventory, scan.index, scan.notices_for(AttackVector.V1, ": ")
    )
    scan.vuln_count = len(matches)
    if config.fp_filter:
        matches = vulnscan.filter_false_positives(matches).kept
    findings = []
    for match in matches:
        suffix = " [metadata-only]" if match.fp_class is vulnscan.FpClass.METADATA_ONLY else ""
        findings.append(Finding(
            f"V1-{match.advisory_id}", AttackVector.V1, match.severity, entry.ref,
            match.declared_in[0] if match.declared_in else "tree",
            f"{match.package_name}@{match.package_version} ({match.ecosystem.value}) "
            f"affected by {match.advisory_id}{suffix}",
            f"upgrade {match.package_name} past the affected range",
        ))
    return findings


def scan_archives(scan: ComponentScan) -> list[Finding]:
    """V2 for one component: extract and signature-scan the regular files
    of archives/ (`ComponentScan.archive_files`), each distinct one once
    per run."""
    findings: list[Finding] = []
    notices = scan.notices_for(AttackVector.V2)
    for rel, _ in scan.archive_files():
        data = scan.read_bytes(rel, notices)
        if data is not None:
            findings += scan.analysed(AttackVector.V2, rel, data, _scan_archive)[0]
    return findings


def _scan_archive(scan: ComponentScan, rel: str, data: bytes) -> tuple[list[Finding], None]:
    """V2's analysis of the archive ``rel`` with the bytes ``data``."""
    entry, config = scan.entry, scan.config
    try:
        entries = archive.extract(
            os.path.join(entry.root_path, rel), limits=config.extraction_limits, data=data
        )
    except archive.EncryptedArchiveError:
        return [Finding(
            "V2-ENCRYPTED-ARCHIVE", AttackVector.V2, Severity.MEDIUM, entry.ref, rel,
            "archive content is encrypted and cannot be inspected",
            "reject components whose archives cannot be scanned",
        )], None
    except (archive.ArchiveSecurityError, archive.DecompressionBombError) as exc:
        return [Finding(
            "V2-UNSAFE-ARCHIVE", AttackVector.V2, Severity.HIGH, entry.ref, rel, str(exc),
            "do not extract this archive; inspect it manually",
        )], None
    except (archive.UnsupportedFormatError, archive.ExtractionError) as exc:
        scan.notices_for(AttackVector.V2).append(f"{rel}: {exc}")
        return [], None
    matches = archive.scan_entries(
        entries, config.signatures, config.recursion_depth, config.extraction_limits,
        notices=scan.notices_for(AttackVector.V2, f"/{rel}: "),
    )
    return [
        Finding(
            "V2-SIGNATURE-MATCH", AttackVector.V2, Severity.CRITICAL, entry.ref,
            f"{rel}!{match.entry_path}", f"signature {match.signature_id} matched",
            "remove the flagged file and audit the component",
        )
        for match in matches
    ], None


def scan_docker(scan: ComponentScan) -> list[Finding]:
    """V3 for one component: lint run_commands.txt, each distinct one once
    per run."""
    if not scan.has("run_commands.txt", AttackVector.V3):
        return []
    data = scan.read_bytes("run_commands.txt", scan.notices_for(AttackVector.V3))
    if data is None:
        return []
    return scan.analysed(AttackVector.V3, "run_commands.txt", data, _lint_commands)[0]


def _lint_commands(scan: ComponentScan, rel: str, data: bytes) -> tuple[list[Finding], None]:
    """V3's analysis of the command file ``rel`` with the bytes ``data``."""
    config, notices = scan.config, scan.notices_for(AttackVector.V3)
    return dockerlint.lint_commands_text(
        decode_noted(data, rel, notices),
        component=scan.entry.ref,
        source_name=rel,
        rules=config.docker_rules,
        key_config=config.sensitive_keys,
        notices=notices,
    ), None


def scan_iac(scan: ComponentScan) -> list[Finding]:
    """V4 for one component: lint every template under iac/, each distinct
    one once per run."""
    if not scan.has("iac", AttackVector.V4):
        return []
    notices = scan.notices_for(AttackVector.V4)
    for rel in walk_files(os.path.join(scan.entry.root_path, "iac"), notices, "iac/"):
        data = scan.read_bytes(rel, notices)
        if data is None:
            continue
        findings, framework = scan.analysed(AttackVector.V4, rel, data, _lint_template)
        scan.iac_tagged.extend((framework, f) for f in findings)
    return [f for _, f in scan.iac_tagged]


def _lint_template(
    scan: ComponentScan, rel: str, data: bytes
) -> tuple[list[Finding], iaclint.IaCFramework | None]:
    """V4's analysis of the template ``rel`` with the bytes ``data``: no
    findings and no framework for a template it does not lint."""
    config, notices = scan.config, scan.notices_for(AttackVector.V4)
    try:
        framework, findings = iaclint.lint_template(
            rel,
            decode_noted(data, rel, notices),
            catalog=config.iac_catalog,
            component=scan.entry.ref,
            notices=notices,
            cors_substrings=config.cors_substrings,
        )
    except iaclint.UnsupportedExtensionError:
        return [], None
    except iaclint.TemplateParseError as exc:
        notices.append(str(exc))
        return [], None
    return findings, framework


def _archive_scan_payload(scans: list[ComponentScan], started: float) -> bytes:
    """What an archive worker sends: the pickle of ``(True, (results,
    seconds, counts))``, with one ``(findings, V2 notices)`` per scan and
    the V2 `AnalysisMemo.counts` of the scans' memo, or of ``(False,
    exception)``."""
    try:
        results = [
            (scan_archives(scan), scan.notices_by_vector.get(AttackVector.V2, [])) for scan in scans
        ]
        counts = scans[0].memo.counts(AttackVector.V2)
        return pickle.dumps(
            (True, (results, time.perf_counter() - started, counts)), pickle.HIGHEST_PROTOCOL
        )
    except Exception as exc:
        try:
            payload = pickle.dumps((False, exc), pickle.HIGHEST_PROTOCOL)
            pickle.loads(payload)  # an exception whose args do not fit its __init__ fails here
            return payload
        except Exception:
            import traceback  # only on this path, so set-up does not pay for it

            detail = "".join(traceback.format_exception(exc))
            return pickle.dumps((False, RuntimeError(f"archive scan worker failed:\n{detail}")))


class ArchiveWorker:
    """V2 over ``scans`` in one forked child, while the caller goes on.

    The child runs `scan_archives` on each scan in order, writes one
    pickle (`_archive_scan_payload`) to a pipe and leaves through
    ``os._exit``, so it never returns into its caller's frames or flushes
    stdio buffers it inherited. `result` reads the pickle and reaps
    the child; `close`, in the caller's ``finally``, kills and reaps a child
    that `result` did not.
    """

    def __init__(self, scans: list[ComponentScan]) -> None:
        self.meta: dict | None = None  # set by result; the README's --run-meta lists its keys
        self.counts: dict | None = None  # set by result: the worker's V2 AnalysisMemo.counts
        self._components = len(scans)
        self._started = started = time.perf_counter()
        read_fd, write_fd = os.pipe()
        try:
            self._pid = os.fork()
        except BaseException:
            os.close(read_fd)
            os.close(write_fd)
            raise
        if self._pid == 0:
            status = 1
            try:
                os.close(read_fd)
                payload = memoryview(_archive_scan_payload(scans, started))
                while payload:
                    payload = payload[os.write(write_fd, payload):]
                status = 0
            finally:
                os._exit(status)
        os.close(write_fd)
        self._pipe = io.FileIO(read_fd, "r")

    def result(self) -> list[tuple[list[Finding], list[str]]]:
        """Each scan's V2 findings and notices. Raises what the child
        raised, or ArchiveError when it ended without sending its result."""
        called = time.perf_counter()
        data = self._pipe.readall()
        self._pipe.close()
        _, status, usage = os.wait4(self._pid, 0)
        self._pid = 0
        code = os.waitstatus_to_exitcode(status)
        if code or not data:
            ended = f"signal {-code}" if code < 0 else f"status {code}"
            raise archive.ArchiveError(
                f"archive scan worker ended with {ended} before sending its result"
            )
        ok, value = pickle.loads(data)
        if not ok:
            raise value
        results, seconds, self.counts = value
        self.meta = {
            "components": self._components,
            "seconds": seconds,
            "max_rss_mib": usage.ru_maxrss / 1024,  # Linux reports KiB
            "parent_seconds": called - self._started,
            "waited_seconds": time.perf_counter() - called,
        }
        return results

    def close(self) -> None:
        self._pipe.close()
        if self._pid:
            os.kill(self._pid, signal.SIGKILL)
            os.wait4(self._pid, 0)
            self._pid = 0


# The per-component scanners in vector order and by name: each scan looks
# them up, as perfbench/tracing.py wraps them.
_SCANNERS = {
    AttackVector.V1: "scan_vuln", AttackVector.V2: "scan_archives",
    AttackVector.V3: "scan_docker", AttackVector.V4: "scan_iac",
}

# When V2 runs in an ArchiveWorker. Measured on the perfbench corpora (2
# vCPUs, Python 3.11): in the parent, V2 takes 0.18-0.26 ms per archive
# plus 47-73 ns per byte, so an archive costs about what 4 KiB of archive
# bytes cost; a fork costs the parent about 0.02-0.04 s, mostly in pages
# it copies on write after the fork (0.025 s on `mixed`). So V2 forks when
# its archives weigh at least 512 KiB, counting each as its size plus 4
# KiB, and V1, V3 or V4 has work to run beside it. Seed-1 `mixed` (50 archives, 10.8 KB) weighs
# about 216 KB and runs V2 in the parent; `artifacts` (196 archives, 2.0
# MB) weighs about 2.85 MB, and a paper-scale `mixed` (about 460 archives)
# about 1.9 MB, and both fork.
_ARCHIVE_OVERHEAD_BYTES = 4 << 10
_FORK_MIN_BYTES = 512 << 10
_OVERLAPPED = frozenset((AttackVector.V1, AttackVector.V3, AttackVector.V4))


def scan_corpus(
    corpus_root: str | Path,
    config: AuditConfig | None = None,
    db: list[vulnscan.Advisory] | None = None,
    corpus_id: str | None = None,
    filter_serverless: bool = False,
) -> AuditRun:
    """Run every enabled vector over a corpus and aggregate one report.

    Each enabled scanner takes each component's ComponentScan in turn. V2
    runs in an ArchiveWorker instead when its archives are large enough to
    pay for the fork (see `_FORK_MIN_BYTES`). Each component's notices come
    in vector order: V1, V2, V3, V4, wherever V2 ran. The scans share one
    AnalysisMemo, made here, so each distinct V2-V4 file is analysed once
    in this call.
    ``corpus_id`` defaults to the last component of the absolute path.
    """
    config = config or AuditConfig()
    started = _now()
    notices: list[str] = []
    load_result: CorpusLoadResult = load_corpus(corpus_root)
    for error in load_result.errors:
        notices.append(str(error))
    entries = load_result.entries
    if filter_serverless:
        entries = [e for e in entries if is_serverless(e)]
    if corpus_id is None:
        corpus_id = os.path.basename(os.path.abspath(corpus_root))
    vectors = config.enabled_vectors
    memo = AnalysisMemo()
    scans = [ComponentScan(entry, config, memo=memo) for entry in entries]
    # Listing every component's archives here also puts each V2 listing
    # notice in the parent, for the components the worker does not take.
    archived = [s for s in scans if AttackVector.V2 in vectors and s.archive_files()]
    sizes = [size for scan in archived for _, size in scan.archive_files()]
    forked = bool(sizes and vectors & _OVERLAPPED) and (
        sum(sizes) + len(sizes) * _ARCHIVE_OVERHEAD_BYTES >= _FORK_MIN_BYTES
    )
    worker = ArchiveWorker(archived) if forked else None

    findings: list[Finding] = []
    try:
        if AttackVector.V1 in vectors and any("tree" in e.parts for e in entries):
            index = vulnscan.index_advisories(db or [])
            for scan in scans:
                scan.index = index
        scanners = [
            globals()[name] for vector, name in _SCANNERS.items()
            if vector in vectors and not (forked and vector is AttackVector.V2)
        ]
        for scan in scans:
            for scanner in scanners:
                findings += scanner(scan)
        archive_results = worker.result() if worker else []
    finally:
        if worker is not None:
            worker.close()
    for scan, (archive_findings, archive_notices) in zip(archived, archive_results):
        findings += archive_findings
        scan.notices_by_vector[AttackVector.V2] = archive_notices
    for scan in scans:
        notices += scan.notices
    if AttackVector.V5 in vectors:
        records = typosquat.build_name_records(
            (e.ref for e in entries), include_aws_sar=config.include_aws_sar
        )
        scan = typosquat.find_near_pairs(records, config.typosquat_max_distance)
        findings.extend(typosquat.findings_from_pairs(scan))

    analysed = {
        vector.value: worker.counts if forked and vector is AttackVector.V2 else memo.counts(vector)
        for vector in (AttackVector.V2, AttackVector.V3, AttackVector.V4) if vector in vectors
    }
    vuln_counts = {s.entry.ref: s.vuln_count for s in scans if AttackVector.V1 in vectors}
    report = aggregate(
        findings, corpus_id, vuln_counts, config.cdf_thresholds, [e.ref for e in entries]
    )
    return AuditRun(
        corpus_id=corpus_id,
        enabled_vectors=set(vectors),
        report=report,
        iac_histogram=iaclint.severity_histogram(t for scan in scans for t in scan.iac_tagged),
        tool_versions={
            "slsa-audit": __version__,
            "python": platform.python_version(),
        },
        started=started,
        finished=_now(),
        notices=notices,
        archives={"files": len(sizes), "bytes": sum(sizes), "forked": forked} if sizes else None,
        archive_worker=worker.meta if worker else None,
        analysed=analysed,
    )


def exit_code_for(report: ScanReport, fail_on: Severity | None) -> int:
    """0 clean, 1 when findings at/above the threshold exist."""
    if fail_on is None:
        return 0
    for finding in report.all_findings():
        if finding.severity.at_least(fail_on):
            return 1
    return 0
