"""Per-layer timing and counting by wrapping slsa_audit's public functions.

Each function is replaced at the module attribute where its caller looks it
up, so the program itself is unchanged. A wrapper adds the time of its
outermost call to ``<layer>.<function>_s``; recursive calls are not counted
twice. Counters are read from the wrapped calls' results.
"""
from __future__ import annotations

import time
from collections import defaultdict
from typing import Callable


class Tracer:
    def __init__(self) -> None:
        self.values: dict[str, float] = defaultdict(float)
        self._depth: dict[str, int] = defaultdict(int)
        self._patched: list[tuple[object, str, object]] = []

    def wrap(
        self,
        module: object,
        attr: str,
        metric: str | None,
        calls: str | None = None,
        counts: dict[str, Callable[[object], float]] | None = None,
    ) -> None:
        """Time module.attr into ``metric`` (None: no timing).

        ``calls`` counts outermost calls, raised or not; each ``counts``
        entry adds its function of the result. A function the module no
        longer has is left out and its metrics stay 0, so the benchmark
        keeps running when a layer is reshaped.
        """
        original = getattr(module, attr, None)
        if original is None:
            return
        values, depth = self.values, self._depth
        key = f"{id(module)}.{attr}"
        counts = counts or {}

        def wrapper(*args, **kwargs):
            if depth[key]:
                return original(*args, **kwargs)
            depth[key] += 1
            if calls is not None:
                values[calls] += 1
            started = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                if metric is not None:
                    values[metric] += time.perf_counter() - started
                depth[key] -= 1
            for name, amount in counts.items():
                values[name] += amount(result)
            return result

        setattr(module, attr, wrapper)
        self._patched.append((module, attr, original))

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def take(self) -> dict[str, float]:
        """The values since the last take, then reset."""
        out = dict(self.values)
        self.values.clear()
        return out


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics are read from."""
    from slsa_audit import archive, config, dockerlint, iaclint, report, typosquat, vulnscan

    def inflated(entries) -> int:
        return sum(len(e.data) for e in entries)

    wrap = tracer.wrap
    wrap(config, "load_config", "config.load_config_s")
    wrap(vulnscan, "load_advisory_db", "vulnscan.load_advisory_db_s",
         counts={"vulnscan.advisories": len})
    # report imports load_corpus by name, so that is where it is looked up.
    wrap(report, "load_corpus", "ingest.load_corpus_s",
         counts={"ingest.components": lambda r: len(r.entries)})
    wrap(vulnscan, "extract_inventory", "vulnscan.extract_inventory_s",
         counts={"vulnscan.packages": lambda r: len(r.packages)})
    wrap(vulnscan, "mark_source_references", "vulnscan.mark_source_references_s")
    wrap(vulnscan, "match_advisories", "vulnscan.match_advisories_s",
         calls="vulnscan.match_calls", counts={"vulnscan.matches": len})
    wrap(archive, "detect_format", "archive.detect_format_s")
    wrap(archive, "extract_bytes", "archive.extract_bytes_s", calls="archive.archives",
         counts={"archive.entries": len, "archive.bytes_inflated": inflated})
    wrap(archive, "scan_entries", "archive.scan_entries_s",
         counts={"archive.signature_matches": len})
    wrap(dockerlint, "lint_commands_text", "dockerlint.lint_commands_text_s")
    wrap(dockerlint, "split_commands", None, counts={"dockerlint.commands": len})
    wrap(iaclint, "classify_template", "iaclint.classify_template_s", calls="iaclint.templates")
    wrap(iaclint, "parse_template", "iaclint.parse_template_s",
         counts={"iaclint.resources": lambda model: len(model.resources)})
    # iaclint imports parse_terraform by name.
    wrap(iaclint, "parse_terraform", "tfparse.parse_terraform_s")
    wrap(iaclint, "run_rules", "iaclint.run_rules_s")
    wrap(iaclint, "check_cors_wildcard", "iaclint.check_cors_wildcard_s")
    wrap(typosquat, "build_name_records", "typosquat.build_name_records_s")
    wrap(typosquat, "find_near_pairs", "typosquat.find_near_pairs_s",
         counts={"typosquat.near_pairs": lambda s: len(s.pairs),
                 "typosquat.collisions": lambda s: len(s.collisions)})
    wrap(typosquat, "findings_from_pairs", "typosquat.findings_from_pairs_s")
    wrap(typosquat, "dl_distance", None, calls="typosquat.dl_distance_calls")
    wrap(typosquat, "levenshtein", None, calls="typosquat.levenshtein_calls")
    wrap(report, "scan_vuln", "report.scan_vuln_s")
    wrap(report, "scan_archives", "report.scan_archives_s")
    wrap(report, "scan_docker", "report.scan_docker_s")
    wrap(report, "scan_iac", "report.scan_iac_s")
    wrap(report, "aggregate", "report.aggregate_s",
         counts={"report.findings": lambda r: sum(len(v) for v in r.per_component.values())})
    wrap(report, "emit", "report.emit_s", counts={"report.bytes": len})


PER_LAYER = (
    ("config.load_config_s", "s"),
    ("vulnscan.load_advisory_db_s", "s"),
    ("vulnscan.advisories", "count"),
    ("ingest.load_corpus_s", "s"),
    ("ingest.components", "count"),
    ("vulnscan.extract_inventory_s", "s"),
    ("vulnscan.mark_source_references_s", "s"),
    ("vulnscan.match_advisories_s", "s"),
    ("vulnscan.match_calls", "count"),
    ("vulnscan.packages", "count"),
    ("vulnscan.matches", "count"),
    ("archive.detect_format_s", "s"),
    ("archive.extract_bytes_s", "s"),
    ("archive.scan_entries_s", "s"),
    ("archive.archives", "count"),
    ("archive.entries", "count"),
    ("archive.bytes_inflated", "bytes"),
    ("archive.signature_matches", "count"),
    ("dockerlint.lint_commands_text_s", "s"),
    ("dockerlint.commands", "count"),
    ("iaclint.classify_template_s", "s"),
    ("iaclint.parse_template_s", "s"),
    ("tfparse.parse_terraform_s", "s"),
    ("iaclint.run_rules_s", "s"),
    ("iaclint.check_cors_wildcard_s", "s"),
    ("iaclint.templates", "count"),
    ("iaclint.resources", "count"),
    ("typosquat.build_name_records_s", "s"),
    ("typosquat.find_near_pairs_s", "s"),
    ("typosquat.findings_from_pairs_s", "s"),
    ("typosquat.dl_distance_calls", "count"),
    ("typosquat.levenshtein_calls", "count"),
    ("typosquat.near_pairs", "count"),
    ("typosquat.collisions", "count"),
    ("report.scan_vuln_s", "s"),
    ("report.scan_archives_s", "s"),
    ("report.scan_docker_s", "s"),
    ("report.scan_iac_s", "s"),
    ("report.aggregate_s", "s"),
    ("report.emit_s", "s"),
    ("report.findings", "count"),
    ("report.bytes", "bytes"),
    ("trace.audit_s", "s"),
)
