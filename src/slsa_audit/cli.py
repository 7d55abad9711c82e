"""Command-line interface: slsa-audit <subcommand>.

Exit codes: 0 clean, 1 findings at/above --fail-on, 2 operational error.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from slsa_audit import __version__, archive, dockerlint, iaclint, typosquat, vulnscan
from slsa_audit.config import CONFIG_ENV_VAR, load_config
from slsa_audit.ingest import decode_noted, is_serverless, load_corpus, read_file
from slsa_audit.model import AttackVector, AuditError, EmptyInputError, Severity, dump_json
from slsa_audit.report import aggregate, emit, exit_code_for, scan_corpus


# What _cmd_scan_all reads beyond --corpus, for the subcommands that lack some of it.
_SCAN_ALL_DEFAULTS = {"db": None, "filter_serverless": False, "run_meta": None, "histogram": False}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slsa-audit",
        description="Audit serverless components and corpora for supply-chain risks (V1-V5).",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("--output", choices=["json", "table", "sarif-like"], default="table",
                        help="report format (default: table)")
    parser.add_argument("--fail-on", choices=[s.value for s in Severity if s is not Severity.UNKNOWN],
                        help="exit 1 when findings at/above this severity exist")
    parser.add_argument("--config", help=f"JSON config file (or ${CONFIG_ENV_VAR})")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="load a corpus and list its components")
    p.add_argument("--root", required=True)
    p.add_argument("--filter-serverless", action="store_true",
                   help="keep only components passing the serverless filter")
    p.set_defaults(run=_cmd_ingest)

    p = sub.add_parser("vulnscan", help="match package inventories against an advisory DB")
    p.add_argument("--corpus", required=True)
    p.add_argument("--db", required=True, help="advisory database directory")
    p.add_argument("--fp-filter", action="store_true",
                   help="drop matches whose package is never referenced in source")
    p.add_argument("--compare", nargs=2, metavar=("SCAN_A", "SCAN_B"),
                   help="two external scanner reports to compare by Jaccard similarity")
    p.add_argument("--compare-format", nargs=2, metavar=("FMT_A", "FMT_B"),
                   default=["trivy-json", "grype-json"],
                   choices=["trivy-json", "grype-json"])
    p.set_defaults(run=_cmd_vulnscan, **_SCAN_ALL_DEFAULTS)

    p = sub.add_parser("archive", help="archive scanning and the injection harness")
    archive_sub = p.add_subparsers(dest="archive_command", required=True)
    scan_p = archive_sub.add_parser("scan", help="extract and signature-scan one archive")
    scan_p.add_argument("file")
    scan_p.add_argument("--depth", type=int,
                        help="nested-archive recursion depth (default: archive.recursion_depth)")
    scan_p.add_argument("--signatures",
                        help="JSON-lines signature DB (default: archive.signature_db)")
    scan_p.set_defaults(run=_cmd_archive_scan)
    inject_p = archive_sub.add_parser("inject", help="pack a tree with a payload (test harness)")
    inject_p.add_argument("tree")
    inject_p.add_argument("payload")
    inject_p.add_argument("--format", required=True,
                          choices=[f.value for f in archive.ArchiveFormat])
    inject_p.add_argument("-o", "--output-file", required=True)
    inject_p.add_argument("--dest-path", help="payload path inside the archive")
    inject_p.add_argument("--i-am-testing", action="store_true",
                          help="required acknowledgement that this builds test samples")
    inject_p.set_defaults(run=_cmd_archive_inject)

    p = sub.add_parser("docker", help="lint docker run commands")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--corpus")
    group.add_argument("--cmd", help="one docker run command, or '-' to read commands from stdin")
    p.add_argument("--rules", help="JSON rules override file")
    p.set_defaults(run=_cmd_docker, **_SCAN_ALL_DEFAULTS)

    p = sub.add_parser("iac", help="classify and lint IaC templates")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--corpus")
    group.add_argument("--paths", nargs="+", help="explicit template files")
    p.add_argument("--catalog", help="JSON rule catalog")
    p.add_argument("--histogram", action="store_true", help="print per-framework severity counts")
    p.set_defaults(run=_cmd_iac, **_SCAN_ALL_DEFAULTS)

    p = sub.add_parser("typosquat", help="find suspiciously similar names")
    p.add_argument("--corpus", required=True)
    p.add_argument("--max-distance", type=int, help="default: typosquat.max_distance")
    p.add_argument("--kind", choices=["username", "image"], help="restrict to one name kind")
    p.add_argument("--include-aws-sar", action="store_true")
    p.set_defaults(run=_cmd_typosquat)

    p = sub.add_parser("scan-all", help="run every enabled vector over a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--db", help="advisory database directory")
    p.add_argument("--filter-serverless", action="store_true")
    p.add_argument("--run-meta", help="write run metadata JSON to this file")
    p.set_defaults(run=_cmd_scan_all, **_SCAN_ALL_DEFAULTS)

    p = sub.add_parser("demo", help="materialize the bundled demo corpus")
    p.add_argument("--dest", required=True)
    p.set_defaults(run=_cmd_demo)

    return parser


def _cmd_ingest(args, config, fail_on: Severity | None) -> int:
    result = load_corpus(args.root)
    entries = result.entries
    if args.filter_serverless:
        entries = [e for e in entries if is_serverless(e)]
    for entry in entries:
        print(f"{entry.ref.repository.value}/{entry.ref.publisher}/{entry.ref.name}"
              f"{'@' + entry.ref.version if entry.ref.version else ''}"
              f"  [{entry.artifact_kind.value}]")
    for error in result.errors:
        print(f"error: {error}", file=sys.stderr)
    print(f"{len(entries)} component(s), {len(result.errors)} manifest error(s)",
          file=sys.stderr)
    return 0


def _cmd_vulnscan(args, config, fail_on: Severity | None) -> int:
    config = replace(config, fp_filter=args.fp_filter or config.fp_filter)
    if args.compare:
        fmt_a, fmt_b = args.compare_format
        sets_a = vulnscan.import_external_scan(args.compare[0], fmt_a)
        sets_b = vulnscan.import_external_scan(args.compare[1], fmt_b)
        for component in sorted(set(sets_a) | set(sets_b)):
            similarity = vulnscan.jaccard_similarity(
                sets_a.get(component, set()), sets_b.get(component, set())
            )
            print(f"{component}: jaccard {similarity:.3f} "
                  f"({len(sets_a.get(component, set()))} vs {len(sets_b.get(component, set()))})")
        return 0
    return _cmd_scan_all(args, replace(config, enabled_vectors=frozenset({AttackVector.V1})), fail_on)


def _cmd_archive_inject(args, config, fail_on: Severity | None) -> int:
    if not args.i_am_testing:
        print("refusing to build an injection sample without --i-am-testing", file=sys.stderr)
        return 2
    notices: list[str] = []
    blob = archive.inject_and_pack(
        args.tree, args.payload, archive.ArchiveFormat(args.format), args.dest_path, notices
    )
    Path(args.output_file).write_bytes(blob)
    print(f"wrote {len(blob)} bytes to {args.output_file}", file=sys.stderr)
    _print_notices(notices)
    return 0


def _cmd_archive_scan(args, config, fail_on: Severity | None) -> int:
    if args.signatures:
        config = replace(config, signatures=tuple(archive.load_signatures(args.signatures)))
    if args.depth is not None:
        config = replace(config, recursion_depth=args.depth)
    # Reported with the verdict and severity scan-all gives the archive.
    try:
        entries = archive.extract(args.file, limits=config.extraction_limits)
    except (archive.DecompressionBombError, archive.ArchiveSecurityError) as exc:
        print(f"unsafe: {exc}")
        return 1 if fail_on is not None and Severity.HIGH.at_least(fail_on) else 0
    except archive.EncryptedArchiveError as exc:
        print(f"encrypted: {exc}")
        return 1 if fail_on is not None and Severity.MEDIUM.at_least(fail_on) else 0
    notices: list[str] = []
    matches = archive.scan_entries(
        entries, config.signatures, config.recursion_depth, config.extraction_limits,
        notices=notices,
    )
    for match in matches:
        print(f"match: {match.signature_id} at {match.entry_path}")
    print(f"{len(entries)} entries, {len(matches)} matches", file=sys.stderr)
    _print_notices(notices)
    return 1 if matches and fail_on is not None else 0


def _cmd_docker(args, config, fail_on: Severity | None) -> int:
    if args.rules:
        docker_rules, sensitive_keys = dockerlint.load_rules_file(args.rules)
        config = replace(config, docker_rules=docker_rules, sensitive_keys=sensitive_keys)
    if args.corpus:
        return _cmd_scan_all(
            args, replace(config, enabled_vectors=frozenset({AttackVector.V3})), fail_on
        )
    notices: list[str] = []
    text = decode_noted(sys.stdin.buffer.read(), "cmdline", notices) if args.cmd == "-" else args.cmd
    findings = dockerlint.lint_commands_text(
        text, source_name="cmdline", rules=config.docker_rules,
        key_config=config.sensitive_keys, notices=notices,
    )
    report = aggregate(findings, "cmdline")
    sys.stdout.buffer.write(emit(report, args.output))
    _print_notices(notices)
    return exit_code_for(report, fail_on)


def _cmd_iac(args, config, fail_on: Severity | None) -> int:
    if args.catalog:
        config = replace(config, iac_catalog=iaclint.load_catalog(args.catalog))
    if args.corpus:
        return _cmd_scan_all(
            args, replace(config, enabled_vectors=frozenset({AttackVector.V4})), fail_on
        )
    notices: list[str] = []
    tagged: list[tuple[iaclint.IaCFramework, object]] = []
    for path in args.paths:
        try:
            framework, findings = iaclint.lint_template(
                path, decode_noted(read_file(path), path, notices),
                catalog=config.iac_catalog, notices=notices,
                cors_substrings=config.cors_substrings,
            )
        except (iaclint.UnsupportedExtensionError, iaclint.TemplateParseError) as exc:
            notices.append(str(exc))
            continue
        tagged.extend((framework, f) for f in findings)
    report = aggregate((f for _, f in tagged), "paths")
    sys.stdout.buffer.write(emit(report, args.output))
    if args.histogram:
        _print_histogram(iaclint.severity_histogram(tagged))
    _print_notices(notices)
    return exit_code_for(report, fail_on)


def _cmd_typosquat(args, config, fail_on: Severity | None) -> int:
    if args.max_distance is not None:
        config = replace(config, typosquat_max_distance=args.max_distance)
    config = replace(config, include_aws_sar=args.include_aws_sar or config.include_aws_sar)
    result = load_corpus(args.corpus)
    records = typosquat.build_name_records(
        (e.ref for e in result.entries), include_aws_sar=config.include_aws_sar
    )
    if args.kind:
        kind = typosquat.NameKind.USERNAME if args.kind == "username" else typosquat.NameKind.IMAGE_NAME
        records = [r for r in records if r.kind is kind]
    scan = typosquat.find_near_pairs(records, config.typosquat_max_distance)
    for pair in scan.pairs:
        print(f"d={pair.distance} [{pair.a.kind.value}] {pair.a.name!r} ({pair.a.owner.slug}) "
              f"~ {pair.b.name!r} ({pair.b.owner.slug})")
    for pair in scan.collisions:
        print(f"d=0 [collision] {pair.a.name!r}: {pair.a.owner.slug} vs {pair.b.owner.slug}")
    try:
        cdf = typosquat.distance_cdf(records, scan, config.typosquat_max_distance)
    except EmptyInputError:
        cdf = []
    if cdf:
        print("distance  cumulative_fraction")
        for distance, fraction in cdf:
            print(f"{distance:>8}  {fraction:.4f}")
    print(f"{len(scan.pairs)} near pair(s), {len(scan.collisions)} collision(s)", file=sys.stderr)
    _print_notices([str(error) for error in result.errors])
    return 0


def _cmd_scan_all(args, config, fail_on: Severity | None) -> int:
    db_notices: list[str] = []
    db = vulnscan.load_advisory_db(args.db, db_notices) if args.db else []
    run = scan_corpus(args.corpus, config, db, filter_serverless=args.filter_serverless)
    run.notices = db_notices + run.notices
    sys.stdout.buffer.write(emit(run.report, args.output))
    if args.run_meta:
        Path(args.run_meta).write_text(dump_json(run.meta_dict()) + "\n", encoding="utf-8")
    if args.histogram:
        _print_histogram(run.iac_histogram)
    _print_notices(run.notices)
    return exit_code_for(run.report, fail_on)


def _cmd_demo(args, config, fail_on: Severity | None) -> int:
    from slsa_audit.demo import build_demo_corpus, build_demo_db

    dest = Path(args.dest)
    corpus = build_demo_corpus(dest / "corpus")
    db = build_demo_db(dest / "db")
    print(f"demo corpus: {corpus}", file=sys.stderr)
    print(f"advisory db: {db}", file=sys.stderr)
    return 0


def _print_histogram(histogram: iaclint.IaCHistogram) -> None:
    for framework in sorted(histogram.by_framework, key=lambda f: f.value):
        counts = histogram.by_framework[framework]
        rendered = "  ".join(f"{sev.value} {n}" for sev, n in sorted(
            counts.items(), key=lambda kv: kv[0].value))
        print(f"{framework.value}: {rendered}", file=sys.stderr)


def _print_notices(notices: list[str]) -> None:
    for notice in notices:
        print(f"notice: {notice}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config_notices: list[str] = []
        config = load_config(args.config, config_notices)
        _print_notices(config_notices)
        fail_on = Severity(args.fail_on) if args.fail_on else None
        return args.run(args, config, fail_on)
    except (AuditError, OSError) as exc:  # OSError: a path that is missing, a directory, ...
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
