"""Benchmark of the calls ``slsa-audit scan-all`` makes, on seeded corpora.

    python3 perfbench/run.py --workload mixed --seed 1 --seconds 30 --trace 0

One process, one thread. The corpus, advisory database and ledger for the
seed are generated in a child process (so generation never counts towards
peak memory) and cached under .perfbench_cache/. Set-up imports slsa_audit,
runs load_config and loads the advisory database. Each audit pass runs
report.scan_corpus with the default config and report.emit(..., "json"),
then checks the report against the ledger outside the timed region. Passes
repeat until --seconds have elapsed.

With --trace 0 the last line reports setup_s, audit_s and peak_rss_mb; with
--trace 1 it reports the per-layer metrics of tracing.PER_LAYER, taken by
wrapping the program's public functions.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parent
SRC = REPO_ROOT / "src"
CACHE = REPO_ROOT / ".perfbench_cache"
CACHE_KEEP = 10  # newest corpora, and newest databases, kept; older ones are deleted
SETUP_PROBES = 4  # extra set-ups in fresh interpreters, for a median of five
MIN_PASSES = 4  # the first is a warm-up, left out of the timings
# Inputs of the generated files: the generator and the program code it uses.
GENERATOR_INPUTS = (
    HERE / "corpus.py",
    SRC / "slsa_audit" / "demo.py",
    SRC / "slsa_audit" / "archive.py",
    SRC / "slsa_audit" / "sevenz.py",
    SRC / "slsa_audit" / "zstdcodec.py",
)


def _digest() -> str:
    h = hashlib.sha256()
    for path in GENERATOR_INPUTS:
        h.update(path.read_bytes())
    return h.hexdigest()[:12]


def ensure_data(workload: str, seed: int) -> tuple[Path, Path]:
    """Generate (or reuse) the corpus and ledger, and the advisory DB, of a seed.

    The DB depends on the seed alone, so the workloads share it.
    """
    digest = _digest()
    data = CACHE / f"{workload}-s{seed}-{digest}"
    db_dir = CACHE / f"db-s{seed}-{digest}"
    for path in (data, db_dir):
        if path.exists():
            os.utime(path)
    if not (data / "ledger.json").is_file():
        CACHE.mkdir(exist_ok=True)
        shutil.rmtree(data, ignore_errors=True)
        partial = CACHE / f".partial-{data.name}-{os.getpid()}"
        shutil.rmtree(partial, ignore_errors=True)
        try:
            subprocess.run(
                [sys.executable, str(HERE / "corpus.py"), "--seed", str(seed),
                 "--workload", workload, "--out", str(partial), "--db", str(db_dir)],
                check=True, timeout=600, stdout=subprocess.DEVNULL,
            )
            partial.rename(data)
        finally:
            shutil.rmtree(partial, ignore_errors=True)
    for is_db in (True, False):
        entries = sorted((p for p in CACHE.iterdir()
                          if p.name[0] != "." and p.name.startswith("db-") == is_db),
                         key=lambda p: p.stat().st_mtime, reverse=True)
        for old in entries[CACHE_KEEP:]:
            shutil.rmtree(old, ignore_errors=True)
    return data, db_dir


def set_up(db_dir: Path):
    """Import slsa_audit, load the default config and the advisory DB."""
    started = time.perf_counter()
    from slsa_audit import config as config_mod
    from slsa_audit import report, vulnscan  # noqa: F401  (the modules scan-all imports)

    config = config_mod.load_config()
    db = vulnscan.load_advisory_db(db_dir)
    return time.perf_counter() - started, config, db


def probe_setup(db_dir: Path) -> float:
    """Time one set-up in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--setup-probe", str(db_dir)],
        check=True, timeout=120, capture_output=True, text=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="scan-all benchmark")
    parser.add_argument("--workload", choices=("mixed", "names", "artifacts"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "slsa_audit" / "__init__.py").is_file():
        print(f"slsa_audit sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # load_config() with no path reads this variable; the benchmark uses defaults.
    os.environ.pop("SLSA_AUDIT_CONFIG", None)

    if args.setup_probe is not None:
        print(repr(set_up(args.setup_probe)[0]))
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    from oracle import Oracle

    data, db_dir = ensure_data(args.workload, args.seed)
    oracle = Oracle.from_ledger(json.loads((data / "ledger.json").read_text(encoding="utf-8")))
    corpus = data / "corpus"

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    setup_s, config, db = set_up(db_dir)
    setup_values = tracer.take() if tracer else {}
    setup_samples = [setup_s]
    if not args.trace:
        setup_samples += [probe_setup(db_dir) for _ in range(SETUP_PROBES)]

    from slsa_audit import report

    pass_times: list[float] = []
    layer_values: list[dict[str, float]] = []
    failed = 0
    wrong = 0
    first_digest = None
    deadline = time.perf_counter() + args.seconds
    # Whole passes only: stop when the next one would likely end past the deadline.
    while len(pass_times) < MIN_PASSES or time.perf_counter() + pass_times[-1] <= deadline:
        gc.collect()
        started = time.perf_counter()
        try:
            run = report.scan_corpus(corpus, config, db)
            body = report.emit(run.report, "json")
        except Exception:
            pass_times.append(time.perf_counter() - started)
            traceback.print_exc()
            failed += 1
            if tracer:
                tracer.take()
            continue
        elapsed = time.perf_counter() - started
        pass_times.append(elapsed)
        if tracer:
            values = tracer.take()
            values["trace.audit_s"] = elapsed
            layer_values.append(values)
        try:
            problems = oracle.check(body)
        except (ValueError, KeyError, TypeError) as exc:
            problems = [f"report does not have the expected shape: {exc!r}"]
        digest = hashlib.sha256(body).hexdigest()
        first_digest = first_digest or digest
        if digest != first_digest:
            problems.append("report bytes differ from the first pass")
        if problems:
            failed += 1
            wrong += 1
            for line in problems[:10]:
                print(f"pass {len(pass_times)}: {line}", file=sys.stderr)
        del run, body

    if tracer:
        tracer.restore()
        timed = layer_values[1:] or layer_values or [{}]
        metrics = {}
        for name, unit in tracing.PER_LAYER:
            if name in setup_values:
                value = setup_values[name]
            else:
                value = statistics.median(v.get(name, 0.0) for v in timed)
            metrics[name] = {"value": value, "unit": unit}
    else:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            "audit_s": {"value": statistics.median(pass_times[1:]), "unit": "s"},
            "peak_rss_mb": {"value": peak_kib / 1024, "unit": "MiB"},
        }
    print(f"workload {args.workload} seed {args.seed}: set-up samples "
          f"{[round(t, 3) for t in setup_samples]}, pass times {[round(t, 3) for t in pass_times]}",
          file=sys.stderr)
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": len(pass_times),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
