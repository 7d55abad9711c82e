"""Quick self-test of the benchmark: generator, oracle and tracer.

Collected by the root pytest run, so it stays within a few seconds: the
corpora here are shrunk versions of the benchmark's own.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import corpus
import tracing
from oracle import Oracle

HERE = Path(__file__).resolve().parent


def test_version_ranges():
    assert corpus.version_key("1.0.1") < corpus.version_key("1.0.1f") < corpus.version_key("1.0.1g")
    assert corpus.version_key("2.0") == corpus.version_key("2.0.0")
    fixed = [{"introduced": "0"}, {"fixed": "4.17.12"}]
    assert corpus.affected("4.17.11", fixed) and not corpus.affected("4.17.12", fixed)
    last = [{"introduced": "1.2.0"}, {"last_affected": "1.3.0"}]
    assert corpus.affected("1.3.0", last) and not corpus.affected("1.1.9", last)
    reopened = [{"introduced": "0"}, {"fixed": "1.0.0"}, {"introduced": "2.0.0"}]
    assert corpus.affected("0.9.0", reopened) and corpus.affected("9.0.0", reopened)
    assert not corpus.affected("1.5.0", reopened)


def test_osa_reference():
    assert corpus.osa("ab", "ba") == 1
    assert corpus.osa("ca", "abc") == 3
    assert corpus.osa("lodash", "lodahs") == 1
    assert corpus.osa("", "abc") == 3


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_small_corpus_passes_the_oracle(workload, tmp_path, monkeypatch):
    from slsa_audit import report, vulnscan

    monkeypatch.setattr(corpus, "DB_ADVISORIES", 300)
    monkeypatch.setattr(corpus, "MIXED_COMPONENTS", 24)
    monkeypatch.setattr(corpus, "NAMES_COMPONENTS", 30)
    monkeypatch.setattr(corpus, "ARTIFACT_COMPONENTS", 3)
    corpus.generate(5, workload, tmp_path / "data", tmp_path / "db")
    ledger = json.loads((tmp_path / "data" / "ledger.json").read_text(encoding="utf-8"))
    oracle = Oracle.from_ledger(ledger)
    db = vulnscan.load_advisory_db(tmp_path / "db")
    body = report.emit(report.scan_corpus(tmp_path / "data" / "corpus", db=db).report, "json")
    assert oracle.check(body) == []
    if workload == "names":
        assert ledger["v5"]["near_pairs"] and ledger["v5"]["collisions"]

    # A wrong count, a lost signature and an uncovered near pair are caught.
    doc = json.loads(body)
    for item in doc["components"]:
        item["vuln_count"] += 1
        item["findings"] = [f for f in item["findings"] if f["vector"] not in ("V2", "V5")]
    problems = oracle.check(json.dumps(doc).encode())
    assert any("vuln_count" in p for p in problems)
    if workload == "names":
        assert any("near pair" in p for p in problems)
    if workload == "artifacts":
        assert any(": V2 " in p for p in problems)


def test_tracer_counts_outermost_calls_once():
    module = types.SimpleNamespace()

    def walk(depth):
        return [depth] if depth == 0 else [depth] + module.walk(depth - 1)

    module.walk = walk
    tracer = tracing.Tracer()
    tracer.wrap(module, "walk", "walk_s", calls="walk.calls", counts={"walk.items": len})
    tracer.wrap(module, "absent", "absent_s")
    assert module.walk(3) == [3, 2, 1, 0]
    values = tracer.take()
    assert values["walk.calls"] == 1 and values["walk.items"] == 4 and values["walk_s"] > 0
    tracer.restore()
    assert module.walk is walk


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "names", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""
