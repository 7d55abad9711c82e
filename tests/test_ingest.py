"""Corpus loading and serverless filtering."""
from __future__ import annotations

import pytest

from slsa_audit.ingest import (
    ArtifactKind,
    CorpusNotFoundError,
    ManifestParseError,
    is_serverless,
    load_corpus,
    parse_manifest,
    serialize_manifest,
)
from slsa_audit.model import ComponentRef, Repository


def _write_component(root, publisher, name, repository="dockerhub", version="", extra="", files=None):
    directory = root / f"{publisher}__{name}"
    directory.mkdir(parents=True)
    lines = [f"repository={repository}", f"publisher={publisher}", f"name={name}"]
    if version:
        lines.append(f"version={version}")
    manifest = "\n".join(lines) + ("\n" + extra if extra else "") + "\n"
    (directory / "component.meta").write_text(manifest)
    for rel, content in (files or {}).items():
        path = directory / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(content)
    return directory


def test_load_empty_corpus(tmp_path):
    result = load_corpus(tmp_path)
    assert result.entries == [] and result.errors == []


def test_load_missing_root(tmp_path):
    with pytest.raises(CorpusNotFoundError):
        load_corpus(tmp_path / "nope")


def test_load_three_valid(tmp_path):
    for i in range(3):
        _write_component(tmp_path, f"pub{i}", f"comp{i}")
    result = load_corpus(tmp_path)
    assert len(result.entries) == 3 and result.errors == []


def test_load_partitions_valid_and_malformed(tmp_path):
    _write_component(tmp_path, "good1", "a")
    _write_component(tmp_path, "good2", "b")
    bad = tmp_path / "bad__c"
    bad.mkdir()
    (bad / "component.meta").write_text("repository=dockerhub\nname=c\n")  # publisher missing
    result = load_corpus(tmp_path)
    assert len(result.entries) == 2
    assert len(result.errors) == 1
    assert "publisher" in str(result.errors[0])


def test_manifest_rejects_bad_keys():
    with pytest.raises(ManifestParseError, match="lowercase"):
        parse_manifest("m", "Repository=dockerhub\npublisher=p\nname=n\n")
    with pytest.raises(ManifestParseError, match="key=value"):
        parse_manifest("m", "repository dockerhub\n")
    with pytest.raises(ManifestParseError, match="duplicate"):
        parse_manifest("m", "repository=dockerhub\nrepository=github\npublisher=p\nname=n\n")
    with pytest.raises(ManifestParseError, match="unknown repository"):
        parse_manifest("m", "repository=launchpad\npublisher=p\nname=n\n")


def test_manifest_round_trip_byte_identical():
    ref = ComponentRef(Repository.GITHUB, "pub", "name", "2.0")
    metadata = {"github_url": "https://github.com/pub/name", "pull_command": "git clone ..."}
    text = serialize_manifest(ref, metadata)
    parsed_ref, parsed_meta = parse_manifest("m", text)
    assert (parsed_ref, parsed_meta) == (ref, metadata)
    assert serialize_manifest(parsed_ref, parsed_meta) == text


def test_artifact_kind_detection(tmp_path):
    _write_component(tmp_path, "p1", "src", files={"tree/app.py": "x"})
    _write_component(tmp_path, "p2", "arch", files={"archives/a.zip": "x"})
    _write_component(tmp_path, "p3", "bare")
    entries = {e.ref.publisher: e for e in load_corpus(tmp_path).entries}
    assert entries["p1"].artifact_kind is ArtifactKind.SOURCE_TREE
    assert entries["p2"].artifact_kind is ArtifactKind.ARCHIVE
    assert entries["p3"].artifact_kind is ArtifactKind.SOURCE_TREE


# ---------------------------------------------------------------------------
# Serverless filter
# ---------------------------------------------------------------------------


def test_serverless_by_yml_at_root(tmp_path):
    _write_component(tmp_path, "pub", "redis-cache", files={"tree/serverless.yml": "service: x"})
    entry = load_corpus(tmp_path).entries[0]
    assert is_serverless(entry)


def test_serverless_by_nested_yml(tmp_path):
    _write_component(tmp_path, "pub", "redis-cache", files={"tree/deep/dir/serverless.yml": "x"})
    entry = load_corpus(tmp_path).entries[0]
    assert is_serverless(entry)


def test_not_serverless_without_signals(tmp_path):
    _write_component(tmp_path, "pub", "redis-cache", files={"tree/app.py": "x"})
    entry = load_corpus(tmp_path).entries[0]
    assert not is_serverless(entry)


def test_serverless_by_keyword_case_insensitive(tmp_path):
    _write_component(tmp_path, "pub", "My-Serverless-Fn")
    entry = load_corpus(tmp_path).entries[0]
    assert is_serverless(entry)


def test_serverless_by_metadata_keyword(tmp_path):
    _write_component(tmp_path, "pub", "worker", extra="description=a SERVERLESS runtime")
    entry = load_corpus(tmp_path).entries[0]
    assert is_serverless(entry)


def test_filter_flips_when_yml_removed(tmp_path):
    directory = _write_component(
        tmp_path, "pub", "plain-worker", files={"tree/serverless.yml": "x"}
    )
    entry = load_corpus(tmp_path).entries[0]
    assert is_serverless(entry)
    (directory / "tree" / "serverless.yml").unlink()
    assert not is_serverless(load_corpus(tmp_path).entries[0])
