"""The per-run analysis memo of `report.scan_corpus`: each distinct V2, V3
and V4 file is analysed once per call, and every component still gets the
findings and notices it would get alone. Also the component-file reader the
memo hashes, under a file swapped after the listing."""
from __future__ import annotations

import functools
import hashlib
import os
import re
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slsa_audit import archive, dockerlint, iaclint, report, vulnscan
from slsa_audit.archive import ArchiveFormat, pack_entries
from slsa_audit.config import AuditConfig
from slsa_audit.demo import build_demo_corpus, build_demo_db
from slsa_audit.ingest import decode_text, parse_manifest, serialize_manifest
from slsa_audit.model import AttackVector, ComponentRef, Repository
from slsa_audit.report import scan_corpus

_V1_TO_V4 = AuditConfig(enabled_vectors=frozenset(AttackVector) - {AttackVector.V5})
_RENAMED = ("bluefin__etl-serverless", 1, "iac/template.yaml", "iac/renamed.yaml")
_CHANGED = ("acme__iac-library-serverless", 2, "iac/main.tf", b"public-read", b"public-reaD")
_NOTED = "cloudkite__thumbnail-service"


def _copy_component(src: Path, corpus: Path, publisher: str) -> Path:
    """The component at ``src`` copied into ``corpus`` under ``publisher``."""
    ref, metadata = parse_manifest("component.meta", (src / "component.meta").read_text())
    copy = ComponentRef(ref.repository, publisher, ref.name, ref.version)
    dest = corpus / copy.slug
    shutil.copytree(src, dest, symlinks=True)
    (dest / "component.meta").write_text(serialize_manifest(copy, metadata))
    return dest


def _demo_with_copies(corpus: Path, copies: int = 3) -> Path:
    """The demo corpus plus ``copies`` copies of each component under other
    publishers. In copy 1 of one component a template is renamed, and in
    copy 2 of another a template differs by one byte. One component also
    has files that give V2, V3 and V4 notices."""
    build_demo_corpus(corpus)
    noted = corpus / _NOTED
    (noted / "archives").mkdir()
    cut_zip = pack_entries([("a.txt", b"hello")], ArchiveFormat.ZIP)[:30]
    (noted / "archives" / "outer.zip").write_bytes(
        pack_entries([("inner.zip", cut_zip)], ArchiveFormat.ZIP)
    )
    (noted / "archives" / "notes.txt").write_text("not an archive\n")
    (noted / "run_commands.txt").write_bytes(
        b"docker run --privileged img\xff\ndocker run -e X='broken\n"
    )
    (noted / "iac" / "bad.yaml").write_text("Resources: [\n")
    (noted / "iac" / "undet.yaml").write_bytes(
        b"# \xfe\nParameters:\n  Acl: {Type: String}\nResources:\n  B:\n"
        b"    Type: AWS::S3::Bucket\n    Properties:\n      AccessControl: !Ref Acl\n"
    )
    for src in sorted(corpus.iterdir()):
        publisher = src.name.partition("__")[0]
        for k in range(1, copies + 1):
            dest = _copy_component(src, corpus, f"{publisher}-copy{k}")
            if (src.name, k) == _RENAMED[:2]:
                (dest / _RENAMED[2]).rename(dest / _RENAMED[3])
            if (src.name, k) == _CHANGED[:2]:
                template = dest / _CHANGED[2]
                data = template.read_bytes()
                assert data.count(_CHANGED[3]) == 1
                template.write_bytes(data.replace(_CHANGED[3], _CHANGED[4]))
    return corpus


def _by_component(notices: list[str]) -> dict[str, list[str]]:
    grouped: dict[str, list[str]] = {}
    for notice in notices:
        grouped.setdefault(re.match(r"[^/:]*", notice).group(), []).append(notice)
    return grouped


@pytest.fixture(scope="module")
def copied(tmp_path_factory):
    root = tmp_path_factory.mktemp("memo")
    corpus = _demo_with_copies(root / "corpus")
    db = vulnscan.load_advisory_db(build_demo_db(root / "db"))
    # Each component scanned in a corpus of its own, with no memo to share.
    alone = {}
    for component in sorted(corpus.iterdir()):
        single = root / "single" / component.name
        shutil.copytree(component, single / component.name, symlinks=True)
        run = scan_corpus(single, _V1_TO_V4, db)
        (ref,) = run.report.per_component
        alone[ref] = (run.report.per_component[ref], run.report.vuln_counts[ref], run.notices)
    return corpus, db, alone


@pytest.mark.parametrize("forked", [False, True])
def test_each_component_gets_what_it_gets_alone(copied, monkeypatch, forked_pids, forked):
    corpus, db, alone = copied
    monkeypatch.setattr(report, "_FORK_MIN_BYTES", 0 if forked else 1 << 62)
    run = scan_corpus(corpus, _V1_TO_V4, db)
    assert run.archives["forked"] is forked and len(forked_pids) == forked
    notices = _by_component(run.notices)
    assert len(run.report.per_component) == len(alone) == 48
    for ref, (findings, vuln_count, own_notices) in alone.items():
        assert run.report.per_component[ref] == findings, ref.slug
        assert run.report.vuln_counts[ref] == vuln_count
        assert notices.get(ref.slug, []) == own_notices, ref.slug
    # Copies share files, so the memo served most of them; the renamed and
    # the changed template were analysed on their own.
    assert run.analysed == {
        "V2": {"files": 16, "distinct": 4},
        "V3": {"files": 16, "distinct": 4},
        "V4": {"files": 24, "distinct": 8},
    }
    copy = "cloudkite-copy3__thumbnail-service"
    assert [n.partition("/")[2].partition(":")[0] for n in notices[copy]] == [
        "archives/notes.txt", "archives/outer.zip", "run_commands.txt", "run_commands.txt#2",
        "iac/bad.yaml", "iac/undet.yaml", "iac/undet.yaml",
    ]
    changed = ComponentRef(Repository.GITHUB, "acme-copy2", "iac-library-serverless")
    original = ComponentRef(Repository.GITHUB, "acme", "iac-library-serverless")
    rules = {ref: {f.rule_id for f in run.report.per_component[ref]} for ref in (changed, original)}
    assert rules[original] - rules[changed] == {"IAC-S3-PUBLIC-ACL"}
    assert run.meta_dict()["analysed"] == run.analysed


def test_each_distinct_file_is_analysed_once_per_call(copied, monkeypatch):
    corpus, db, _ = copied
    monkeypatch.setattr(report, "_FORK_MIN_BYTES", 1 << 62)  # V2 in this process, counted here
    calls: dict[str, list[tuple[str, bytes]]] = {"extract": [], "docker": [], "iac": []}

    def digest(text: str) -> bytes:
        return hashlib.sha256(text.encode()).digest()

    def extract(path, *args, _real=archive.extract, **kwargs):
        rel = os.path.relpath(path, corpus).partition(os.sep)[2]
        calls["extract"].append((rel, hashlib.sha256(kwargs["data"]).digest()))
        return _real(path, *args, **kwargs)

    def lint_commands_text(text, *args, _real=dockerlint.lint_commands_text, **kwargs):
        calls["docker"].append((kwargs["source_name"], digest(text)))
        return _real(text, *args, **kwargs)

    def lint_template(rel, text, *args, _real=iaclint.lint_template, **kwargs):
        calls["iac"].append((rel, digest(text)))
        return _real(rel, text, *args, **kwargs)

    monkeypatch.setattr(archive, "extract", extract)
    monkeypatch.setattr(dockerlint, "lint_commands_text", lint_commands_text)
    monkeypatch.setattr(iaclint, "lint_template", lint_template)
    # The distinct (path, bytes) of each vector's files, read from disk here.
    files: dict[str, set[tuple[str, bytes]]] = {"extract": set(), "docker": set(), "iac": set()}
    for component in corpus.iterdir():
        for path in component.rglob("*"):
            rel = path.relative_to(component).as_posix()
            kind = {"archives": "extract", "iac": "iac", "run_commands.txt": "docker"}.get(
                rel.partition("/")[0]
            )
            if kind and path.is_file():
                data = path.read_bytes()
                # The linters get the text, the bytes decoded with U+FFFD.
                files[kind].add((rel, digest(decode_text(data, "replace")) if kind != "extract"
                                 else hashlib.sha256(data).digest()))
    assert [len(files[kind]) for kind in files] == [4, 4, 8]
    for passes in (1, 2):  # a second call analyses every file again: nothing outlives a call
        scan_corpus(corpus, _V1_TO_V4, db)
        for kind, seen in calls.items():
            assert len(seen) == passes * len(files[kind]), kind
            assert set(seen) == files[kind], kind


@functools.cache
def _demo_command_lines() -> tuple[bytes, ...]:
    """The line of each demo run_commands.txt, in corpus order."""
    with tempfile.TemporaryDirectory() as root:
        corpus = build_demo_corpus(Path(root) / "corpus")
        return tuple(
            path.read_bytes() for path in sorted(corpus.glob("*/run_commands.txt"))
        )


def _commands_corpus(root: Path, files: dict[str, bytes]) -> dict[str, ComponentRef]:
    refs = {}
    for publisher, data in files.items():
        ref = refs[publisher] = ComponentRef(Repository.DOCKER_HUB, publisher, "app")
        (root / ref.slug).mkdir(parents=True)
        (root / ref.slug / "component.meta").write_text(serialize_manifest(ref, {}))
        (root / ref.slug / "run_commands.txt").write_bytes(data)
    return refs


_V3 = AuditConfig(enabled_vectors=frozenset({AttackVector.V3}))


@settings(max_examples=60, deadline=None)
@given(
    line=st.integers(0, 2),
    offset=st.integers(0, 200),
    bad=st.sampled_from([b"\xff", b"\xfe", b"\x80", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80"]),
)
def test_one_bad_byte_hides_no_v3_finding_on_another_line_of_each_copy(line, offset, bad):
    lines = _demo_command_lines()
    assert len(lines) == 3 and all(lines)
    clean = b"".join(lines)
    cut = offset % len(lines[line].rstrip(b"\n"))
    corrupt = b"".join(
        text[:cut] + bad + text[cut:] if k == line else text for k, text in enumerate(lines)
    )
    with tempfile.TemporaryDirectory() as root:
        refs = _commands_corpus(Path(root) / "corpus", {"a": corrupt, "b": corrupt, "c": clean})
        run = scan_corpus(Path(root) / "corpus", _V3)
    # Commands are numbered among the docker run commands, so when the byte
    # breaks the line's `docker run` the commands after it move up by one.
    dropped = len(dockerlint.split_commands(decode_text(corrupt, "replace"))) < len(lines)

    def number(f) -> int:
        return int(f.location.rpartition("#")[2])

    expected = [
        (f.rule_id, f"run_commands.txt#{number(f) - (dropped and number(f) > line + 1)}", f.evidence)
        for f in run.report.per_component[refs["c"]] if number(f) != line + 1
    ]
    for publisher in "ab":
        assert [
            (f.rule_id, f.location, f.evidence) for f in run.report.per_component[refs[publisher]]
            if dropped or number(f) != line + 1
        ] == expected
    assert {f.location for f in run.report.per_component[refs["c"]]} == {
        f"run_commands.txt#{k}" for k in (1, 2, 3)
    }
    # b shares a's file, so it got a's notices from the memo, after its own slug.
    grouped = _by_component(run.notices)
    assert refs["c"].slug not in grouped
    assert "run_commands.txt: undecodable bytes replaced with U+FFFD" in [
        n.partition("/")[2] for n in grouped[refs["a"].slug]
    ]
    assert [n.partition("/")[2] for n in grouped[refs["a"].slug]] == [
        n.partition("/")[2] for n in grouped[refs["b"].slug]
    ]
    assert run.analysed == {"V3": {"files": 3, "distinct": 2}}


# One file of each kind a vector reads, and the outside content that would
# give a finding if the swapped file were followed.
_OUTSIDE = {
    "tree/requirements.txt": b"urllib3==1.25.8\n",
    "archives/bundle.zip": pack_entries(
        [("payload.bin", archive.EICAR_TEST_STRING)], ArchiveFormat.ZIP
    ),
    "iac/open.yaml": (
        b"Resources:\n  Open:\n    Type: AWS::S3::Bucket\n"
        b"    Properties:\n      AccessControl: PublicReadWrite\n"
    ),
    "run_commands.txt": b"docker run --privileged img\n",
}


@pytest.mark.parametrize("forked", [False, True])
def test_a_file_swapped_for_a_symlink_after_the_listing_is_not_followed(
    tmp_path, monkeypatch, forked_pids, forked
):
    monkeypatch.setattr(report, "_FORK_MIN_BYTES", 0 if forked else 1 << 62)
    outside = tmp_path / "outside"
    corpus = tmp_path / "corpus"
    ref = ComponentRef(Repository.GITHUB, "race", "app")
    component = corpus / ref.slug
    for rel, data in _OUTSIDE.items():
        (outside / rel).parent.mkdir(parents=True, exist_ok=True)
        (outside / rel).write_bytes(data)
        (component / rel).parent.mkdir(parents=True, exist_ok=True)
        (component / rel).write_text("harmless\n")
    (component / "component.meta").write_text(serialize_manifest(ref, {}))
    db = vulnscan.load_advisory_db(build_demo_db(tmp_path / "db"))
    swapped: list[str] = []

    def swap(rel: str) -> None:
        (component / rel).unlink()
        (component / rel).symlink_to(outside / rel)
        swapped.append(rel)

    def walk_files(root, notices=None, prefix="", _real=report.walk_files):
        listed = _real(root, notices, prefix)
        for rel in listed:
            if rel in _OUTSIDE:
                swap(rel)
        return listed

    def load(root, _real=report.load_corpus):
        result = _real(root)
        swap("run_commands.txt")
        return result

    monkeypatch.setattr(report, "walk_files", walk_files)
    monkeypatch.setattr(report, "load_corpus", load)
    read: list[str] = []
    real_read = os.read
    opened: dict[int, str] = {}
    real_open = os.open

    def recording_open(path, *args, **kwargs):
        fd = real_open(path, *args, **kwargs)
        opened[fd] = os.path.realpath(path)
        return fd

    def recording_read(fd, n):
        read.append(opened.get(fd, ""))
        return real_read(fd, n)

    monkeypatch.setattr(os, "open", recording_open)
    monkeypatch.setattr(os, "read", recording_read)
    run = scan_corpus(corpus, _V1_TO_V4, db)
    monkeypatch.undo()
    assert sorted(swapped) == sorted(_OUTSIDE)
    assert run.report.per_component[ref] == []
    assert sorted(run.notices) == sorted(
        f"{ref.slug}/{rel}: not a regular file (symlink); skipped" for rel in _OUTSIDE
    )
    assert [path for path in read if path.startswith(str(outside))] == []
