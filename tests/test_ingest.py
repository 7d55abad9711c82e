"""Corpus loading and serverless filtering."""
from __future__ import annotations

import errno
import os
import stat
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slsa_audit import archive, report, vulnscan
from slsa_audit.cli import main
from slsa_audit.config import AuditConfig
from slsa_audit.demo import build_demo_db
from slsa_audit.ingest import (
    ArtifactKind,
    CorpusNotFoundError,
    ManifestParseError,
    is_serverless,
    load_corpus,
    parse_manifest,
    read_component_file,
    serialize_manifest,
    walk_files,
)
from slsa_audit.model import AttackVector, ComponentRef, Repository


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


# ---------------------------------------------------------------------------
# Awkward corpora
# ---------------------------------------------------------------------------


def _awkward_corpus(tmp_path):
    """A corpus of the shapes a real crawl leaves behind, one per child."""
    root = tmp_path / "corpus"
    root.mkdir()
    target = _write_component(tmp_path / "outside", "alias", "linked", files={
        "tree/package-lock.json": '{"packages": {"node_modules/lodash": {"version": "4.17.11"}}}\n',
        "run_commands.txt": "docker run -v /var/run/docker.sock:/var/run/docker.sock img\n",
    })
    (root / "alias__linked").symlink_to(target, target_is_directory=True)
    (root / "dangling__link").symlink_to(tmp_path / "outside" / "missing")
    (root / "loop__link").symlink_to(root / "loop__link")
    _write_component(root, "p", "tree-file", files={"tree": "not a directory\n"})
    (_write_component(root, "p", "empty-archives") / "archives").mkdir()
    _write_component(root, "p", "image-only", files={"image/layer.tar": "layer\n"})
    (_write_component(root, "p", "commands-dir") / "run_commands.txt").mkdir()
    (root / "stray.txt").write_text("not a component\n")
    (root / "p__no-meta" / "tree").mkdir(parents=True)
    (root / "p__no-meta" / "tree" / "app.py").write_text("print('hi')\n")
    (root / "p__bad-utf8").mkdir()
    (root / "p__bad-utf8" / "component.meta").write_bytes(
        b"repository=dockerhub\npublisher=p\nname=caf\xe9\n"
    )
    (root / "p__malformed").mkdir()
    (root / "p__malformed" / "component.meta").write_text("repository=dockerhub\nname=malformed\n")
    return root


_AWKWARD_ERRORS = [
    "p__bad-utf8/component.meta: not UTF-8: 'utf-8' codec can't decode byte 0xe9 "
    "in position 41: invalid continuation byte",
    "p__malformed/component.meta: missing required key 'publisher'",
]


def test_awkward_corpus_entries_kinds_and_errors(tmp_path):
    root = _awkward_corpus(tmp_path)
    result = load_corpus(root)
    assert [
        (e.root_path.name, e.ref.slug, e.metadata, e.artifact_kind, e.parts)
        for e in result.entries
    ] == [
        ("alias__linked", "alias__linked", {}, ArtifactKind.SOURCE_TREE,
         frozenset({"tree", "run_commands.txt"})),
        ("p__commands-dir", "p__commands-dir", {}, ArtifactKind.SOURCE_TREE, frozenset()),
        ("p__empty-archives", "p__empty-archives", {}, ArtifactKind.SOURCE_TREE,
         frozenset({"archives"})),
        ("p__image-only", "p__image-only", {}, ArtifactKind.IMAGE_LAYOUT, frozenset({"image"})),
        ("p__tree-file", "p__tree-file", {}, ArtifactKind.SOURCE_TREE, frozenset()),
    ]
    assert all(e.root_path.parent == root for e in result.entries)
    assert [str(error) for error in result.errors] == _AWKWARD_ERRORS
    assert [error.path for error in result.errors] == [
        "p__bad-utf8/component.meta", "p__malformed/component.meta",
    ]


def test_awkward_corpus_ingest_and_scan_all_output(tmp_path, capsys):
    root = _awkward_corpus(tmp_path)
    db = build_demo_db(tmp_path / "db")
    errors = "".join(f"error: {error}\n" for error in _AWKWARD_ERRORS)
    notices = "".join(f"notice: {error}\n" for error in _AWKWARD_ERRORS)

    assert main(["ingest", "--root", str(root)]) == 0
    assert capsys.readouterr() == (
        "dockerhub/alias/linked  [SourceTree]\n"
        "dockerhub/p/commands-dir  [SourceTree]\n"
        "dockerhub/p/empty-archives  [SourceTree]\n"
        "dockerhub/p/image-only  [ImageLayout]\n"
        "dockerhub/p/tree-file  [SourceTree]\n",
        errors + "5 component(s), 2 manifest error(s)\n",
    )

    assert main(["scan-all", "--corpus", str(root), "--db", str(db)]) == 0
    assert capsys.readouterr() == (
        "corpus: corpus\n"
        "components: 5    findings: 2\n"
        "vulns/component: mean 0.2  median 0.0  max 1  min 0  stddev 0.4\n"
        "severity: Critical 2  High 0  Medium 0  Low 0  Unknown 0\n"
        "cdf: <=0: 0.80  <=1: 1.00  <=10: 1.00  <=100: 1.00  <=1000: 1.00  <=10000: 1.00\n"
        "\n"
        "component                                    vulns  findings\n"
        "------------------------------------------------------------\n"
        "dockerhub/alias/linked                           1         2\n"
        "dockerhub/p/commands-dir                         0         0\n"
        "dockerhub/p/empty-archives                       0         0\n"
        "dockerhub/p/image-only                           0         0\n"
        "dockerhub/p/tree-file                            0         0\n"
        "[Critical] V1-CVE-2019-10744        alias__linked:tree/package-lock.json\n"
        "[Critical] V3-DOCKER-SOCK           alias__linked:run_commands.txt#1\n",
        notices,
    )


# ---------------------------------------------------------------------------
# Filesystem calls (a structural guard: counts, no timing)
# ---------------------------------------------------------------------------


def _count_calls(monkeypatch, name: str) -> list[str]:
    """Record the path of every os.<name> call from here on."""
    calls: list[str] = []
    real = getattr(os, name)

    def counted(path, *args, **kwargs):
        calls.append(os.fspath(path))
        return real(path, *args, **kwargs)

    monkeypatch.setattr(os, name, counted)
    return calls


def test_load_corpus_lists_each_component_directory_once(tmp_path, monkeypatch):
    root = _awkward_corpus(tmp_path)
    listed = _count_calls(monkeypatch, "scandir")
    load_corpus(root)
    # The root, every child directory (symlinked ones too), and tree/ or
    # archives/ where the artifact kind needs to know they are non-empty.
    assert sorted(os.path.relpath(path, root) for path in listed) == [
        ".",
        "alias__linked",
        "alias__linked/tree",
        "p__bad-utf8",
        "p__commands-dir",
        "p__empty-archives",
        "p__empty-archives/archives",
        "p__image-only",
        "p__malformed",
        "p__no-meta",
        "p__tree-file",
    ]


def test_meta_only_component_scans_touch_no_file(tmp_path, monkeypatch):
    _write_component(tmp_path, "pub", "bare")
    (entry,) = load_corpus(tmp_path).entries
    assert entry.parts == frozenset()
    config = AuditConfig()
    listed = _count_calls(monkeypatch, "scandir")
    stats = _count_calls(monkeypatch, "stat")
    scan = report.ComponentScan(entry, config)
    assert (report.scan_vuln(scan), scan.vuln_count) == ([], 0)
    assert report.scan_archives(scan) == []
    assert report.scan_docker(scan) == []
    assert report.scan_iac(scan) == []
    assert (listed, stats, scan.notices) == ([], [], [])


# ---------------------------------------------------------------------------
# The one walker (a reference built apart from it)
# ---------------------------------------------------------------------------


_NAMES = st.sampled_from(["a", "b", "a-b", "a.b", "ab", "B", "é"])
_LINKS = ("link-sibling", "link-root", "link-outside-file", "link-outside-dir", "dangling")
_LEAVES = st.sampled_from(("file", "fifo", *_LINKS))
_TREES = st.dictionaries(_NAMES, st.recursive(
    _LEAVES, lambda inner: st.dictionaries(_NAMES, inner, max_size=4), max_leaves=14
), max_size=5)


def _build_tree(directory: Path, tree: dict, root: Path, outside: Path) -> None:
    """Nested directories, regular files and FIFOs, and symlinks to a
    sibling name, to the root, out of it, and to nothing."""
    directory.mkdir()
    for name, node in tree.items():
        path = directory / name
        if isinstance(node, dict):
            _build_tree(path, node, root, outside)
        elif node == "file":
            path.write_bytes(b"x")
        elif node == "fifo":
            os.mkfifo(path)
        else:
            path.symlink_to({
                "link-sibling": "a", "link-root": root, "link-outside-file": outside / "file",
                "link-outside-dir": outside, "dangling": outside / "missing",
            }[node])


def _reference_walk(root: str, prefix: str) -> tuple[list[str], list[str]]:
    """The files and notices of walk_files, from ``os.walk`` without
    following links and ``os.lstat`` of each entry it lists."""
    files, skipped = [], []
    for directory, dirnames, filenames in os.walk(root, followlinks=False):
        below = os.path.relpath(directory, root)
        parts = () if below == "." else tuple(below.split(os.sep))
        for name in dirnames + filenames:
            mode = os.lstat(os.path.join(directory, name)).st_mode
            if stat.S_ISREG(mode):
                files.append((*parts, name))
            elif not stat.S_ISDIR(mode):  # a real directory is walked by os.walk
                kind = "symlink" if stat.S_ISLNK(mode) else (
                    "FIFO" if stat.S_ISFIFO(mode) else "special file")
                rel = prefix + "/".join((*parts, name))
                skipped.append(((*parts, name), f"{rel}: not a regular file ({kind}); skipped"))
    return [prefix + "/".join(p) for p in sorted(files)], [n for _, n in sorted(skipped)]


@settings(max_examples=150, deadline=None)
@given(tree=_TREES, prefix=st.sampled_from(["", "tree/"]))
def test_walk_files_equals_an_os_walk_reference(tree, prefix):
    with tempfile.TemporaryDirectory() as scratch:
        root, outside = Path(scratch, "root"), Path(scratch, "outside")
        (outside / "dir").mkdir(parents=True)
        (outside / "file").write_bytes(b"outside")
        _build_tree(root, tree, root, outside)
        notices: list[str] = []
        files = walk_files(root, notices, prefix)
        assert (files, notices) == _reference_walk(str(root), prefix)
        assert walk_files(root, None, prefix) == files
        if not any(leaf in repr(tree) for leaf in _LINKS):
            # The order tree_files gave: sorted Path objects, as rglob lists them.
            old = [prefix + p.relative_to(root).as_posix() for p in sorted(root.rglob("*"))
                   if p.is_file()]
            assert files == old


def test_walk_files_names_a_directory_it_cannot_list(tmp_path, monkeypatch):
    (tmp_path / "tree" / "sub").mkdir(parents=True)
    (tmp_path / "tree" / "a.txt").write_text("a")
    (tmp_path / "tree" / "sub" / "b.txt").write_text("b")
    scandir = os.scandir

    def failing_scandir(path="."):
        if os.fspath(path).endswith("sub"):
            raise PermissionError(13, "Permission denied", path)
        return scandir(path)

    monkeypatch.setattr(os, "scandir", failing_scandir)
    notices: list[str] = []
    assert walk_files(tmp_path / "tree", notices, "tree/") == ["tree/a.txt"]
    assert notices == ["tree/sub: cannot list: Permission denied"]
    assert walk_files(tmp_path / "missing", notices) == []
    assert notices[1:] == [".: cannot list: No such file or directory"]


# ---------------------------------------------------------------------------
# Parts are not followed either
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("forked", [False, True])
def test_a_symlinked_or_special_part_is_skipped_with_one_notice_from_its_vector(
    tmp_path, monkeypatch, forked
):
    root = tmp_path / "corpus"
    outside = _write_component(tmp_path / "outside", "out", "side", files={
        "tree/package.json": '{"dependencies": {"lodash": "4.17.11"}}\n',
        "iac/stack.yaml": "Resources:\n  B:\n    Type: AWS::S3::Bucket\n"
                          "    Properties:\n      AccessControl: PublicReadWrite\n",
    })
    (outside / "archives").mkdir()
    eicar = archive.pack_entries([("eicar.com", archive.EICAR_TEST_STRING)], archive.ArchiveFormat.ZIP)
    (outside / "archives" / "bundle.zip").write_bytes(eicar)
    component = _write_component(root, "p", "linked-parts")
    for part in ("tree", "archives", "iac"):
        (component / part).symlink_to(outside / part)
    os.mkfifo(component / "run_commands.txt")  # a read would block
    (_write_component(root, "q", "own-archive") / "archives").mkdir()
    (root / "q__own-archive" / "archives" / "own.zip").write_bytes(eicar)
    entry = load_corpus(root).entries[0]
    assert entry.parts == frozenset()
    assert entry.skipped_parts == {
        "archives": "archives: not a regular file (symlink); skipped",
        "iac": "iac: not a regular file (symlink); skipped",
        "run_commands.txt": "run_commands.txt: not a regular file (FIFO); skipped",
        "tree": "tree: not a regular file (symlink); skipped",
    }
    monkeypatch.setattr(report, "_FORK_MIN_BYTES", 0 if forked else 1 << 62)
    db = vulnscan.load_advisory_db(build_demo_db(tmp_path / "db"))
    run = report.scan_corpus(root, db=db)
    assert run.archives["forked"] is forked
    assert [
        (f.component.slug, f.location) for f in run.report.all_findings()
        if f.vector is not AttackVector.V5
    ] == [
        ("q__own-archive", "archives/own.zip!eicar.com")
    ]
    assert run.notices == [
        f"p__linked-parts/{entry.skipped_parts[part]}"
        for part in ("tree", "archives", "run_commands.txt", "iac")  # V1, V2, V3, V4
    ]
    only_v3 = report.scan_corpus(root, AuditConfig(enabled_vectors=frozenset({AttackVector.V3})))
    assert only_v3.notices == ["p__linked-parts/run_commands.txt: not a regular file (FIFO); skipped"]


def _read_in_a_thread(path, rel):
    """read_component_file of ``path`` in a daemon thread, so a read that
    blocks fails the test instead of hanging it."""
    notices: list[str] = []
    result = []
    reader = threading.Thread(
        target=lambda: result.append(read_component_file(str(path), rel, notices)), daemon=True
    )
    reader.start()
    reader.join(10)
    assert not reader.is_alive(), "the read blocked"
    return result[0], notices


def test_read_component_file_reads_only_a_regular_file(tmp_path):
    outside = tmp_path / "outside.txt"
    outside.write_bytes(b"outside\n")
    (tmp_path / "regular").write_bytes(b"a\r\nb\xff")
    (tmp_path / "link").symlink_to(outside)
    (tmp_path / "dangling").symlink_to(tmp_path / "missing")
    os.mkfifo(tmp_path / "fifo")  # no writer: opening it for a read without O_NONBLOCK blocks
    (tmp_path / "directory").mkdir()
    assert _read_in_a_thread(tmp_path / "regular", "regular") == (b"a\r\nb\xff", [])
    for rel, kind in (("link", "symlink"), ("dangling", "symlink"), ("fifo", "FIFO")):
        assert _read_in_a_thread(tmp_path / rel, rel) == (
            None, [f"{rel}: not a regular file ({kind}); skipped"]
        )
    assert _read_in_a_thread(tmp_path / "directory", "directory") == (
        None, [f"directory: cannot read: {os.strerror(errno.EISDIR)}"]
    )
    assert _read_in_a_thread(tmp_path / "missing", "missing") == (
        None, [f"missing: cannot read: {os.strerror(errno.ENOENT)}"]
    )
    if os.path.exists(os.devnull) and stat.S_ISCHR(os.stat(os.devnull).st_mode):
        assert _read_in_a_thread(os.devnull, "null") == (
            None, ["null: not a regular file (special file); skipped"]
        )
