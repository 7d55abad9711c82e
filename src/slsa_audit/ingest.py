"""Corpus loading and serverless filtering.

A corpus is a directory with one subdirectory per component:

    <root>/<publisher>__<name>/
        component.meta      key=value manifest (see parse_manifest)
        tree/               source files
        archives/           compressed artifacts
        iac/                templates
        run_commands.txt    docker run commands, one per logical line
"""
from __future__ import annotations

import errno
import os
import stat
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

from slsa_audit.model import AuditError, ComponentRef, Repository


class CorpusNotFoundError(AuditError, FileNotFoundError):
    pass


class ManifestParseError(AuditError, ValueError):
    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


class ArtifactKind(Enum):
    SOURCE_TREE = "SourceTree"
    ARCHIVE = "Archive"
    IMAGE_LAYOUT = "ImageLayout"


_MANIFEST_NAME = "component.meta"
_CORE_KEYS = ("repository", "publisher", "name", "version")


@dataclass
class CorpusEntry:
    """One component on disk plus its manifest metadata.

    ``parts`` names which of ``tree``, ``archives``, ``iac`` and ``image``
    (directories) and ``run_commands.txt`` (a file) the component has, as
    `load_corpus` found them; the scanners skip an absent part.
    ``skipped_parts`` holds, by part name, the `walk_files` notice of a
    part that is a symlink, FIFO or special file, which its scanner gives.
    """

    ref: ComponentRef
    root_path: Path
    metadata: dict[str, str]
    artifact_kind: ArtifactKind
    parts: frozenset[str]
    skipped_parts: dict[str, str] = field(default_factory=dict)


@dataclass
class CorpusLoadResult:
    entries: list[CorpusEntry] = field(default_factory=list)
    errors: list[ManifestParseError] = field(default_factory=list)


def parse_manifest(path: str, text: str) -> tuple[ComponentRef, dict[str, str]]:
    """Parse a component.meta manifest (key=value lines, # comments)."""
    fields: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ManifestParseError(path, f"line {lineno}: expected key=value")
        key, _, value = line.partition("=")
        key = key.strip()
        if not key or not all(c.islower() or c.isdigit() or c == "_" for c in key):
            raise ManifestParseError(path, f"line {lineno}: keys must be lowercase ASCII")
        if key in fields:
            raise ManifestParseError(path, f"line {lineno}: duplicate key {key!r}")
        fields[key] = value.strip()
    for required in ("repository", "publisher", "name"):
        if not fields.get(required):
            raise ManifestParseError(path, f"missing required key {required!r}")
    try:
        repository = Repository.parse(fields["repository"])
    except ValueError as exc:
        raise ManifestParseError(path, str(exc)) from exc
    ref = ComponentRef(
        repository=repository,
        publisher=fields["publisher"],
        name=fields["name"],
        version=fields.get("version") or None,
    )
    metadata = {k: v for k, v in fields.items() if k not in _CORE_KEYS}
    return ref, metadata


def serialize_manifest(ref: ComponentRef, metadata: dict[str, str]) -> str:
    """Canonical manifest form: core keys first, metadata keys sorted.

    parse_manifest(serialize_manifest(...)) round-trips byte-identically
    for manifests written by this function.
    """
    lines = [
        f"repository={ref.repository.value}",
        f"publisher={ref.publisher}",
        f"name={ref.name}",
    ]
    if ref.version:
        lines.append(f"version={ref.version}")
    for key in sorted(metadata):
        lines.append(f"{key}={metadata[key]}")
    return "\n".join(lines) + "\n"


# The errors that pathlib's is_dir and is_file read as "no": a missing
# target, a file on the way, a bad descriptor, a symlink loop.
_NOT_THERE = (errno.ENOENT, errno.ENOTDIR, errno.EBADF, errno.ELOOP)


def _is(entry: os.DirEntry, test) -> bool:
    """``test(entry)``, symlinks followed, with pathlib's reading of errors."""
    try:
        return test(entry)
    except OSError as exc:
        if exc.errno in _NOT_THERE:
            return False
        raise


# A component's optional parts, each with whether it must be a directory
# (else a regular file).
_PARTS = {"tree": True, "archives": True, "iac": True, "image": True, "run_commands.txt": False}


def _has_children(path: str) -> bool:
    with os.scandir(path) as it:
        return any(it)


def load_corpus(root: str | Path) -> CorpusLoadResult:
    """Load every component under a corpus root.

    Invalid manifests become error records in the result instead of being
    silently dropped; a missing root raises. The root is listed once and
    each component directory once; ``tree/`` and ``archives/`` are listed
    only to tell the artifact kind. A component directory and its
    ``component.meta`` may be symlinks; a part is told by the type its
    listing gives, without following symlinks, and one that is neither a
    directory nor a regular file is a skipped part (`CorpusEntry`).
    """
    root_path = Path(root)
    if not root_path.is_dir():
        raise CorpusNotFoundError(f"corpus root not found: {root_path}")
    with os.scandir(root_path) as it:
        children = sorted(
            (child for child in it if _is(child, os.DirEntry.is_dir)), key=lambda c: c.name
        )
    result = CorpusLoadResult()
    for child in children:
        with os.scandir(child.path) as it:
            listing = {item.name: item for item in it}
        manifest = listing.get(_MANIFEST_NAME)
        if manifest is None or not _is(manifest, os.DirEntry.is_file):
            continue
        rel = f"{child.name}/{_MANIFEST_NAME}"
        try:
            ref, metadata = parse_manifest(rel, decode_text(read_file(manifest.path)))
        except OSError as exc:
            result.errors.append(ManifestParseError(rel, f"cannot read: {exc.strerror or exc}"))
            continue
        except UnicodeDecodeError as exc:
            result.errors.append(ManifestParseError(rel, f"not UTF-8: {exc}"))
            continue
        except ManifestParseError as exc:
            result.errors.append(exc)
            continue
        parts, skipped = set(), {}
        for name in sorted(_PARTS.keys() & listing.keys()):
            item = listing[name]
            is_dir, is_file = item.is_dir(follow_symlinks=False), item.is_file(follow_symlinks=False)
            if is_dir if _PARTS[name] else is_file:
                parts.add(name)
            elif not (is_dir or is_file):
                skipped[name] = _skipped(name, item)
        if "tree" in parts and _has_children(listing["tree"].path):
            kind = ArtifactKind.SOURCE_TREE
        elif "archives" in parts and _has_children(listing["archives"].path):
            kind = ArtifactKind.ARCHIVE
        elif "image" in parts:
            kind = ArtifactKind.IMAGE_LAYOUT
        else:
            kind = ArtifactKind.SOURCE_TREE
        result.entries.append(CorpusEntry(
            ref=ref, root_path=root_path / child.name, metadata=metadata, artifact_kind=kind,
            parts=frozenset(parts), skipped_parts=skipped,
        ))
    return result


_READ_CHUNK = 1 << 16  # bytes per os.read; most component and advisory files are far smaller


def read_file(path: str) -> bytes:
    """A file's bytes, read without the objects a text-mode ``open`` builds.

    Advisory files, `iac --paths` templates, `archive scan` archives and
    each ``component.meta`` are read here. A symlink is followed: the user
    names the first three, and a corpus may link a component's manifest.
    An OSError names ``path``, also when ``os.read`` raises it (as for a
    directory).
    """
    fd = os.open(path, os.O_RDONLY)
    try:
        return _read_all(fd)
    except OSError as exc:
        exc.filename = path
        raise
    finally:
        os.close(fd)


def _read_all(fd: int) -> bytes:
    chunks = []
    while chunk := os.read(fd, _READ_CHUNK):
        chunks.append(chunk)
    return b"".join(chunks)


def read_component_file(path: str, rel: str, notices) -> bytes | None:
    """The bytes of the component file ``rel`` at ``path``, which
    `walk_files` or `load_corpus` listed as a regular file, or None with one
    notice. The file is opened without following a symlink or waiting for a
    FIFO's writer (``O_NOFOLLOW | O_NONBLOCK``) and read only when
    ``fstat`` finds a regular file. So a file swapped after the listing is
    neither followed nor read: it gives the walker's notice ``<rel>: not a
    regular file (symlink|FIFO|special file); skipped``. A directory, or
    any other failure, gives ``<rel>: cannot read: <reason>``. Every file
    V1-V4 read under a component is read here.
    """
    try:
        fd = os.open(path, os.O_RDONLY | os.O_NOFOLLOW | os.O_NONBLOCK)
    except OSError as exc:
        if exc.errno == errno.ELOOP:  # what O_NOFOLLOW gives for a symlink
            notices.append(_not_regular(rel, "symlink"))
        else:
            notices.append(f"{rel}: cannot read: {exc.strerror or exc}")
        return None
    try:
        mode = os.fstat(fd).st_mode
        if stat.S_ISREG(mode):
            return _read_all(fd)
        if stat.S_ISDIR(mode):
            notices.append(f"{rel}: cannot read: {os.strerror(errno.EISDIR)}")
        else:
            notices.append(_not_regular(rel, "FIFO" if stat.S_ISFIFO(mode) else "special file"))
    except OSError as exc:
        notices.append(f"{rel}: cannot read: {exc.strerror or exc}")
    finally:
        os.close(fd)
    return None


def decode_text(data: bytes, errors: str = "strict") -> str:
    """UTF-8 text with universal newlines, as a text-mode ``open`` and
    ``read`` give it: the bytes decode in one step, so replacement
    characters and UnicodeDecodeError offsets are the same, then ``\\r\\n``
    and a lone ``\\r`` become ``\\n``.
    """
    text = data.decode("utf-8", errors)
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def decode_noted(data: bytes, rel: str, notices) -> str:
    """`decode_text` of ``data``, where bytes that do not decode become
    U+FFFD with the one notice ``<rel>: undecodable bytes replaced with
    U+FFFD``, so one bad byte hides no finding. Every linted text is
    decoded here: component files, `iac --paths` templates and
    `docker --cmd -` input."""
    try:
        return decode_text(data)
    except UnicodeDecodeError:
        notices.append(f"{rel}: undecodable bytes replaced with U+FFFD")
        return decode_text(data, "replace")


def is_serverless(entry: CorpusEntry) -> bool:
    """Two-step filter: 'serverless' keyword in name/metadata, OR a
    serverless.yml among the component's files (either signal keeps it).
    The files are listed by `walk_files`; its notices are the scanners' to
    give, so the filter drops them."""
    keyword = "serverless"
    if keyword in entry.ref.name.lower() or keyword in entry.ref.publisher.lower():
        return True
    for key, value in entry.metadata.items():
        if keyword in key.lower() or keyword in value.lower():
            return True
    return any(rel.rpartition("/")[2] == "serverless.yml" for rel in walk_files(entry.root_path))


def _skipped(rel: str, entry: os.DirEntry) -> str:
    """The notice for a listed entry that is neither a directory nor a
    regular file, which is never followed."""
    try:
        fifo = stat.S_ISFIFO(entry.stat(follow_symlinks=False).st_mode)
    except OSError:
        fifo = False
    return _not_regular(rel, "symlink" if entry.is_symlink() else "FIFO" if fifo else "special file")


def _not_regular(rel: str, kind: str) -> str:
    return f"{rel}: not a regular file ({kind}); skipped"


def walk_files(root: str | os.PathLike, notices=None, prefix: str = "") -> list[str]:
    """The regular files under the directory ``root``, as POSIX paths
    ``prefix + <path below root>`` sorted by path parts as their ``Path``
    objects sort, from one walk that follows no symlink.

    Directories are entered and regular files kept by the type the listing
    gives (``follow_symlinks=False``, so no ``stat`` per file). Every other
    entry is skipped with the notice ``<path>: not a regular file
    (symlink|FIFO|special file); skipped``, and a directory that cannot be
    listed gives ``<path>: cannot list: <reason>``, ``root`` itself named
    by ``prefix`` without its trailing ``/``. The notices go to ``notices``,
    unless it is None, in the same path order. This is the one recursive
    listing: V1 trees, V2 archives, IaC templates, the advisory database,
    the serverless filter and the injection harness all use it.
    """
    found: list[tuple[str, ...]] = []
    skipped: list[tuple[tuple[str, ...], str]] = []
    pending: list[tuple[tuple[str, ...], str]] = [((), os.fspath(root))]
    while pending:
        parts, directory = pending.pop()
        try:
            with os.scandir(directory) as it:
                for child in it:
                    child_parts = (*parts, child.name)
                    if child.is_dir(follow_symlinks=False):
                        pending.append((child_parts, child.path))
                    elif child.is_file(follow_symlinks=False):
                        found.append(child_parts)
                    else:
                        skipped.append((child_parts, _skipped(prefix + "/".join(child_parts), child)))
        except OSError as exc:
            rel = (prefix + "/".join(parts)).rstrip("/") or "."
            skipped.append((parts, f"{rel}: cannot list: {exc.strerror or exc}"))
    found.sort()
    for _, notice in sorted(skipped) if notices is not None else ():
        notices.append(notice)
    return [prefix + "/".join(parts) for parts in found]
