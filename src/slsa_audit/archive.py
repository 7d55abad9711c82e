"""Compressed-component handling: detection, safe extraction, signature
scanning, and the payload-injection harness (V2).

Eight formats are supported: 7z, tar, tar.bz2, tar.gz, tar.lzma, tar.xz,
tar.zst, and zip. Extraction is defensive: entry names may not traverse
outside the tree, and decompressed output is capped by expansion ratio and
an absolute byte limit. Tar members are sliced from the in-memory tar, and
each entry is hashed at most once per signature scan.
"""
from __future__ import annotations

import bz2
import gzip
import hashlib
import io
import json
import lzma
import math
import os
import re
import tarfile
import zipfile
import zlib
from base64 import b64decode
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable

from slsa_audit import sevenz, zstdcodec
from slsa_audit.ingest import read_file, walk_files
from slsa_audit.model import AuditError, ConfigError


class ArchiveError(AuditError):
    """Base class for archive handling failures."""


class UnsupportedFormatError(ArchiveError, ValueError):
    """Input is not one of the eight supported archive kinds."""


class ExtractionError(ArchiveError):
    """Archive is corrupt or uses unsupported features."""


class ArchiveSecurityError(ArchiveError):
    """An entry name would escape the extraction root."""


class DecompressionBombError(ArchiveError):
    """Decompressed output exceeded the configured expansion limits."""


class EncryptedArchiveError(ArchiveError):
    """Archive content is encrypted (possible evasion indicator)."""


class ArchiveFormat(Enum):
    SEVENZ = "7z"
    TAR = "tar"
    TAR_BZ2 = "tar.bz2"
    TAR_GZ = "tar.gz"
    TAR_LZMA = "tar.lzma"
    TAR_XZ = "tar.xz"
    TAR_ZST = "tar.zst"
    ZIP = "zip"


_TAR_WRAPPED = {
    ArchiveFormat.TAR_BZ2,
    ArchiveFormat.TAR_GZ,
    ArchiveFormat.TAR_LZMA,
    ArchiveFormat.TAR_XZ,
    ArchiveFormat.TAR_ZST,
}


@dataclass(frozen=True)
class ExtractionLimits:
    """Caps applied while inflating untrusted archives."""

    max_expansion_ratio: float = 1000.0
    max_total_bytes: int = 1 << 30

    def __post_init__(self) -> None:
        # A cap of zero or less turns every archive into a bomb finding and
        # skips its signature scan; NaN breaks cap_for.
        if not (math.isfinite(self.max_expansion_ratio) and self.max_expansion_ratio > 0):
            raise ValueError(
                "archive.max_expansion_ratio must be a finite number > 0, "
                f"got {self.max_expansion_ratio}"
            )
        if not self.max_total_bytes > 0:
            raise ValueError(
                f"archive.max_total_bytes must be > 0, got {self.max_total_bytes}"
            )

    def cap_for(self, compressed_size: int) -> int:
        ratio_cap = int(max(compressed_size, 1) * self.max_expansion_ratio)
        return min(ratio_cap, self.max_total_bytes)


DEFAULT_LIMITS = ExtractionLimits()


@dataclass(frozen=True)
class ArchiveEntry:
    """One regular-file entry extracted from an archive."""

    path: str
    data: bytes


def detect_format(filename: str, leading_bytes: bytes) -> ArchiveFormat:
    """Identify the archive format from magic bytes, falling back to the
    filename extension where the bytes are ambiguous (plain/old tar, lzma).

    Compression wrappers imply their tar-wrapped kind; the inner tar is
    confirmed during extraction.
    """
    fmt = _sniff_format(filename, leading_bytes)
    if fmt is None:
        supported = ", ".join(f.value for f in ArchiveFormat)
        raise UnsupportedFormatError(
            f"unrecognized archive format for {filename!r}; supported kinds: {supported}"
        )
    return fmt


def _sniff_format(filename: str, head: bytes) -> ArchiveFormat | None:
    """detect_format without the error: None when nothing matches. Only the
    first 263 bytes of head are read, so whole entry data may be passed."""
    if head.startswith((b"PK\x03\x04", b"PK\x05\x06", b"PK\x07\x08")):
        return ArchiveFormat.ZIP
    if head.startswith(sevenz.MAGIC):
        return ArchiveFormat.SEVENZ
    if head.startswith(b"\x1f\x8b"):
        return ArchiveFormat.TAR_GZ
    if head.startswith(b"BZh"):
        return ArchiveFormat.TAR_BZ2
    if head.startswith(b"\xfd7zXZ\x00"):
        return ArchiveFormat.TAR_XZ
    if head.startswith(zstdcodec.ZSTD_MAGIC):
        return ArchiveFormat.TAR_ZST
    if len(head) > 262 and head[257:262] in (b"ustar", b"usta "):
        return ArchiveFormat.TAR
    lower = filename.lower()
    if lower.endswith((".tar.lzma", ".tlz", ".lzma")) and _plausible_lzma_header(head):
        return ArchiveFormat.TAR_LZMA
    if lower.endswith(".tar"):
        return ArchiveFormat.TAR
    return None


def _plausible_lzma_header(head: bytes) -> bool:
    # .lzma (alone format): properties byte < 225, then 4-byte dict size.
    return len(head) >= 5 and head[0] < 225


def _safe_entry_path(name: str) -> str:
    """The entry name as a clean relative POSIX path; backslashes count as
    separators. Absolute, drive-letter, traversing and empty names raise."""
    slashed = name.replace("\\", "/")
    parts = [p for p in slashed.split("/") if p not in ("", ".")]
    if slashed.startswith("/") or (parts and len(parts[0]) == 2 and parts[0][1] == ":"):
        raise ArchiveSecurityError(f"absolute entry path rejected: {name!r}")
    if ".." in parts:
        raise ArchiveSecurityError(f"path-traversal entry rejected: {name!r}")
    if not parts:
        raise ArchiveSecurityError(f"empty entry path rejected: {name!r}")
    return "/".join(parts)


_WRAPPER_DECOMPRESSORS = {
    ArchiveFormat.TAR_GZ: lambda: zlib.decompressobj(wbits=31),
    ArchiveFormat.TAR_BZ2: bz2.BZ2Decompressor,
    ArchiveFormat.TAR_XZ: lambda: lzma.LZMADecompressor(format=lzma.FORMAT_XZ),
    ArchiveFormat.TAR_LZMA: lambda: lzma.LZMADecompressor(format=lzma.FORMAT_ALONE),
}


def _inflate_wrapper(data: bytes, fmt: ArchiveFormat, cap: int) -> bytes:
    """Decompress a tar compression wrapper with an output cap."""
    out = bytearray()
    try:
        if fmt is ArchiveFormat.TAR_ZST:
            for chunk in zstdcodec.decompress_chunks(data):
                out += chunk
                if len(out) > cap:
                    break
        else:
            stream = _WRAPPER_DECOMPRESSORS[fmt]()
            out += stream.decompress(data, cap + 1)
            while not stream.eof and len(out) <= cap:
                # zlib hands back the input it has not used; bz2 and lzma keep it.
                tail = getattr(stream, "unconsumed_tail", b"")
                chunk = stream.decompress(tail, cap + 1 - len(out))
                if not chunk:
                    break
                out += chunk
    except (zlib.error, lzma.LZMAError, OSError, EOFError, zstdcodec.ZstdError) as exc:
        raise ExtractionError(f"corrupt {fmt.value} stream: {exc}") from exc
    if len(out) > cap:
        raise DecompressionBombError(
            f"{fmt.value} stream inflated past the {cap}-byte cap"
        )
    return bytes(out)


def _extract_tar(data: bytes, cap: int) -> list[ArchiveEntry]:
    """Regular-file members of an in-memory tar: from `_extract_plain_tar`
    when every header is plain, else from `_extract_tar_with_tarfile`."""
    entries = _extract_plain_tar(data, cap)
    return _extract_tar_with_tarfile(data, cap) if entries is None else entries


def _octal_field(width: int, group: bool = False) -> bytes:
    """A numeric header field as tar writers give it: at most width - 1
    octal digits, then a NUL inside the field. tarfile's ``nti`` reads it as
    ``int(digits or "0", 8)``; the digits are a group when ``group`` is set."""
    digits = rb"[0-7]{0,%d}" % (width - 1)
    return rb"(?=%s\0)[\x00-\xff]{%d}" % (b"(%s)" % digits if group else digits, width)


# Bytes 100-156 of a plain header: mode, uid, gid, size (group 1), mtime,
# checksum (group 2), and a type flag (group 3) that tarfile reads as a
# regular file (0, NUL, 7) or as a link, device, directory or FIFO (1-6).
_PLAIN_FIELDS = re.compile(
    _octal_field(8) * 3 + _octal_field(12, True) + _octal_field(12)
    + _octal_field(8, True) + rb"([0-7\0])"
)
_PLAIN_DEVICE = re.compile(_octal_field(8) * 2)  # bytes 329-344: devmajor, devminor
_BLOCK = 512
_ZERO_BLOCK = bytes(_BLOCK)


def _extract_plain_tar(data: bytes, cap: int) -> list[ArchiveEntry] | None:
    """What `_extract_tar_with_tarfile` returns or raises, read from the
    ustar headers directly (POSIX pax, ustar Interchange Format), or None
    when some header is not plain.

    Plain means every header, read as ``tarfile.TarInfo.frombuf`` reads it,
    has ASCII name and prefix fields, numeric fields in `_octal_field`'s
    form, a matching unsigned checksum and a type flag in 0-7 or NUL, and
    the archive ends at a zero block, or at the end of data on a block
    boundary after a member. Everything else (pax and GNU headers,
    base-256 numbers, signed checksums, a truncated body or an empty one)
    is None, so tarfile reads it. A member's path and the cap are checked
    in tarfile's member order, so the same member raises the same error.
    """
    entries: list[ArchiveEntry] = []
    total = 0
    pos = 0
    end = len(data)
    while pos < end:
        header = data[pos : pos + _BLOCK]
        if header == _ZERO_BLOCK:
            return entries
        if len(header) < _BLOCK:
            return None
        fields = _PLAIN_FIELDS.match(header, 100)
        if fields is None or _PLAIN_DEVICE.match(header, 329) is None:
            return None
        # For ASCII bytes the sum stays below 65521, so adler32's first half
        # (1 + the sum, modulo 65521) gives it without a Python-level loop.
        total_sum = (zlib.adler32(header) & 0xFFFF) - 1 if header.isascii() else sum(header)
        if int(fields[2] or b"0", 8) != 256 + total_sum - sum(header[148:156]):
            return None
        name = header[:100].partition(b"\0")[0]
        prefix = header[345:500].partition(b"\0")[0]
        if not (name.isascii() and prefix.isascii()):
            return None
        name, prefix, kind = name.decode("ascii"), prefix.decode("ascii"), fields[3]
        if kind == b"\0" and name.endswith("/"):
            kind = b"5"  # a v7 directory
        if kind == b"5":
            name = name.rstrip("/")
        if prefix:
            name = f"{prefix}/{name}"
            if kind == b"5":
                name = name.rstrip("/")
        path = _safe_entry_path(name)
        pos += _BLOCK
        if kind not in b"0\x007":
            continue  # a link, device, directory or FIFO: tarfile reads no data for it
        size = int(fields[1] or b"0", 8)
        total += size
        if total > cap:
            raise DecompressionBombError(f"tar contents exceed the {cap}-byte cap")
        start, pos = pos, pos + -(-size // _BLOCK) * _BLOCK
        if pos > end:
            return None  # cut off in the member's data or padding
        entries.append(ArchiveEntry(path=path, data=data[start : start + size]))
    return entries if pos else None


def _extract_tar_with_tarfile(data: bytes, cap: int) -> list[ArchiveEntry]:
    """Regular-file members of an in-memory tar. tarfile parses the headers;
    member contents are sliced from data, except for sparse members."""
    entries: list[ArchiveEntry] = []
    total = 0
    try:
        with tarfile.open(fileobj=io.BytesIO(data), mode="r:") as tar:
            for member in tar:
                name = _safe_entry_path(member.name)
                if not member.isfile():
                    continue  # only regular files come back; links never followed
                total += member.size
                if total > cap:
                    raise DecompressionBombError(
                        f"tar contents exceed the {cap}-byte cap"
                    )
                if member.issparse():
                    content = tar.extractfile(member).read()
                else:
                    start = member.offset_data
                    content = data[start : start + member.size]
                    if len(content) < member.size:  # the tar is cut off
                        raise ExtractionError("corrupt tar archive: unexpected end of data")
                entries.append(ArchiveEntry(path=name, data=content))
            # tarfile ends its iteration quietly at a bad header after the
            # first member; the members behind it would go unscanned.
            stopped = data[tar.offset : tar.offset + _BLOCK]
            if len(stopped) == _BLOCK and stopped != _ZERO_BLOCK:
                raise ArchiveSecurityError(
                    f"invalid tar header at offset {tar.offset} hides the rest of the archive"
                )
    except tarfile.TarError as exc:
        offset = getattr(exc, "offset", None)
        suffix = f" at offset {offset}" if offset is not None else ""
        raise ExtractionError(f"corrupt tar archive{suffix}: {exc}") from exc
    return entries


def _extract_zip(data: bytes, cap: int) -> list[ArchiveEntry]:
    entries: list[ArchiveEntry] = []
    total = 0
    try:
        with zipfile.ZipFile(io.BytesIO(data)) as zf:
            for info in zf.infolist():
                if info.is_dir():
                    _safe_entry_path(info.filename + "x")  # still reject traversal in dirs
                    continue
                name = _safe_entry_path(info.filename)
                if info.flag_bits & 0x1:
                    raise EncryptedArchiveError(f"zip entry {name!r} is encrypted")
                content = bytearray()
                with zf.open(info) as handle:
                    while True:
                        chunk = handle.read(1 << 17)
                        if not chunk:
                            break
                        content += chunk
                        total += len(chunk)
                        if total > cap:
                            raise DecompressionBombError(
                                f"zip contents exceed the {cap}-byte cap"
                            )
                entries.append(ArchiveEntry(path=name, data=bytes(content)))
    except (
        zipfile.BadZipFile,
        zlib.error,
        lzma.LZMAError,
        OSError,  # bz2 entries: "Invalid data stream"
        EOFError,
        NotImplementedError,  # compression method, zip version, strong encryption
        ValueError,  # e.g. "negative seek value" from a bad header offset
    ) as exc:
        raise ExtractionError(f"corrupt zip archive: {exc}") from exc
    return entries


def extract_bytes(
    data: bytes,
    fmt: ArchiveFormat,
    limits: ExtractionLimits = DEFAULT_LIMITS,
) -> list[ArchiveEntry]:
    """Extract all regular-file entries of an in-memory archive.

    Nested archives are NOT expanded here; scan_entries recurses explicitly.
    """
    cap = limits.cap_for(len(data))
    if fmt is ArchiveFormat.ZIP:
        return _extract_zip(data, cap)
    if fmt is ArchiveFormat.SEVENZ:
        try:
            raw = sevenz.read_7z(data, max_output=cap)
        except sevenz.SevenZipEncryptedError as exc:
            raise EncryptedArchiveError(str(exc)) from exc
        except sevenz.SevenZipLimitError as exc:
            raise DecompressionBombError(str(exc)) from exc
        except sevenz.SevenZipError as exc:
            raise ExtractionError(str(exc)) from exc
        return [ArchiveEntry(path=_safe_entry_path(p), data=d) for p, d in raw]
    if fmt is ArchiveFormat.TAR:
        return _extract_tar(data, cap)
    if fmt in _TAR_WRAPPED:
        inner = _inflate_wrapper(data, fmt, cap)
        return _extract_tar(inner, cap)
    raise UnsupportedFormatError(f"unsupported format: {fmt}")


def extract(
    archive_path: str | Path,
    fmt: ArchiveFormat | None = None,
    limits: ExtractionLimits = DEFAULT_LIMITS,
    data: bytes | None = None,
) -> list[ArchiveEntry]:
    """Extract an archive file; format is detected when not given. ``data``
    is its bytes when the caller has read them; else the file is read."""
    path = Path(archive_path)
    if data is None:
        data = read_file(os.fspath(archive_path))
    if fmt is None:
        fmt = detect_format(path.name, data[:512])
    return extract_bytes(data, fmt, limits)


# ---------------------------------------------------------------------------
# Signatures and scanning
# ---------------------------------------------------------------------------


class SignatureKind(Enum):
    EXACT_BYTES = "exact-bytes"
    SHA256 = "sha256"
    SUBSTRING = "substring"


@dataclass(frozen=True)
class Signature:
    id: str
    kind: SignatureKind
    pattern: bytes
    description: str = ""

    def __post_init__(self) -> None:
        if not self.pattern:
            raise ValueError("signature pattern must be non-empty")


# Joined at runtime so this source file is not itself flagged by scanners.
EICAR_TEST_STRING = (
    rb"X5O!P%@AP[4\PZX54(P^)7CC)7}$EI" + rb"CAR-STANDARD-ANTIVIRUS-TEST-FILE!$H+H*"
)

_PLACEHOLDER_DIGEST = b"0" * 64  # operators fill real hashes into these slots

BUILTIN_SIGNATURES: tuple[Signature, ...] = (
    Signature("eicar", SignatureKind.SUBSTRING, EICAR_TEST_STRING, "antivirus test pattern"),
    Signature("python-rat", SignatureKind.SHA256, _PLACEHOLDER_DIGEST, "remote access trojan sample slot"),
    Signature("java-infector", SignatureKind.SHA256, _PLACEHOLDER_DIGEST, "class infector sample slot"),
    Signature("php-backdoor", SignatureKind.SHA256, _PLACEHOLDER_DIGEST, "web backdoor sample slot"),
    Signature("python-backdoor", SignatureKind.SHA256, _PLACEHOLDER_DIGEST, "backdoor sample slot"),
    Signature("python-trojan", SignatureKind.SHA256, _PLACEHOLDER_DIGEST, "trojan sample slot"),
)


def load_signatures(path: str | Path) -> list[Signature]:
    """Load a JSON-lines signature database (one signature per line).

    Lines hold {"id", "kind", "description"?} plus "pattern" (UTF-8 text)
    or "pattern_base64". A file that cannot be read, or malformed content,
    raises ConfigError naming the file.
    """
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    signatures: list[Signature] = []
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            doc = json.loads(line)
            if "pattern_base64" in doc:
                pattern = b64decode(doc["pattern_base64"])
            else:
                pattern = doc["pattern"].encode("utf-8")
            signatures.append(
                Signature(
                    id=doc["id"],
                    kind=SignatureKind(doc["kind"]),
                    pattern=pattern,
                    description=doc.get("description", ""),
                )
            )
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise ConfigError(f"{path}:{lineno}: bad signature record: {exc}") from exc
    return signatures


@dataclass(frozen=True)
class SignatureMatch:
    """A signature hit, carrying the (possibly nested) entry path."""

    entry_path: str
    signature_id: str


@dataclass(frozen=True)
class EngineVerdict:
    engine_id: str
    flagged: bool
    matched_signatures: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.flagged != bool(self.matched_signatures):
            raise ValueError("flagged must mirror matched_signatures being non-empty")


class _CompiledSignatures:
    """A signature list compiled for one scan.

    SHA256 signatures are looked up by the entry's digest, so an entry is
    hashed at most once, and only when such a signature exists. Exact-bytes
    signatures are looked up by length, substring signatures searched one by
    one. A SHA256 pattern matches the lower-case hex digest after lowering.
    """

    def __init__(self, signatures: Iterable[Signature]) -> None:
        self.ids: list[str] = []
        self.by_digest: dict[bytes, list[int]] = {}
        self.exact_by_length: dict[int, list[tuple[int, bytes]]] = {}
        self.substrings: list[tuple[int, bytes]] = []
        for index, sig in enumerate(signatures):
            self.ids.append(sig.id)
            if sig.kind is SignatureKind.SHA256:
                self.by_digest.setdefault(sig.pattern.lower(), []).append(index)
            elif sig.kind is SignatureKind.EXACT_BYTES:
                self.exact_by_length.setdefault(len(sig.pattern), []).append((index, sig.pattern))
            else:
                self.substrings.append((index, sig.pattern))

    def matching_ids(self, data: bytes) -> list[str]:
        """Ids of the signatures data matches, in signature-list order."""
        hits = [index for index, pattern in self.substrings if pattern in data]
        for index, pattern in self.exact_by_length.get(len(data), ()):
            if data == pattern:
                hits.append(index)
        if self.by_digest:
            hits += self.by_digest.get(hashlib.sha256(data).hexdigest().encode("ascii"), ())
        return [self.ids[index] for index in sorted(hits)]


def scan_entries(
    entries: Iterable[ArchiveEntry],
    signatures: Iterable[Signature],
    recursion_depth: int = 3,
    limits: ExtractionLimits = DEFAULT_LIMITS,
    *,
    notices: list[str],
) -> list[SignatureMatch]:
    """Check entries against every signature, expanding nested archives.

    The signatures are compiled once per call, and each entry is hashed at
    most once. Matches inside nested archives carry a bang-delimited path
    such as ``outer.zip!inner/payload.py``. recursion_depth 0 disables
    nesting.
    """
    matches: list[SignatureMatch] = []
    _scan(entries, _CompiledSignatures(signatures), "", recursion_depth, limits, notices, matches)
    return matches


def _scan(
    entries: Iterable[ArchiveEntry],
    sigs: _CompiledSignatures,
    prefix: str,
    recursion_depth: int,
    limits: ExtractionLimits,
    notices: list[str],
    matches: list[SignatureMatch],
) -> None:
    for entry in entries:
        for sig_id in sigs.matching_ids(entry.data):
            matches.append(SignatureMatch(entry_path=prefix + entry.path, signature_id=sig_id))
        if recursion_depth <= 0:
            continue
        nested_fmt = _sniff_format(entry.path, entry.data)
        if nested_fmt is None:
            continue
        try:
            nested = extract_bytes(entry.data, nested_fmt, limits)
        except ArchiveError as exc:
            notices.append(f"nested archive {entry.path!r} not expanded: {exc}")
            continue
        _scan(nested, sigs, f"{prefix}{entry.path}!", recursion_depth - 1, limits, notices, matches)


@dataclass(frozen=True)
class ConsensusResult:
    malicious: bool
    engines_flagging: int


def consensus_flag(verdicts: Iterable[EngineVerdict], threshold: int) -> ConsensusResult:
    """A sample is malicious when at least threshold engines flagged it."""
    if threshold < 1:
        raise ValueError("threshold must be >= 1")
    flagging = sum(1 for v in verdicts if v.flagged)
    return ConsensusResult(malicious=flagging >= threshold, engines_flagging=flagging)


# ---------------------------------------------------------------------------
# Deterministic packing / payload injection
# ---------------------------------------------------------------------------


def _pack_tar(items: list[tuple[str, bytes]]) -> bytes:
    out = io.BytesIO()
    with tarfile.open(fileobj=out, mode="w", format=tarfile.USTAR_FORMAT) as tar:
        for path, data in items:
            info = tarfile.TarInfo(name=path)
            info.size = len(data)
            info.mtime = 0
            info.mode = 0o644
            info.uid = info.gid = 0
            info.uname = info.gname = ""
            tar.addfile(info, io.BytesIO(data))
    return out.getvalue()


def _pack_zip(items: list[tuple[str, bytes]]) -> bytes:
    out = io.BytesIO()
    with zipfile.ZipFile(out, "w", compression=zipfile.ZIP_DEFLATED) as zf:
        for path, data in items:
            info = zipfile.ZipInfo(filename=path, date_time=(1980, 1, 1, 0, 0, 0))
            info.compress_type = zipfile.ZIP_DEFLATED
            info.external_attr = 0o644 << 16
            info.create_system = 3
            zf.writestr(info, data)
    return out.getvalue()


def pack_entries(items: list[tuple[str, bytes]], fmt: ArchiveFormat) -> bytes:
    """Pack (path, data) pairs deterministically: sorted paths, zeroed
    timestamps, fixed permissions."""
    items = sorted(items)
    for path, _ in items:
        _safe_entry_path(path)
    if fmt is ArchiveFormat.ZIP:
        return _pack_zip(items)
    if fmt is ArchiveFormat.SEVENZ:
        return sevenz.write_7z(items)
    tar_bytes = _pack_tar(items)
    if fmt is ArchiveFormat.TAR:
        return tar_bytes
    if fmt is ArchiveFormat.TAR_GZ:
        return gzip.compress(tar_bytes, compresslevel=9, mtime=0)
    if fmt is ArchiveFormat.TAR_BZ2:
        return bz2.compress(tar_bytes, compresslevel=9)
    if fmt is ArchiveFormat.TAR_XZ:
        return lzma.compress(tar_bytes, format=lzma.FORMAT_XZ, preset=6)
    if fmt is ArchiveFormat.TAR_LZMA:
        return lzma.compress(tar_bytes, format=lzma.FORMAT_ALONE, preset=6)
    if fmt is ArchiveFormat.TAR_ZST:
        return zstdcodec.compress(tar_bytes)
    raise UnsupportedFormatError(f"unsupported format: {fmt}")


def inject_and_pack(
    benign_tree: str | Path,
    payload_file: str | Path | None,
    fmt: ArchiveFormat,
    payload_dest: str | None = None,
    notices: list[str] | None = None,
) -> bytes:
    """Pack the regular files of a source tree (`ingest.walk_files`, whose
    notices go to ``notices``), optionally adding one payload file.

    The payload lands at payload_dest (default: its filename at tree root).
    Output is byte-stable for fixed inputs. With payload_file None this is
    a plain deterministic pack.
    """
    tree_root = Path(benign_tree)
    if not tree_root.is_dir():
        raise FileNotFoundError(f"benign tree not found: {tree_root}")
    items = [(rel, read_file(os.path.join(tree_root, rel))) for rel in walk_files(tree_root, notices)]
    if not items:
        raise ValueError(f"benign tree is empty: {tree_root}")
    if payload_file is not None:
        payload_path = Path(payload_file)
        dest = payload_dest or payload_path.name
        items.append((_safe_entry_path(dest), payload_path.read_bytes()))
    return pack_entries(items, fmt)
