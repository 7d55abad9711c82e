"""Format detection, safe extraction, scanning, injection, consensus."""
from __future__ import annotations

import hashlib
import io
import random
import struct
import tarfile
import tracemalloc
import zipfile
import zlib
from pathlib import PurePosixPath

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hostile_corpus import encrypted_zip as _encrypted_zip
from hostile_corpus import gnu_sparse_tar as _gnu_sparse_tar
from hostile_corpus import tar_blob as _tar_blob
from slsa_audit import archive, sevenz
from slsa_audit.cli import main
from slsa_audit.config import AuditConfig
from slsa_audit.demo import build_demo_corpus
from slsa_audit.ingest import load_corpus, serialize_manifest
from slsa_audit.model import ComponentRef, Repository
from slsa_audit.report import ComponentScan, scan_archives, scan_corpus
from slsa_audit.archive import (
    BUILTIN_SIGNATURES,
    EICAR_TEST_STRING,
    ArchiveEntry,
    ArchiveError,
    ArchiveFormat,
    ArchiveSecurityError,
    ConsensusResult,
    DecompressionBombError,
    EncryptedArchiveError,
    EngineVerdict,
    ExtractionError,
    ExtractionLimits,
    Signature,
    SignatureKind,
    UnsupportedFormatError,
    _safe_entry_path,
    consensus_flag,
    detect_format,
    extract,
    extract_bytes,
    inject_and_pack,
    load_signatures,
    pack_entries,
    scan_entries,
)

ALL_FORMATS = list(ArchiveFormat)


@pytest.fixture
def benign_tree(tmp_path):
    tree = tmp_path / "tree"
    (tree / "sub").mkdir(parents=True)
    (tree / "app.py").write_bytes(b"def handler():\n    return 'ok'\n")
    (tree / "sub" / "data.bin").write_bytes(bytes(range(256)))
    (tree / "README.md").write_bytes(b"# demo\n")
    return tree


def test_detect_magic_bytes():
    assert detect_format("x", b"PK\x03\x04" + b"\0" * 508) is ArchiveFormat.ZIP
    assert detect_format("x", b"7z\xbc\xaf\x27\x1c" + b"\0" * 506) is ArchiveFormat.SEVENZ
    assert detect_format("fn.tar.gz", b"\x1f\x8b\x08" + b"\0" * 509) is ArchiveFormat.TAR_GZ


def test_detect_unrecognized_lists_kinds():
    with pytest.raises(UnsupportedFormatError) as exc:
        detect_format("file.bin", b"\x00" * 512)
    message = str(exc.value)
    for fmt in ALL_FORMATS:
        assert fmt.value in message


@pytest.mark.parametrize("fmt", ALL_FORMATS, ids=[f.value for f in ALL_FORMATS])
def test_round_trip_all_formats(fmt, benign_tree):
    blob = inject_and_pack(benign_tree, None, fmt)
    entries = extract_bytes(blob, fmt)
    got = sorted((e.path, e.data) for e in entries)
    want = sorted(
        (p.relative_to(benign_tree).as_posix(), p.read_bytes())
        for p in benign_tree.rglob("*")
        if p.is_file()
    )
    assert got == want
    assert detect_format(f"x.{fmt.value}", blob[:512]) is fmt


@pytest.mark.parametrize("fmt", ALL_FORMATS, ids=[f.value for f in ALL_FORMATS])
def test_pack_deterministic(fmt, benign_tree, tmp_path):
    payload = tmp_path / "payload.txt"
    payload.write_bytes(EICAR_TEST_STRING)
    first = inject_and_pack(benign_tree, payload, fmt)
    second = inject_and_pack(benign_tree, payload, fmt)
    assert first == second


def test_inject_adds_payload(benign_tree, tmp_path):
    payload = tmp_path / "payload.txt"
    payload.write_bytes(EICAR_TEST_STRING)
    blob = inject_and_pack(benign_tree, payload, ArchiveFormat.ZIP)
    entries = extract_bytes(blob, ArchiveFormat.ZIP)
    assert len(entries) == 4
    assert any(e.path == "payload.txt" for e in entries)
    nested = inject_and_pack(
        benign_tree, payload, ArchiveFormat.ZIP, payload_dest="node_modules/.cache/x.py"
    )
    entries = extract_bytes(nested, ArchiveFormat.ZIP)
    matches = scan_entries(entries, BUILTIN_SIGNATURES, recursion_depth=0, notices=[])
    assert [m.entry_path for m in matches] == ["node_modules/.cache/x.py"]


def test_inject_packs_no_symlinked_file_and_names_it(benign_tree, tmp_path, capsys):
    (tmp_path / "secret.txt").write_bytes(b"outside the tree")
    (benign_tree / "sub" / "link.txt").symlink_to(tmp_path / "secret.txt")
    notices: list[str] = []
    blob = inject_and_pack(benign_tree, None, ArchiveFormat.ZIP, notices=notices)
    assert sorted(e.path for e in extract_bytes(blob, ArchiveFormat.ZIP)) == [
        "README.md", "app.py", "sub/data.bin",
    ]
    assert notices == ["sub/link.txt: not a regular file (symlink); skipped"]
    out = tmp_path / "out.zip"
    assert main([
        "archive", "inject", str(benign_tree), str(tmp_path / "secret.txt"), "--format", "zip",
        "-o", str(out), "--i-am-testing",
    ]) == 0
    assert capsys.readouterr().err.endswith(
        "notice: sub/link.txt: not a regular file (symlink); skipped\n"
    )


def test_extract_from_file(benign_tree, tmp_path):
    blob = inject_and_pack(benign_tree, None, ArchiveFormat.TAR_GZ)
    path = tmp_path / "c.tar.gz"
    path.write_bytes(blob)
    assert len(extract(path)) == 3


def _reference_safe_entry_path(name: str) -> str:
    """The PurePosixPath version _safe_entry_path replaced, kept as its oracle."""
    path = PurePosixPath(name.replace("\\", "/"))
    parts = path.parts
    if path.is_absolute() or (parts and len(parts[0]) == 2 and parts[0][1] == ":"):
        raise ArchiveSecurityError(f"absolute entry path rejected: {name!r}")
    if ".." in parts:
        raise ArchiveSecurityError(f"path-traversal entry rejected: {name!r}")
    cleaned = "/".join(p for p in parts if p not in ("", "."))
    if not cleaned:
        raise ArchiveSecurityError(f"empty entry path rejected: {name!r}")
    return cleaned


def _outcome(function, *args):
    try:
        return function(*args)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


_NAME_TOKENS = st.sampled_from(
    ["/", "\\", ".", "..", "...", "C:", "c:", ":", "a:", "a", "b.txt", " ", "é", "日本", "\x00"]
)


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.lists(_NAME_TOKENS, max_size=8).map("".join), st.text(max_size=12)))
def test_safe_entry_path_equals_purepath_reference(name):
    assert _outcome(_safe_entry_path, name) == _outcome(_reference_safe_entry_path, name)


def test_path_traversal_rejected():
    with pytest.raises(ArchiveSecurityError):
        extract_bytes(_tar_blob([("../../etc/passwd", b"x")]), ArchiveFormat.TAR)


def test_absolute_path_rejected():
    with pytest.raises(ArchiveSecurityError):
        extract_bytes(_tar_blob([("/etc/passwd", b"x")]), ArchiveFormat.TAR)


def test_traversal_rejected_in_zip():
    import zipfile

    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as zf:
        zf.writestr("../evil.sh", b"rm -rf /")
    with pytest.raises(ArchiveSecurityError):
        extract_bytes(buf.getvalue(), ArchiveFormat.ZIP)


def test_bomb_rejected():
    bomb = pack_entries([("zeros.bin", bytes(1 << 22))], ArchiveFormat.ZIP)
    assert len(bomb) < 10 * 1024  # high-ratio fixture
    with pytest.raises(DecompressionBombError):
        extract_bytes(bomb, ArchiveFormat.ZIP, ExtractionLimits(max_expansion_ratio=100.0))


def test_bomb_absolute_cap():
    blob = pack_entries([("a.bin", bytes(2048))], ArchiveFormat.TAR_GZ)
    with pytest.raises(DecompressionBombError):
        extract_bytes(
            blob, ArchiveFormat.TAR_GZ,
            ExtractionLimits(max_expansion_ratio=1e9, max_total_bytes=1024),
        )


def test_bomb_exceeds_default_ratio():
    # bz2 compresses 16 MiB of zeros far below 16 KiB, beating the 1000x cap.
    blob = pack_entries([("zeros.bin", bytes(1 << 24))], ArchiveFormat.TAR_BZ2)
    assert len(blob) * 1000 < (1 << 24)
    with pytest.raises(DecompressionBombError):
        extract_bytes(blob, ArchiveFormat.TAR_BZ2)


def test_traversal_rejected_in_sevenz():
    blob = sevenz.write_7z([("../evil.py", b"import os")])
    with pytest.raises(ArchiveSecurityError):
        extract_bytes(blob, ArchiveFormat.SEVENZ)


def _sevenz_archive(body: bytes, header: bytes) -> bytes:
    """A 7z archive holding body then header, with both CRCs computed."""
    start = (
        len(body).to_bytes(8, "little")
        + len(header).to_bytes(8, "little")
        + zlib.crc32(header).to_bytes(4, "little")
    )
    start_crc = zlib.crc32(start).to_bytes(4, "little")
    return sevenz.MAGIC + bytes([0, 4]) + start_crc + start + body + header


def _sevenz_with_encoded_header(entries: list[tuple[str, bytes]]) -> bytes:
    """A 7z archive of entries whose header is LZMA2-compressed, as mainstream
    7z writers do, rebuilt from one of our plain-header archives."""
    import lzma

    plain = sevenz.write_7z(entries)
    next_offset = int.from_bytes(plain[12:20], "little")
    next_size = int.from_bytes(plain[20:28], "little")
    packed_area = plain[32 : 32 + next_offset]
    header = plain[32 + next_offset : 32 + next_offset + next_size]

    filter_spec = {"id": lzma.FILTER_LZMA2, "dict_size": 1 << 20}
    props = lzma._encode_filter_properties(dict(filter_spec))
    compressor = lzma.LZMACompressor(format=lzma.FORMAT_RAW, filters=[dict(filter_spec)])
    packed_header = compressor.compress(header) + compressor.flush()

    encoded = bytearray()
    encoded += sevenz._write_number(sevenz._K_ENCODED_HEADER)
    encoded += sevenz._write_number(sevenz._K_PACK_INFO)
    encoded += sevenz._write_number(len(packed_area))  # header stream sits after data
    encoded += sevenz._write_number(1)
    encoded += sevenz._write_number(sevenz._K_SIZE)
    encoded += sevenz._write_number(len(packed_header))
    encoded += sevenz._write_number(sevenz._K_END)
    encoded += sevenz._write_number(sevenz._K_UNPACK_INFO)
    encoded += sevenz._write_number(sevenz._K_FOLDER)
    encoded += sevenz._write_number(1)
    encoded += bytes([0])
    encoded += sevenz._write_number(1)
    encoded += bytes([len(sevenz._CODER_LZMA2) | 0x20])
    encoded += sevenz._CODER_LZMA2
    encoded += sevenz._write_number(len(props))
    encoded += props
    encoded += sevenz._write_number(sevenz._K_CODERS_UNPACK_SIZE)
    encoded += sevenz._write_number(len(header))
    encoded += sevenz._write_number(sevenz._K_END)
    encoded += sevenz._write_number(sevenz._K_END)

    return _sevenz_archive(packed_area + packed_header, bytes(encoded))


def test_sevenz_encoded_header():
    entries = [("a.txt", b"alpha"), ("b/c.txt", b"beta"), ("empty", b"")]
    assert sevenz.read_7z(_sevenz_with_encoded_header(entries)) == entries


def test_sevenz_declared_size_past_the_cap_is_a_bomb():
    blob = sevenz.write_7z([("zeros.bin", bytes(4096))])
    with pytest.raises(sevenz.SevenZipLimitError, match="declared 7z content"):
        sevenz.read_7z(blob, max_output=1024)
    with pytest.raises(DecompressionBombError, match="declared 7z content"):
        extract_bytes(blob, ArchiveFormat.SEVENZ, ExtractionLimits(max_total_bytes=1024))


def test_sevenz_stream_inflating_past_the_cap_is_a_bomb():
    # The encoded header is decoded before any declared size is known, so
    # only the cap inside the decoding loop bounds it.
    blob = _sevenz_with_encoded_header([("a.txt", b"alpha"), ("b/c.txt", b"beta")])
    with pytest.raises(sevenz.SevenZipLimitError, match="7z output exceeds"):
        sevenz.read_7z(blob, max_output=8)
    with pytest.raises(DecompressionBombError, match="7z output exceeds"):
        extract_bytes(blob, ArchiveFormat.SEVENZ, ExtractionLimits(max_total_bytes=8))


def test_mutated_sevenz_headers_raise_only_archive_errors():
    # Both CRCs are recomputed, so every mutant reaches the header parser.
    items = [("a.txt", b"hello world" * 20), ("dir/b.py", b"import os\n" * 30),
             ("empty", b""), ("c/d/e.bin", bytes(range(256)))]
    blob = sevenz.write_7z(items)
    header_start = 32 + int.from_bytes(blob[12:20], "little")
    body, header = blob[32:header_start], blob[header_start:]
    rng = random.Random("mutate-7z-header")
    for _ in range(2000):
        mutant = bytearray(header)
        for _ in range(rng.randint(1, 3)):
            mutant[rng.randrange(len(mutant))] = rng.randrange(256)
        try:
            extract_bytes(_sevenz_archive(body, bytes(mutant)), ArchiveFormat.SEVENZ)
        except ArchiveError:
            pass


def test_sevenz_count_beyond_header_is_refused_before_allocating():
    header = b"".join(sevenz._write_number(n) for n in (
        sevenz._K_HEADER, sevenz._K_FILES_INFO, 10**8, sevenz._K_END, sevenz._K_END))
    blob = _sevenz_archive(b"", header)
    assert len(blob) == 40
    tracemalloc.start()
    try:
        with pytest.raises(ExtractionError, match="larger than the 8-byte header"):
            extract_bytes(blob, ArchiveFormat.SEVENZ)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20


def _extractfile_contents(blob: bytes) -> list[tuple[str, bytes]]:
    with tarfile.open(fileobj=io.BytesIO(blob), mode="r:") as tar:
        return [(m.name, tar.extractfile(m).read()) for m in tar if m.isfile()]


def test_truncated_tar_member_is_an_extraction_error():
    blob = _tar_blob([("a.txt", b"a" * 100), ("b.bin", bytes(range(256)) * 4)])
    cut = blob[: 512 + 512 + 512 + 600]  # a, then b's header and 600 of its 1024 bytes
    with pytest.raises(tarfile.ReadError):
        _extractfile_contents(cut)
    with pytest.raises(ExtractionError, match="^corrupt tar archive: unexpected end of data$"):
        extract_bytes(cut, ArchiveFormat.TAR)


@pytest.mark.parametrize("format", [tarfile.GNU_FORMAT, tarfile.PAX_FORMAT], ids=["gnu", "pax"])
def test_long_name_tar_members_match_extractfile(format):
    long_name = "deep/" + "d" * 120 + "/payload.py"
    members = [(long_name, EICAR_TEST_STRING), ("short.txt", b"s" * 700), ("ünï/cödé.py", b"x")]
    blob = _tar_blob(members, format)
    expected = _extractfile_contents(blob)
    assert expected == members
    assert [(e.path, e.data) for e in extract_bytes(blob, ArchiveFormat.TAR)] == expected


def test_gnu_sparse_member_matches_extractfile():
    chunks = [(0, b"head"), (100, b"middle"), (300, b"more"), (596, b"tail")]
    blob = _gnu_sparse_tar(chunks, 600)
    expected = _extractfile_contents(blob)
    logical = bytearray(600)
    for offset, data in chunks:
        logical[offset : offset + len(data)] = data
    assert expected == [("sparse.bin", bytes(logical))]
    assert [(e.path, e.data) for e in extract_bytes(blob, ArchiveFormat.TAR)] == expected


def _tarfile_extract_tar(data: bytes, cap: int) -> list[ArchiveEntry]:
    """archive._extract_tar as it read every tar through tarfile, kept as
    the oracle of the plain-header reader."""
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
            stopped = data[tar.offset : tar.offset + 512]
            if len(stopped) == 512 and any(stopped):  # a bad header after the first member
                raise ArchiveSecurityError(
                    f"invalid tar header at offset {tar.offset} hides the rest of the archive"
                )
    except tarfile.TarError as exc:
        offset = getattr(exc, "offset", None)
        suffix = f" at offset {offset}" if offset is not None else ""
        raise ExtractionError(f"corrupt tar archive{suffix}: {exc}") from exc
    return entries


def _header(name: str, size: int = 0, type: bytes = tarfile.REGTYPE, **fields) -> bytearray:
    info = tarfile.TarInfo(name)
    info.size, info.type = size, type
    for field, value in fields.items():
        setattr(info, field, value)
    return bytearray(info.tobuf(tarfile.USTAR_FORMAT))


def _checksummed(header: bytearray) -> bytearray:
    header[148:156] = b" " * 8
    header[148:156] = b"%06o\0 " % sum(header)
    return header


def _member(name: str, data: bytes, type: bytes = tarfile.REGTYPE) -> bytes:
    return bytes(_header(name, len(data), type)) + data + bytes(-len(data) % 512)


_END = bytes(1024)
_PLAIN = _member("a.txt", b"a" * 100) + _member("sub/b.bin", bytes(range(256)) * 3)


def _with_header_field(header: bytearray, start: int, value: bytes) -> bytes:
    header[start : start + len(value)] = value
    return bytes(_checksummed(header))


def _tar_cases() -> dict[str, bytes]:
    long_name = "deep/" + "d" * 120 + "/payload.py"
    base256 = bytearray(_header("big.bin", 5))
    base256[124:136] = b"\x80" + (5).to_bytes(11, "big")
    bad_first = bytearray(_PLAIN)
    bad_first[148:154] = b"000001"
    bad_later = bytearray(_PLAIN)
    bad_later[512 + 512 + 148 : 512 + 512 + 154] = b"000001"
    signed = bytearray(_header("signed.txt", 3, uname="\xe9"))
    signed[148:156] = b" " * 8
    signed[148:156] = b"%06o\0 " % (sum(b - 256 if b > 127 else b for b in signed) & 0o777777)
    return {
        "plain": _PLAIN + _END,
        "plain-gnu-magic": _tar_blob([("a", b"x"), ("b/c", b"yz")], tarfile.GNU_FORMAT),
        "pax-long-name": _tar_blob([(long_name, b"p"), ("short", b"s")], tarfile.PAX_FORMAT),
        "gnu-long-name": _tar_blob([(long_name, b"g"), ("short", b"s")], tarfile.GNU_FORMAT),
        "gnu-sparse": _gnu_sparse_tar([(0, b"head"), (100, b"tail")], 200),
        "pax-global": tarfile.TarInfo.create_pax_global_header({"comment": "c"}) + _PLAIN + _END,
        "base-256-size": bytes(_checksummed(base256)) + b"hello" + bytes(507) + _END,
        "blank-padded-number": _with_header_field(_header("n.txt", 2), 100, b"  644 \0") + b"hi"
        + bytes(510) + _END,
        "signed-checksum": bytes(signed) + b"abc" + bytes(509) + _END,
        "bad-checksum-first": bytes(bad_first) + _END,
        "bad-checksum-later": bytes(bad_later) + _END,
        "truncated-header": _PLAIN[:-1024 + 100],
        "truncated-data": _PLAIN[: 512 + 100 + 412 + 512 + 300],
        "truncated-padding": _PLAIN[:-100],
        "no-end-blocks": _PLAIN,
        "trailing-zero-blocks": _PLAIN + bytes(512 * 7),
        "trailing-garbage": _PLAIN + _END + b"garbage" * 100,
        "garbage-after-member": _PLAIN + b"garbage" * 100,
        "one-zero-block": bytes(512),
        "empty": b"",
        "short-body": b"x" * 100,
        "prefix-field": _tar_blob([("p" * 60 + "/" + "q" * 60, b"deep")]),
        "v7-directory": bytes(_header("dir/", type=tarfile.AREGTYPE)) + _member("dir/f", b"f") + _END,
        "directory-with-size": bytes(_header("d", 700, tarfile.DIRTYPE)) + _member("d/f", b"f")
        + _END,
        "prefixed-directory": bytes(_with_header_field(_header("x/", type=tarfile.DIRTYPE), 345,
                                                       b"pre/")) + _PLAIN + _END,
        "links-and-fifo": _member("f", b"data")
        + bytes(_header("hard", type=tarfile.LNKTYPE, linkname="f"))
        + bytes(_header("soft", type=tarfile.SYMTYPE, linkname="/etc/passwd"))
        + bytes(_header("fifo", type=tarfile.FIFOTYPE))
        + bytes(_header("chr", type=tarfile.CHRTYPE)) + _END,
        "contiguous-file": _member("c.bin", b"contig", tarfile.CONTTYPE) + _END,
        "unknown-type": _member("u.bin", b"unknown", b"Z") + _PLAIN + _END,
        "non-ascii-name": _tar_blob([("ünï/cödé.py", b"x")]),
        "nul-in-name": _with_header_field(_header("a.txt", 1), 0, b"a\0junk") + b"1"
        + bytes(511) + _END,
        "traversal": _member("ok.txt", b"ok") + _member("../evil.py", b"x") + _END,
        "absolute-link": _member("ok.txt", b"ok") + bytes(_header("/etc/x", type=tarfile.SYMTYPE))
        + _END,
        "empty-directory-name": bytes(_header("/", type=tarfile.AREGTYPE)) + _END,
    }


@pytest.mark.parametrize("cap", [1 << 20, 150], ids=["roomy", "tight-cap"])
@pytest.mark.parametrize("case", list(_tar_cases()))
def test_plain_tar_reader_equals_the_tarfile_loop(case, cap):
    body = _tar_cases()[case]
    assert _outcome(archive._extract_tar, body, cap) == _outcome(_tarfile_extract_tar, body, cap)


def test_tar_cases_cover_both_readers():
    plain = {case for case, body in _tar_cases().items()
             if _outcome(archive._extract_plain_tar, body, 1 << 20) is not None}
    assert plain == {
        "plain", "plain-gnu-magic", "no-end-blocks", "trailing-zero-blocks",
        "trailing-garbage", "one-zero-block", "prefix-field", "v7-directory",
        "directory-with-size", "prefixed-directory", "links-and-fifo",
        "contiguous-file", "nul-in-name", "traversal", "absolute-link",
        "empty-directory-name",
    }


def test_a_bad_header_after_the_first_member_hides_nothing():
    three = _member("a.txt", b"a") + _member("b.txt", b"b") + _member("c.txt", b"c")
    bad = bytearray(three + _END)
    bad[1024 + 148 : 1024 + 154] = b"000001"  # b.txt's checksum
    with pytest.raises(
        ArchiveSecurityError, match="^invalid tar header at offset 1024 hides the rest"
    ):
        extract_bytes(bytes(bad), ArchiveFormat.TAR)
    # Ending at a zero block, with or without garbage after it, is no error,
    # for plain headers and for those only tarfile reads.
    pax = _tar_blob([("a.txt", b"a"), ("b.txt", b"b")], tarfile.PAX_FORMAT)
    for body, names in ((three + _END, ["a.txt", "b.txt", "c.txt"]), (pax, ["a.txt", "b.txt"])):
        for tail in (b"", b"garbage" * 100):
            assert [e.path for e in extract_bytes(body + tail, ArchiveFormat.TAR)] == names
    # So is a tail too short to be a header.
    assert [e.path for e in extract_bytes(three + b"x" * 100, ArchiveFormat.TAR)] == [
        "a.txt", "b.txt", "c.txt"
    ]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_mutated_tars_read_as_the_tarfile_loop(data):
    body = bytearray(data.draw(st.sampled_from(list(_tar_cases().values()))))
    for _ in range(data.draw(st.integers(0, 4))):
        op = data.draw(st.sampled_from(("set", "cut", "append")))
        if op == "set" and body:
            pos = data.draw(st.integers(0, len(body) - 1))
            body[pos] = data.draw(st.sampled_from([0, 32, 47, 48, 55, 56, 128, 255]))
        elif op == "cut":
            del body[data.draw(st.integers(0, len(body))):]
        else:
            body += data.draw(st.sampled_from([bytes(512), b"\0" * 100, _PLAIN]))
    cap = data.draw(st.sampled_from([1 << 20, 200]))
    assert _outcome(archive._extract_tar, bytes(body), cap) == _outcome(
        _tarfile_extract_tar, bytes(body), cap
    )


_TAR_KINDS = [ArchiveFormat.TAR, *sorted(archive._TAR_WRAPPED, key=lambda f: f.value)]


def test_no_plain_tar_reaches_tarfile(tmp_path, monkeypatch):
    demo_corpus = build_demo_corpus(tmp_path / "corpus")
    items = [(f"d{i % 3}/f{i}.txt", random.Random(i).randbytes(40 + 9 * i)) for i in range(16)]
    blobs = {fmt: pack_entries(items, fmt) for fmt in _TAR_KINDS}
    pax = _tar_cases()["pax-long-name"]
    opened = []
    tarfile_open = tarfile.open
    monkeypatch.setattr(tarfile, "open", lambda *a, **k: opened.append(a) or tarfile_open(*a, **k))
    for fmt, blob in blobs.items():
        assert [(e.path, e.data) for e in extract_bytes(blob, fmt)] == sorted(items), fmt
    archived = [e for e in load_corpus(demo_corpus).entries if "archives" in e.parts]
    findings = [f for e in archived for f in scan_archives(ComponentScan(e, AuditConfig()))]
    assert {f.rule_id for f in findings} == {"V2-SIGNATURE-MATCH"}
    assert any(p.name.endswith(".tar.zst") for p in demo_corpus.glob("*/archives/*"))
    assert opened == []
    extract_bytes(pax, ArchiveFormat.TAR)
    assert len(opened) == 1  # the counter sees tarfile when it is used


@pytest.mark.parametrize("fmt", ALL_FORMATS, ids=[f.value for f in ALL_FORMATS])
def test_mutated_archives_raise_only_archive_errors(fmt):
    items = [(f"d{i % 3}/f{i}.txt", random.Random(i).randbytes(40 + 9 * i)) for i in range(16)]
    blob = pack_entries(items, fmt)
    rng = random.Random(f"mutate-{fmt.value}")
    for _ in range(100):
        mutant = bytearray(blob)
        for _ in range(rng.randint(1, 4)):
            mutant[rng.randrange(len(mutant))] = rng.randrange(256)
        try:
            extract_bytes(bytes(mutant), fmt)
        except ArchiveError:
            pass


@pytest.mark.parametrize("method", [12, 99], ids=["bzip2-on-deflate-data", "unknown"])
def test_zip_bad_compression_method_is_an_extraction_error(method):
    data = bytearray(pack_entries([("a.txt", b"hello world" * 50)], ArchiveFormat.ZIP))
    data[8:10] = struct.pack("<H", method)
    central = data.index(b"PK\x01\x02")
    data[central + 10 : central + 12] = struct.pack("<H", method)
    with pytest.raises(ExtractionError, match="^corrupt zip archive: "):
        extract_bytes(bytes(data), ArchiveFormat.ZIP)


def test_corrupt_archive_errors():
    blob = pack_entries([("a", b"data")], ArchiveFormat.TAR_GZ)
    with pytest.raises(ExtractionError):
        extract_bytes(blob[:10], ArchiveFormat.TAR_GZ)
    with pytest.raises(ExtractionError):
        extract_bytes(b"\x1f\x8b\x08" + b"garbage", ArchiveFormat.TAR_GZ)


def test_encrypted_sevenz_notice():
    # Minimal 7z whose single folder declares the AES coder.
    packed = b"\x00" * 16
    header = bytearray()
    header += sevenz._write_number(sevenz._K_HEADER)
    header += sevenz._write_number(sevenz._K_MAIN_STREAMS)
    header += sevenz._write_number(sevenz._K_PACK_INFO)
    header += sevenz._write_number(0)
    header += sevenz._write_number(1)
    header += sevenz._write_number(sevenz._K_SIZE)
    header += sevenz._write_number(len(packed))
    header += sevenz._write_number(sevenz._K_END)
    header += sevenz._write_number(sevenz._K_UNPACK_INFO)
    header += sevenz._write_number(sevenz._K_FOLDER)
    header += sevenz._write_number(1)
    header += bytes([0])
    header += sevenz._write_number(1)  # one coder
    header += bytes([len(sevenz._CODER_AES256)])
    header += sevenz._CODER_AES256
    header += sevenz._write_number(sevenz._K_CODERS_UNPACK_SIZE)
    header += sevenz._write_number(32)
    header += sevenz._write_number(sevenz._K_END)
    header += sevenz._write_number(sevenz._K_END)
    header += sevenz._write_number(sevenz._K_END)
    import zlib

    start = (
        len(packed).to_bytes(8, "little")
        + len(header).to_bytes(8, "little")
        + zlib.crc32(bytes(header)).to_bytes(4, "little")
    )
    blob = (
        sevenz.MAGIC + bytes([0, 4]) + zlib.crc32(start).to_bytes(4, "little")
        + start + packed + bytes(header)
    )
    with pytest.raises(EncryptedArchiveError):
        extract_bytes(blob, ArchiveFormat.SEVENZ)


def test_encrypted_zip_reported_by_scan_corpus(tmp_path):
    ref = ComponentRef(Repository.GITHUB, "alice", "locked")
    component = tmp_path / "corpus" / ref.slug
    (component / "archives").mkdir(parents=True)
    (component / "component.meta").write_text(serialize_manifest(ref, {}))
    (component / "archives" / "bundle.zip").write_bytes(_encrypted_zip())
    run = scan_corpus(tmp_path / "corpus")
    findings = run.report.per_component[ref]
    assert [(f.rule_id, f.location) for f in findings] == [
        ("V2-ENCRYPTED-ARCHIVE", "archives/bundle.zip")
    ]


# ---------------------------------------------------------------------------
# Scanning
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("fmt", ALL_FORMATS, ids=[f.value for f in ALL_FORMATS])
def test_eicar_detected_in_every_format(fmt, benign_tree, tmp_path):
    payload = tmp_path / "eicar.txt"
    payload.write_bytes(EICAR_TEST_STRING)
    blob = inject_and_pack(benign_tree, payload, fmt)
    entries = extract_bytes(blob, fmt)
    matches = scan_entries(entries, BUILTIN_SIGNATURES, recursion_depth=0, notices=[])
    assert any(m.signature_id == "eicar" for m in matches)


def test_benign_entries_clean(benign_tree):
    blob = inject_and_pack(benign_tree, None, ArchiveFormat.ZIP)
    entries = extract_bytes(blob, ArchiveFormat.ZIP)
    assert scan_entries(entries, BUILTIN_SIGNATURES, recursion_depth=3, notices=[]) == []


def test_nested_scan_reports_bang_paths():
    inner = pack_entries([("payload.py", EICAR_TEST_STRING)], ArchiveFormat.ZIP)
    middle = pack_entries([("inner.zip", inner), ("ok.txt", b"fine")], ArchiveFormat.TAR)
    entries = extract_bytes(middle, ArchiveFormat.TAR)
    matches = scan_entries(entries, BUILTIN_SIGNATURES, recursion_depth=2, notices=[])
    nested = [m.entry_path for m in matches if "!" in m.entry_path]
    assert nested == ["inner.zip!payload.py"]
    shallow = scan_entries(entries, BUILTIN_SIGNATURES, recursion_depth=0, notices=[])
    assert all("!" not in m.entry_path for m in shallow)


def test_nested_depth_two_levels():
    level2 = pack_entries([("p.py", EICAR_TEST_STRING)], ArchiveFormat.ZIP)
    level1 = pack_entries([("two.zip", level2)], ArchiveFormat.ZIP)
    outer = pack_entries([("one.zip", level1)], ArchiveFormat.TAR_XZ)
    entries = extract_bytes(outer, ArchiveFormat.TAR_XZ)
    matches = scan_entries(entries, BUILTIN_SIGNATURES, recursion_depth=2, notices=[])
    assert "one.zip!two.zip!p.py" in {m.entry_path for m in matches}
    depth1 = {
        m.entry_path
        for m in scan_entries(entries, BUILTIN_SIGNATURES, recursion_depth=1, notices=[])
    }
    assert "one.zip!two.zip!p.py" not in depth1


def test_signature_kinds():
    data = b"hello world"
    import hashlib

    sha = Signature("h", SignatureKind.SHA256, hashlib.sha256(data).hexdigest().encode())
    exact = Signature("e", SignatureKind.EXACT_BYTES, data)
    sub = Signature("s", SignatureKind.SUBSTRING, b"lo wo")
    entry = ArchiveEntry("f.txt", data)
    matches = scan_entries([entry], [sha, exact, sub], recursion_depth=0, notices=[])
    assert {m.signature_id for m in matches} == {"h", "e", "s"}
    assert scan_entries([ArchiveEntry("g", b"other")], [sha, exact, sub], 0, notices=[]) == []


def _old_matches(sig: Signature, data: bytes) -> bool:
    """The per-signature test scan_entries used to make, kept as its oracle."""
    if sig.kind is SignatureKind.EXACT_BYTES:
        return data == sig.pattern
    if sig.kind is SignatureKind.SHA256:
        return hashlib.sha256(data).hexdigest().encode("ascii") == sig.pattern.lower()
    return sig.pattern in data


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_compiled_signatures_equal_per_signature_loop(data):
    datas = data.draw(st.lists(st.text("ab", max_size=5).map(str.encode), min_size=1, max_size=5))
    entries = [ArchiveEntry(f"e{i}", d) for i, d in enumerate(datas)]
    picked = st.sampled_from([d for d in datas if d] or [b"a"])
    patterns = {
        SignatureKind.EXACT_BYTES: st.one_of(picked, st.binary(min_size=1, max_size=3)),
        SignatureKind.SUBSTRING: st.one_of(
            picked.map(lambda d: d[: len(d) // 2 + 1]), st.text("ab", min_size=1, max_size=3).map(str.encode)
        ),
        SignatureKind.SHA256: st.tuples(st.sampled_from(datas), st.booleans()).map(
            lambda pair: (hashlib.sha256(pair[0]).hexdigest().upper() if pair[1]
                          else hashlib.sha256(pair[0]).hexdigest()).encode("ascii")
        ),
    }
    sigs = []
    for i in range(data.draw(st.integers(1, 8))):
        if sigs and data.draw(st.booleans()):
            sigs.append(data.draw(st.sampled_from(sigs)))  # the same signature twice
            continue
        kind = data.draw(st.sampled_from(list(SignatureKind)))
        sigs.append(Signature(f"s{i}", kind, data.draw(patterns[kind])))
    got = [(m.entry_path, m.signature_id) for m in scan_entries(entries, sigs, 0, notices=[])]
    assert got == [(e.path, s.id) for e in entries for s in sigs if _old_matches(s, e.data)]


def test_signature_pattern_nonempty():
    with pytest.raises(ValueError):
        Signature("bad", SignatureKind.SUBSTRING, b"")


def test_signature_db_round_trip(tmp_path):
    path = tmp_path / "sigs.jsonl"
    path.write_text(
        "# a comment line, then a blank line\n"
        "\n"
        '{"id": "text", "kind": "substring", "pattern": "X5O!P%@AP", "description": "a test"}\n'
        '{"id": "binary", "kind": "exact-bytes", "pattern_base64": "AAH/"}\n'
    )
    assert load_signatures(path) == [
        Signature("text", SignatureKind.SUBSTRING, b"X5O!P%@AP", "a test"),
        Signature("binary", SignatureKind.EXACT_BYTES, b"\x00\x01\xff"),
    ]


def test_engine_verdict_consistency():
    with pytest.raises(ValueError):
        EngineVerdict("e", True, ())
    with pytest.raises(ValueError):
        EngineVerdict("e", False, ("x",))


def test_consensus_threshold():
    flagged = [EngineVerdict(f"e{i}", True, ("eicar",)) for i in range(4)]
    clean = [EngineVerdict(f"c{i}", False) for i in range(16)]
    assert consensus_flag(flagged + clean, 5) == ConsensusResult(False, 4)
    five = flagged + [EngineVerdict("e4", True, ("eicar",))] + clean
    assert consensus_flag(five, 5) == ConsensusResult(True, 5)
    assert consensus_flag([], 1) == ConsensusResult(False, 0)
    with pytest.raises(ValueError):
        consensus_flag([], 0)
