"""Format detection, safe extraction, scanning, injection, consensus."""
from __future__ import annotations

import io
import tarfile
import zipfile

import pytest

from slsa_audit import sevenz
from slsa_audit.ingest import serialize_manifest
from slsa_audit.model import ComponentRef, Repository
from slsa_audit.report import scan_corpus
from slsa_audit.archive import (
    BUILTIN_SIGNATURES,
    EICAR_TEST_STRING,
    ArchiveEntry,
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
    consensus_flag,
    detect_format,
    dump_signatures,
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
    matches = scan_entries(entries, BUILTIN_SIGNATURES, recursion_depth=0)
    assert [m.entry_path for m in matches] == ["node_modules/.cache/x.py"]


def test_extract_from_file(benign_tree, tmp_path):
    blob = inject_and_pack(benign_tree, None, ArchiveFormat.TAR_GZ)
    path = tmp_path / "c.tar.gz"
    path.write_bytes(blob)
    assert len(extract(path)) == 3


def _tar_with_entry(name: str) -> bytes:
    buf = io.BytesIO()
    with tarfile.open(fileobj=buf, mode="w", format=tarfile.USTAR_FORMAT) as tar:
        info = tarfile.TarInfo(name=name)
        data = b"x"
        info.size = len(data)
        tar.addfile(info, io.BytesIO(data))
    return buf.getvalue()


def test_path_traversal_rejected():
    with pytest.raises(ArchiveSecurityError):
        extract_bytes(_tar_with_entry("../../etc/passwd"), ArchiveFormat.TAR)


def test_absolute_path_rejected():
    with pytest.raises(ArchiveSecurityError):
        extract_bytes(_tar_with_entry("/etc/passwd"), ArchiveFormat.TAR)


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


def test_sevenz_encoded_header():
    # Mainstream 7z writers LZMA-compress their headers; rebuild one of our
    # plain-header archives into that layout and read it back.
    import lzma
    import zlib

    entries = [("a.txt", b"alpha"), ("b/c.txt", b"beta"), ("empty", b"")]
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

    body = packed_area + packed_header + bytes(encoded)
    start = (
        (len(packed_area) + len(packed_header)).to_bytes(8, "little")
        + len(encoded).to_bytes(8, "little")
        + zlib.crc32(bytes(encoded)).to_bytes(4, "little")
    )
    blob = (
        sevenz.MAGIC + bytes([0, 4]) + zlib.crc32(start).to_bytes(4, "little") + start + body
    )
    assert sevenz.read_7z(blob) == entries


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


def _encrypted_zip() -> bytes:
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as zf:
        zf.writestr("secret.txt", b"hidden")
    data = bytearray(buf.getvalue())
    # Set the encryption bit in the local header and the central directory.
    data[6] |= 0x1
    data[data.index(b"PK\x01\x02") + 8] |= 0x1
    return bytes(data)


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
    matches = scan_entries(entries, BUILTIN_SIGNATURES, recursion_depth=0)
    assert any(m.signature_id == "eicar" for m in matches)


def test_benign_entries_clean(benign_tree):
    blob = inject_and_pack(benign_tree, None, ArchiveFormat.ZIP)
    entries = extract_bytes(blob, ArchiveFormat.ZIP)
    assert scan_entries(entries, BUILTIN_SIGNATURES, recursion_depth=3) == []


def test_nested_scan_reports_bang_paths():
    inner = pack_entries([("payload.py", EICAR_TEST_STRING)], ArchiveFormat.ZIP)
    middle = pack_entries([("inner.zip", inner), ("ok.txt", b"fine")], ArchiveFormat.TAR)
    entries = extract_bytes(middle, ArchiveFormat.TAR)
    matches = scan_entries(entries, BUILTIN_SIGNATURES, recursion_depth=2)
    nested = [m.entry_path for m in matches if "!" in m.entry_path]
    assert nested == ["inner.zip!payload.py"]
    shallow = scan_entries(entries, BUILTIN_SIGNATURES, recursion_depth=0)
    assert all("!" not in m.entry_path for m in shallow)


def test_nested_depth_two_levels():
    level2 = pack_entries([("p.py", EICAR_TEST_STRING)], ArchiveFormat.ZIP)
    level1 = pack_entries([("two.zip", level2)], ArchiveFormat.ZIP)
    outer = pack_entries([("one.zip", level1)], ArchiveFormat.TAR_XZ)
    entries = extract_bytes(outer, ArchiveFormat.TAR_XZ)
    matches = scan_entries(entries, BUILTIN_SIGNATURES, recursion_depth=2)
    assert "one.zip!two.zip!p.py" in {m.entry_path for m in matches}
    depth1 = {
        m.entry_path
        for m in scan_entries(entries, BUILTIN_SIGNATURES, recursion_depth=1)
    }
    assert "one.zip!two.zip!p.py" not in depth1


def test_signature_kinds():
    data = b"hello world"
    import hashlib

    sha = Signature("h", SignatureKind.SHA256, hashlib.sha256(data).hexdigest().encode())
    exact = Signature("e", SignatureKind.EXACT_BYTES, data)
    sub = Signature("s", SignatureKind.SUBSTRING, b"lo wo")
    entry = ArchiveEntry("f.txt", data)
    matches = scan_entries([entry], [sha, exact, sub], recursion_depth=0)
    assert {m.signature_id for m in matches} == {"h", "e", "s"}
    assert scan_entries([ArchiveEntry("g", b"other")], [sha, exact, sub], 0) == []


def test_signature_pattern_nonempty():
    with pytest.raises(ValueError):
        Signature("bad", SignatureKind.SUBSTRING, b"")


def test_signature_db_round_trip(tmp_path):
    path = tmp_path / "sigs.jsonl"
    path.write_text(dump_signatures(BUILTIN_SIGNATURES))
    loaded = load_signatures(path)
    assert loaded == list(BUILTIN_SIGNATURES)


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
