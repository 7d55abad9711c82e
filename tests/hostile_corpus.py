"""The demo corpus with hostile archives and symlinks added, for tests that
compare two ways of scanning it.

    python tests/hostile_corpus.py OUT_DIR

writes the corpus to OUT_DIR, and the files its symlinks point at to
OUT_DIR-outside, so that the output of ``slsa-audit scan-all`` can be
compared between two versions of the program.
"""
from __future__ import annotations

import io
import sys
import tarfile
import zipfile
from pathlib import Path

from slsa_audit.archive import EICAR_TEST_STRING, ArchiveFormat, pack_entries
from slsa_audit.demo import build_demo_corpus

HOSTILE_SLUG = "testbed__zip-bundle-serverless"

# Component files that are symlinks out of the corpus, with their targets'
# bytes: each would give a finding if it were read.
SYMLINKS = {
    "acme__serverless-resizer/tree/vendor/requirements.txt": b"urllib3==1.25.8\n",
    "acme__iac-library-serverless/iac/linked.yaml": (
        b"Resources:\n  Open:\n    Type: AWS::S3::Bucket\n"
        b"    Properties:\n      AccessControl: PublicReadWrite\n"
    ),
    "dana__queue-worker-serverless/run_commands.txt": b"docker run --privileged img\n",
}


def encrypted_zip() -> bytes:
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as zf:
        zf.writestr("secret.txt", b"hidden")
    data = bytearray(buf.getvalue())
    # Set the encryption bit in the local header and the central directory.
    data[6] |= 0x1
    data[data.index(b"PK\x01\x02") + 8] |= 0x1
    return bytes(data)


def tar_blob(members: list[tuple[str, bytes]], format: int = tarfile.USTAR_FORMAT) -> bytes:
    buf = io.BytesIO()
    with tarfile.open(fileobj=buf, mode="w", format=format) as tar:
        for name, data in members:
            info = tarfile.TarInfo(name=name)
            info.size = len(data)
            tar.addfile(info, io.BytesIO(data))
    return buf.getvalue()


def gnu_sparse_tar(chunks: list[tuple[int, bytes]], real_size: int) -> bytes:
    """One old-GNU sparse member ('S') holding chunks at their offsets."""
    stored = b"".join(data for _, data in chunks)
    info = tarfile.TarInfo("sparse.bin")
    info.type = tarfile.GNUTYPE_SPARSE
    info.size = len(stored)
    header = bytearray(info.tobuf(format=tarfile.GNU_FORMAT))
    for slot, (offset, data) in enumerate(chunks):
        pos = 386 + 24 * slot
        header[pos : pos + 12] = tarfile.itn(offset, 12, tarfile.GNU_FORMAT)
        header[pos + 12 : pos + 24] = tarfile.itn(len(data), 12, tarfile.GNU_FORMAT)
    header[483:495] = tarfile.itn(real_size, 12, tarfile.GNU_FORMAT)
    header[148:156] = b" " * 8
    header[148:156] = b"%06o\0 " % sum(header)
    padding = -len(stored) % 512
    return bytes(header) + stored + bytes(padding) + bytes(1024)


def build_hostile_corpus(root: str | Path) -> Path:
    """The demo corpus, whose archive component also holds a truncated and
    an encrypted zip, a tar.gz bomb, a file that is no archive, pax, GNU
    and sparse tars, a zip nested in a zip and a zip in a subdirectory,
    with the test signature in some of them. Three components hold a
    symlink to a file outside the corpus (`SYMLINKS`), which a scan must
    not read."""
    root = build_demo_corpus(root)
    outside = Path(f"{root.resolve()}-outside")
    outside.mkdir(exist_ok=True)
    for rel, data in SYMLINKS.items():
        target = outside / rel.replace("/", "__")
        target.write_bytes(data)
        (root / rel).parent.mkdir(exist_ok=True)
        (root / rel).symlink_to(target)
    archives = root / HOSTILE_SLUG / "archives"
    long_name = "deep/" + "d" * 120 + "/payload.py"
    inner = pack_entries([("inner/eicar.com", EICAR_TEST_STRING)], ArchiveFormat.ZIP)
    files = {
        "cut.zip": (archives / "bundle.zip").read_bytes()[:40],
        "locked.zip": encrypted_zip(),
        "bomb.tar.gz": pack_entries([("zeros.bin", bytes(1 << 22))], ArchiveFormat.TAR_GZ),
        "notes.txt": b"not an archive\n",
        "pax.tar": tar_blob([(long_name, EICAR_TEST_STRING), ("short", b"s")], tarfile.PAX_FORMAT),
        "gnu.tar": tar_blob([(long_name, b"g"), ("short", b"s")], tarfile.GNU_FORMAT),
        "sparse.tar": gnu_sparse_tar([(0, b"head"), (100, EICAR_TEST_STRING)], 400),
        "nested.zip": pack_entries([("inner.zip", inner)], ArchiveFormat.ZIP),
    }
    (archives / "sub").mkdir()
    files["sub/hidden.zip"] = (archives / "bundle.zip").read_bytes()
    for name, data in files.items():
        (archives / name).write_bytes(data)
    return root


if __name__ == "__main__":
    build_hostile_corpus(sys.argv[1])
