"""Reader/writer for the non-encrypted, LZMA/LZMA2-coded subset of 7z.

The writer produces deterministic archives: one LZMA2-coded folder holding
all non-empty files in entry order, a plain (non-encoded) header, no
timestamps or attributes. The reader additionally handles Copy and LZMA1
coders, encoded headers, and per-file CRC verification; AES-coded archives
raise a distinct encrypted-archive error so scanners can surface them.
"""
from __future__ import annotations

import io
import lzma
import zlib
from dataclasses import dataclass, field

MAGIC = b"7z\xbc\xaf\x27\x1c"

_K_END = 0x00
_K_HEADER = 0x01
_K_MAIN_STREAMS = 0x04
_K_FILES_INFO = 0x05
_K_PACK_INFO = 0x06
_K_UNPACK_INFO = 0x07
_K_SUBSTREAMS_INFO = 0x08
_K_SIZE = 0x09
_K_CRC = 0x0A
_K_FOLDER = 0x0B
_K_CODERS_UNPACK_SIZE = 0x0C
_K_NUM_UNPACK_STREAM = 0x0D
_K_EMPTY_STREAM = 0x0E
_K_EMPTY_FILE = 0x0F
_K_NAME = 0x11
_K_ENCODED_HEADER = 0x17
_K_DUMMY = 0x19

_CODER_COPY = b"\x00"
_CODER_LZMA2 = b"\x21"
_CODER_LZMA1 = b"\x03\x01\x01"
_CODER_AES256 = b"\x06\xf1\x07\x01"

_LZMA2_DICT_SIZE = 1 << 24


class SevenZipError(Exception):
    """Archive does not parse or uses features outside the supported subset."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (at offset {offset})"
        super().__init__(message)
        self.offset = offset


class SevenZipEncryptedError(SevenZipError):
    """Archive content or header is AES-encrypted."""


class SevenZipLimitError(SevenZipError):
    """Decompressed content is declared or inflates past the output cap."""


def _read_number(buf: io.BytesIO) -> int:
    head = buf.read(1)
    if not head:
        raise SevenZipError("unexpected end of header data")
    first = head[0]
    mask = 0x80
    value = 0
    for i in range(8):
        if (first & mask) == 0:
            value |= (first & (mask - 1)) << (8 * i)
            return value
        ext = buf.read(1)
        if not ext:
            raise SevenZipError("unexpected end of header data")
        value |= ext[0] << (8 * i)
        mask >>= 1
    return value


def _check_count(value: int, buf: io.BytesIO) -> int:
    """value, a count or size read from the header in buf. Each counted item
    takes at least one header byte, so a value larger than the header is
    corrupt; rejecting it keeps the lists and reads it sizes bounded."""
    size = len(buf.getbuffer())
    if value > size:
        raise SevenZipError(f"header count {value} is larger than the {size}-byte header")
    return value


def _read_count(buf: io.BytesIO) -> int:
    return _check_count(_read_number(buf), buf)


def _write_number(value: int) -> bytes:
    if value < 0:
        raise ValueError("negative numbers are not representable")
    for ext_bytes in range(8):
        if value < 1 << (7 * (ext_bytes + 1)):
            high = value >> (8 * ext_bytes)
            first = ((0xFF << (8 - ext_bytes)) & 0xFF) | high
            low = value & ((1 << (8 * ext_bytes)) - 1)
            return bytes([first]) + low.to_bytes(ext_bytes, "little")
    return b"\xff" + value.to_bytes(8, "little")


def _read_byte(buf: io.BytesIO) -> int:
    data = buf.read(1)
    if not data:
        raise SevenZipError("unexpected end of header data")
    return data[0]


def _read_bits(buf: io.BytesIO, count: int) -> list[bool]:
    data = buf.read((count + 7) // 8)
    if len(data) * 8 < count:
        raise SevenZipError("truncated bit vector")
    return [bool(data[i // 8] & (0x80 >> (i % 8))) for i in range(count)]


def _write_bits(bits: list[bool]) -> bytes:
    out = bytearray((len(bits) + 7) // 8)
    for i, bit in enumerate(bits):
        if bit:
            out[i // 8] |= 0x80 >> (i % 8)
    return bytes(out)


def _read_optional_bits(buf: io.BytesIO, count: int) -> list[bool]:
    # kCRC-style: AllAreDefined byte, else explicit vector.
    if _read_byte(buf):
        return [True] * count
    return _read_bits(buf, count)


@dataclass
class _Coder:
    codec_id: bytes
    properties: bytes = b""


@dataclass
class _Folder:
    coders: list[_Coder] = field(default_factory=list)
    unpack_sizes: list[int] = field(default_factory=list)
    num_unpack_streams: int = 1
    substream_sizes: list[int] = field(default_factory=list)
    substream_crcs: list[int | None] = field(default_factory=list)
    crc: int | None = None

    @property
    def unpack_size(self) -> int:
        return self.unpack_sizes[-1] if self.unpack_sizes else 0


@dataclass
class _StreamsInfo:
    pack_pos: int = 0
    pack_sizes: list[int] = field(default_factory=list)
    folders: list[_Folder] = field(default_factory=list)


def _parse_folder(buf: io.BytesIO) -> _Folder:
    folder = _Folder()
    num_coders = _read_count(buf)
    total_in = 0
    total_out = 0
    for _ in range(num_coders):
        flags = _read_byte(buf)
        id_size = flags & 0x0F
        codec_id = buf.read(id_size)
        num_in = num_out = 1
        if flags & 0x10:
            num_in = _read_count(buf)
            num_out = _read_count(buf)
        properties = b""
        if flags & 0x20:
            properties = buf.read(_read_count(buf))
        total_in += num_in
        total_out += num_out
        folder.coders.append(_Coder(codec_id=codec_id, properties=properties))
    for _ in range(total_out - 1):
        _read_number(buf)  # bind pair in-index
        _read_number(buf)  # bind pair out-index
    num_packed = total_in - (total_out - 1)
    if num_packed > 1:
        for _ in range(num_packed):
            _read_number(buf)
    return folder


def _parse_streams_info(buf: io.BytesIO) -> _StreamsInfo:
    info = _StreamsInfo()
    prop = _read_number(buf)
    if prop == _K_PACK_INFO:
        info.pack_pos = _read_number(buf)
        num_pack = _read_count(buf)
        while True:
            sub = _read_number(buf)
            if sub == _K_END:
                break
            if sub == _K_SIZE:
                info.pack_sizes = [_read_number(buf) for _ in range(num_pack)]
            elif sub == _K_CRC:
                defined = _read_optional_bits(buf, num_pack)
                buf.read(4 * sum(defined))
            else:
                raise SevenZipError(f"unexpected property {sub:#x} in pack info")
        prop = _read_number(buf)
    if prop == _K_UNPACK_INFO:
        if _read_number(buf) != _K_FOLDER:
            raise SevenZipError("expected folder property in unpack info")
        num_folders = _read_count(buf)
        if _read_byte(buf) != 0:
            raise SevenZipError("external folder data is not supported")
        info.folders = [_parse_folder(buf) for _ in range(num_folders)]
        if _read_number(buf) != _K_CODERS_UNPACK_SIZE:
            raise SevenZipError("expected coders-unpack-size property")
        for folder in info.folders:
            folder.unpack_sizes = [_read_number(buf) for _ in folder.coders]
        while True:
            sub = _read_number(buf)
            if sub == _K_END:
                break
            if sub == _K_CRC:
                defined = _read_optional_bits(buf, len(info.folders))
                for folder, has_crc in zip(info.folders, defined):
                    folder.crc = int.from_bytes(buf.read(4), "little") if has_crc else None
            else:
                raise SevenZipError(f"unexpected property {sub:#x} in unpack info")
        prop = _read_number(buf)
    for folder in info.folders:
        folder.num_unpack_streams = 1
    if prop == _K_SUBSTREAMS_INFO:
        prop = _read_number(buf)
        if prop == _K_NUM_UNPACK_STREAM:
            for folder in info.folders:
                folder.num_unpack_streams = _read_count(buf)
            _check_count(sum(f.num_unpack_streams for f in info.folders), buf)
            prop = _read_number(buf)
        for folder in info.folders:
            if folder.num_unpack_streams == 0:
                folder.substream_sizes = []
                continue
            sizes: list[int] = []
            if prop == _K_SIZE:
                for _ in range(folder.num_unpack_streams - 1):
                    sizes.append(_read_number(buf))
            else:
                if folder.num_unpack_streams != 1:
                    raise SevenZipError("substream sizes missing")
            sizes.append(folder.unpack_size - sum(sizes))
            folder.substream_sizes = sizes
        if prop == _K_SIZE:
            prop = _read_number(buf)
        num_unknown = 0
        for folder in info.folders:
            if folder.num_unpack_streams != 1 or folder.crc is None:
                num_unknown += folder.num_unpack_streams
        if prop == _K_CRC:
            defined = _read_optional_bits(buf, num_unknown)
            digests = [
                int.from_bytes(buf.read(4), "little") if has else None for has in defined
            ]
            cursor = 0
            for folder in info.folders:
                if folder.num_unpack_streams == 1 and folder.crc is not None:
                    folder.substream_crcs = [folder.crc]
                else:
                    folder.substream_crcs = digests[cursor : cursor + folder.num_unpack_streams]
                    cursor += folder.num_unpack_streams
            prop = _read_number(buf)
        else:
            for folder in info.folders:
                if folder.num_unpack_streams == 1 and folder.crc is not None:
                    folder.substream_crcs = [folder.crc]
                else:
                    folder.substream_crcs = [None] * folder.num_unpack_streams
        if prop != _K_END:
            raise SevenZipError(f"unexpected property {prop:#x} in substreams info")
        prop = _read_number(buf)
    else:
        for folder in info.folders:
            folder.substream_sizes = [folder.unpack_size]
            folder.substream_crcs = [folder.crc]
    if prop != _K_END:
        raise SevenZipError(f"unexpected property {prop:#x} in streams info")
    return info


def _decode_folder(folder: _Folder, packed: bytes, max_output: int | None) -> bytes:
    if len(folder.coders) != 1:
        raise SevenZipError("multi-coder 7z folders are not supported")
    coder = folder.coders[0]
    if coder.codec_id == _CODER_AES256:
        raise SevenZipEncryptedError("7z archive is AES-encrypted")
    if coder.codec_id == _CODER_COPY:
        return packed[: folder.unpack_size]
    if coder.codec_id == _CODER_LZMA2:
        filter_id = lzma.FILTER_LZMA2
    elif coder.codec_id == _CODER_LZMA1:
        filter_id = lzma.FILTER_LZMA1
    else:
        raise SevenZipError(f"unsupported 7z coder {coder.codec_id.hex()}")
    out = bytearray()
    fed = False
    try:
        filt = lzma._decode_filter_properties(filter_id, coder.properties)
        decompressor = lzma.LZMADecompressor(format=lzma.FORMAT_RAW, filters=[filt])
        while not decompressor.eof and len(out) < folder.unpack_size:
            chunk = decompressor.decompress(packed if not fed else b"", max_length=1 << 17)
            fed = True
            if not chunk:
                break
            out += chunk
            if max_output is not None and len(out) > max_output:
                raise SevenZipLimitError("7z output exceeds configured limit")
    except lzma.LZMAError as exc:
        raise SevenZipError(f"corrupt 7z stream: {exc}") from exc
    if len(out) < folder.unpack_size:
        raise SevenZipError("7z stream ended before declared unpack size")
    return bytes(out[: folder.unpack_size])


def _parse_files_info(buf: io.BytesIO) -> tuple[list[str], list[bool], list[bool]]:
    num_files = _read_count(buf)
    names: list[str] = []
    empty_stream = [False] * num_files
    empty_file: list[bool] = []
    while True:
        prop = _read_number(buf)
        if prop == _K_END:
            break
        size = _read_count(buf)
        data = buf.read(size)
        if len(data) != size:
            raise SevenZipError("truncated files-info property")
        sub = io.BytesIO(data)
        if prop == _K_EMPTY_STREAM:
            empty_stream = _read_bits(sub, num_files)
        elif prop == _K_EMPTY_FILE:
            empty_file = _read_bits(sub, sum(empty_stream))
        elif prop == _K_NAME:
            if _read_byte(sub) != 0:
                raise SevenZipError("external file names are not supported")
            try:
                text = sub.read().decode("utf-16-le")
            except UnicodeDecodeError as exc:
                raise SevenZipError(f"undecodable file names: {exc}") from exc
            names = text.split("\x00")[:-1] if text else []
        elif prop == _K_DUMMY:
            continue
        # kMTime/kWinAttributes and friends are skipped via their size.
    if len(names) != num_files:
        raise SevenZipError("file name count does not match file count")
    if not empty_file:
        empty_file = [False] * sum(empty_stream)
    return names, empty_stream, empty_file


def read_7z(data: bytes, max_output: int | None = None) -> list[tuple[str, bytes]]:
    """Parse a 7z archive into (path, content) pairs for regular files.

    Directory entries are dropped; names are normalized to forward slashes.
    max_output caps the total decompressed size (bomb guard).
    """
    if len(data) < 32 or not data.startswith(MAGIC):
        raise SevenZipError("not a 7z archive", offset=0)
    start_header = data[12:32]
    if zlib.crc32(start_header) != int.from_bytes(data[8:12], "little"):
        raise SevenZipError("start header CRC mismatch", offset=8)
    next_offset = int.from_bytes(start_header[0:8], "little")
    next_size = int.from_bytes(start_header[8:16], "little")
    next_crc = int.from_bytes(start_header[16:20], "little")
    header_start = 32 + next_offset
    header = data[header_start : header_start + next_size]
    if len(header) != next_size:
        raise SevenZipError("truncated header", offset=header_start)
    if zlib.crc32(header) != next_crc:
        raise SevenZipError("header CRC mismatch", offset=header_start)
    if not header:
        return []
    buf = io.BytesIO(header)
    kind = _read_number(buf)
    if kind == _K_ENCODED_HEADER:
        info = _parse_streams_info(buf)
        if not info.folders or not info.pack_sizes:
            raise SevenZipError("encoded header missing streams")
        packed_start = 32 + info.pack_pos
        packed = data[packed_start : packed_start + info.pack_sizes[0]]
        header = _decode_folder(info.folders[0], packed, max_output)
        buf = io.BytesIO(header)
        kind = _read_number(buf)
    if kind != _K_HEADER:
        raise SevenZipError(f"unexpected header property {kind:#x}")
    streams = _StreamsInfo()
    names: list[str] = []
    empty_stream: list[bool] = []
    empty_file: list[bool] = []
    while True:
        prop = _read_number(buf)
        if prop == _K_END:
            break
        if prop == _K_MAIN_STREAMS:
            streams = _parse_streams_info(buf)
        elif prop == _K_FILES_INFO:
            names, empty_stream, empty_file = _parse_files_info(buf)
        else:
            raise SevenZipError(f"unsupported header section {prop:#x}")
    declared = sum(f.unpack_size for f in streams.folders)
    if max_output is not None and declared > max_output:
        raise SevenZipLimitError(f"declared 7z content ({declared} bytes) exceeds limit")
    # Decode folders sequentially; each consumes one packed stream.
    substreams: list[bytes] = []
    crcs: list[int | None] = []
    cursor = 32 + streams.pack_pos
    for folder, pack_size in zip(streams.folders, streams.pack_sizes):
        packed = data[cursor : cursor + pack_size]
        cursor += pack_size
        blob = _decode_folder(folder, packed, max_output)
        pos = 0
        for size in folder.substream_sizes:
            substreams.append(blob[pos : pos + size])
            pos += size
        crcs.extend(folder.substream_crcs)
    if not names:
        return []
    if not empty_stream:
        empty_stream = [False] * len(names)
    entries: list[tuple[str, bytes]] = []
    stream_index = 0
    empty_index = 0
    for name, is_empty in zip(names, empty_stream):
        normalized = name.replace("\\", "/")
        if is_empty:
            is_file = empty_file[empty_index] if empty_index < len(empty_file) else False
            empty_index += 1
            if is_file:
                entries.append((normalized, b""))
            continue  # directories carry no stream and are dropped
        if stream_index >= len(substreams):
            raise SevenZipError("more file streams declared than decoded")
        content = substreams[stream_index]
        expected_crc = crcs[stream_index] if stream_index < len(crcs) else None
        stream_index += 1
        if expected_crc is not None and zlib.crc32(content) != expected_crc:
            raise SevenZipError(f"CRC mismatch for entry {normalized!r}")
        entries.append((normalized, content))
    return entries


def write_7z(entries: list[tuple[str, bytes]]) -> bytes:
    """Build a deterministic 7z archive from (path, content) pairs.

    Entry order is preserved; callers wanting canonical output sort first.
    """
    non_empty = [(p, d) for p, d in entries if d]
    blob = b"".join(d for _, d in non_empty)
    packed = b""
    props = b""
    if blob:
        filter_spec = {"id": lzma.FILTER_LZMA2, "dict_size": _LZMA2_DICT_SIZE}
        props = lzma._encode_filter_properties(dict(filter_spec))
        compressor = lzma.LZMACompressor(format=lzma.FORMAT_RAW, filters=[dict(filter_spec)])
        packed = compressor.compress(blob) + compressor.flush()

    header = bytearray()
    header += _write_number(_K_HEADER)
    if packed:
        header += _write_number(_K_MAIN_STREAMS)
        header += _write_number(_K_PACK_INFO)
        header += _write_number(0)  # pack position
        header += _write_number(1)  # one packed stream
        header += _write_number(_K_SIZE)
        header += _write_number(len(packed))
        header += _write_number(_K_END)
        header += _write_number(_K_UNPACK_INFO)
        header += _write_number(_K_FOLDER)
        header += _write_number(1)  # one folder
        header += bytes([0])  # not external
        header += _write_number(1)  # one coder
        header += bytes([len(_CODER_LZMA2) | 0x20])  # id size + has-attributes
        header += _CODER_LZMA2
        header += _write_number(len(props))
        header += props
        header += _write_number(_K_CODERS_UNPACK_SIZE)
        header += _write_number(len(blob))
        header += _write_number(_K_END)
        header += _write_number(_K_SUBSTREAMS_INFO)
        header += _write_number(_K_NUM_UNPACK_STREAM)
        header += _write_number(len(non_empty))
        if len(non_empty) > 1:
            header += _write_number(_K_SIZE)
            for _, content in non_empty[:-1]:
                header += _write_number(len(content))
        header += _write_number(_K_CRC)
        header += bytes([1])  # all CRCs defined
        for _, content in non_empty:
            header += zlib.crc32(content).to_bytes(4, "little")
        header += _write_number(_K_END)
        header += _write_number(_K_END)
    if entries:
        files_info = bytearray()
        files_info += _write_number(len(entries))
        empty_bits = [not d for _, d in entries]
        if any(empty_bits):
            vector = _write_bits(empty_bits)
            files_info += _write_number(_K_EMPTY_STREAM)
            files_info += _write_number(len(vector))
            files_info += vector
            # Every streamless entry is a real empty file, never a directory.
            file_vector = _write_bits([True] * sum(empty_bits))
            files_info += _write_number(_K_EMPTY_FILE)
            files_info += _write_number(len(file_vector))
            files_info += file_vector
        names = bytearray()
        names += bytes([0])  # not external
        for path, _ in entries:
            names += path.encode("utf-16-le") + b"\x00\x00"
        files_info += _write_number(_K_NAME)
        files_info += _write_number(len(names))
        files_info += names
        files_info += _write_number(_K_END)
        header += _write_number(_K_FILES_INFO)
        header += files_info
    header += _write_number(_K_END)

    header_bytes = bytes(header)
    start_header = (
        len(packed).to_bytes(8, "little")
        + len(header_bytes).to_bytes(8, "little")
        + zlib.crc32(header_bytes).to_bytes(4, "little")
    )
    return (
        MAGIC
        + bytes([0, 4])
        + zlib.crc32(start_header).to_bytes(4, "little")
        + start_header
        + packed
        + header_bytes
    )
