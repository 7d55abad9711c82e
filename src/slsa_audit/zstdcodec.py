"""Minimal zstd codec backed by the system libzstd via ctypes.

Only what archive handling needs: deterministic one-shot compression and
chunked streaming decompression so output caps can be enforced while
inflating untrusted data.
"""
from __future__ import annotations

import ctypes
import ctypes.util
from typing import Iterator

ZSTD_MAGIC = b"\x28\xb5\x2f\xfd"

_DEFAULT_LEVEL = 10


class ZstdError(Exception):
    """libzstd reported an error or the library is unavailable."""


class _InBuffer(ctypes.Structure):
    _fields_ = [
        ("src", ctypes.c_void_p),
        ("size", ctypes.c_size_t),
        ("pos", ctypes.c_size_t),
    ]


class _OutBuffer(ctypes.Structure):
    _fields_ = [
        ("dst", ctypes.c_void_p),
        ("size", ctypes.c_size_t),
        ("pos", ctypes.c_size_t),
    ]


_lib = None


def _load() -> ctypes.CDLL:
    global _lib
    if _lib is not None:
        return _lib
    name = ctypes.util.find_library("zstd")
    if name is None:
        raise ZstdError("libzstd not found; tar.zst support unavailable")
    lib = ctypes.CDLL(name)
    lib.ZSTD_compressBound.restype = ctypes.c_size_t
    lib.ZSTD_compressBound.argtypes = [ctypes.c_size_t]
    lib.ZSTD_compress.restype = ctypes.c_size_t
    lib.ZSTD_compress.argtypes = [
        ctypes.c_void_p,
        ctypes.c_size_t,
        ctypes.c_void_p,
        ctypes.c_size_t,
        ctypes.c_int,
    ]
    lib.ZSTD_isError.restype = ctypes.c_uint
    lib.ZSTD_isError.argtypes = [ctypes.c_size_t]
    lib.ZSTD_getErrorName.restype = ctypes.c_char_p
    lib.ZSTD_getErrorName.argtypes = [ctypes.c_size_t]
    lib.ZSTD_createDStream.restype = ctypes.c_void_p
    lib.ZSTD_freeDStream.argtypes = [ctypes.c_void_p]
    lib.ZSTD_initDStream.restype = ctypes.c_size_t
    lib.ZSTD_initDStream.argtypes = [ctypes.c_void_p]
    lib.ZSTD_decompressStream.restype = ctypes.c_size_t
    lib.ZSTD_decompressStream.argtypes = [
        ctypes.c_void_p,
        ctypes.POINTER(_OutBuffer),
        ctypes.POINTER(_InBuffer),
    ]
    _lib = lib
    return lib


def _check(lib: ctypes.CDLL, code: int) -> int:
    if lib.ZSTD_isError(code):
        raise ZstdError(lib.ZSTD_getErrorName(code).decode("ascii", "replace"))
    return code


def compress(data: bytes, level: int = _DEFAULT_LEVEL) -> bytes:
    lib = _load()
    bound = lib.ZSTD_compressBound(len(data))
    dst = ctypes.create_string_buffer(bound)
    written = _check(lib, lib.ZSTD_compress(dst, bound, data, len(data), level))
    return dst.raw[:written]


def decompress_chunks(data: bytes, chunk_size: int = 1 << 17) -> Iterator[bytes]:
    """Yield decompressed chunks; raises ZstdError on corrupt or truncated input."""
    lib = _load()
    stream = lib.ZSTD_createDStream()
    if not stream:
        raise ZstdError("ZSTD_createDStream failed")
    try:
        _check(lib, lib.ZSTD_initDStream(stream))
        src = ctypes.c_char_p(data)
        in_buf = _InBuffer(ctypes.cast(src, ctypes.c_void_p), len(data), 0)
        out_raw = ctypes.create_string_buffer(chunk_size)
        hint = 1
        while in_buf.pos < in_buf.size or hint != 0:
            out_buf = _OutBuffer(ctypes.cast(out_raw, ctypes.c_void_p), chunk_size, 0)
            hint = _check(lib, lib.ZSTD_decompressStream(stream, out_buf, in_buf))
            if out_buf.pos:
                yield out_raw.raw[: out_buf.pos]
            if hint == 0 and in_buf.pos >= in_buf.size:
                return
            if hint != 0 and in_buf.pos >= in_buf.size and out_buf.pos == 0:
                raise ZstdError("truncated zstd stream")
    finally:
        lib.ZSTD_freeDStream(stream)

