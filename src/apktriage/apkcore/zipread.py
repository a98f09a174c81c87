"""Minimal ZIP reader driven by the central directory.

Sizes and names come from the central directory only; local headers are
consulted just to locate the start of entry data. Duplicate paths keep
the last central-directory record, mirroring installer behaviour. DOS
timestamps carry no zone and are interpreted as UTC.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from datetime import datetime, timezone

from apktriage.apkcore.errors import NotAZip

_EOCD_SIG = b"PK\x05\x06"
_CDIR_SIG = b"PK\x01\x02"
_LOCAL_SIG = b"PK\x03\x04"

STORED = 0
DEFLATED = 8


@dataclass(frozen=True)
class ZipEntry:
    path: str
    size: int
    compressed_size: int
    method: int
    mtime: datetime
    header_offset: int
    crc32: int


def _dos_to_utc(dos_date: int, dos_time: int) -> datetime:
    year = 1980 + ((dos_date >> 9) & 0x7F)
    month = (dos_date >> 5) & 0x0F
    day = dos_date & 0x1F
    hour = (dos_time >> 11) & 0x1F
    minute = (dos_time >> 5) & 0x3F
    second = (dos_time & 0x1F) * 2
    try:
        return datetime(year, month, day, hour, minute, min(second, 59), tzinfo=timezone.utc)
    except ValueError:
        return datetime(1980, 1, 1, tzinfo=timezone.utc)


def _find_eocd(data: bytes) -> int:
    # EOCD is at the tail; the comment may push it back up to 64 KiB.
    tail = data[-(0xFFFF + 22):]
    pos = tail.rfind(_EOCD_SIG)
    if pos < 0:
        raise NotAZip("end-of-central-directory record not found")
    return len(data) - len(tail) + pos


def list_entries(data: bytes) -> list[ZipEntry]:
    """Parse the central directory; duplicate paths keep the last record."""
    if len(data) < 22 or not data.startswith((_LOCAL_SIG, _EOCD_SIG, _CDIR_SIG)):
        # Empty archives legitimately start with the EOCD signature.
        raise NotAZip("bad magic")
    eocd = _find_eocd(data)
    count, cd_size, cd_offset = struct.unpack_from("<HII", data, eocd + 10)
    pos = cd_offset
    by_path: dict[str, ZipEntry] = {}
    for _ in range(count):
        if data[pos:pos + 4] != _CDIR_SIG:
            raise NotAZip("truncated central directory")
        try:
            (_, _, _, method, dos_time, dos_date, crc, csize, usize,
             name_len, extra_len, comment_len) = struct.unpack_from("<HHHHHHIIIHHH", data, pos + 4)
            (header_offset,) = struct.unpack_from("<I", data, pos + 42)
            name = data[pos + 46: pos + 46 + name_len].decode("utf-8", "replace")
        except struct.error:
            raise NotAZip("truncated central directory") from None
        path = name.replace("\\", "/")
        by_path[path] = ZipEntry(
            path=path, size=usize, compressed_size=csize, method=method,
            mtime=_dos_to_utc(dos_date, dos_time), header_offset=header_offset, crc32=crc,
        )
        pos += 46 + name_len + extra_len + comment_len
    return list(by_path.values())


def read_entry(data: bytes, entry: ZipEntry) -> bytes:
    """Entry data, checked against the central directory's size and CRC-32.

    Inflating stops one byte past the declared size, so a stream that
    claims a small size costs no more memory than that size.
    """
    off = entry.header_offset
    if data[off:off + 4] != _LOCAL_SIG or len(data) < off + 30:
        raise NotAZip(f"bad local header for {entry.path}")
    name_len, extra_len = struct.unpack_from("<HH", data, off + 26)
    start = off + 30 + name_len + extra_len
    raw = memoryview(data)[start:start + entry.compressed_size]  # a view, not a copy
    if len(raw) != entry.compressed_size:
        raise NotAZip(f"truncated data for {entry.path}")
    if entry.method == STORED:
        out = bytes(raw)
    elif entry.method == DEFLATED:
        inflater = zlib.decompressobj(-15)
        try:
            # One byte more than declared shows an overlong stream; it also
            # keeps a limit for a zero size, which zlib reads as "none".
            out = inflater.decompress(raw, entry.size + 1)
        except zlib.error as e:
            raise NotAZip(f"bad deflate stream for {entry.path}: {e}") from None
        if not inflater.eof or len(out) != entry.size:
            raise NotAZip(f"deflate stream for {entry.path} does not inflate "
                          f"to its declared {entry.size} bytes")
    else:
        raise NotAZip(f"unsupported compression method {entry.method} for {entry.path}")
    if zlib.crc32(out) != entry.crc32:
        raise NotAZip(f"CRC-32 mismatch for {entry.path}")
    return out
