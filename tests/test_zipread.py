"""ZIP central-directory reader tests; fixtures built with stdlib zipfile."""

import io
import struct
import tracemalloc
import zipfile
import zlib
from datetime import datetime, timezone

import pytest

from apktriage.apkcore import zipread
from apktriage.apkcore.errors import NotAZip


def make_zip(entries, method=zipfile.ZIP_DEFLATED, date_time=(2021, 3, 4, 5, 6, 8)):
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w", method) as z:
        for path, data in entries:
            info = zipfile.ZipInfo(path, date_time=date_time)
            info.compress_type = method
            z.writestr(info, data)
    return buf.getvalue()


def test_list_and_read_round_trip():
    data = make_zip([("a.txt", b"alpha"), ("dir/b.bin", bytes(range(256)) * 4)])
    entries = {e.path: e for e in zipread.list_entries(data)}
    assert set(entries) == {"a.txt", "dir/b.bin"}
    assert entries["a.txt"].size == 5
    assert zipread.read_entry(data, entries["a.txt"]) == b"alpha"
    assert zipread.read_entry(data, entries["dir/b.bin"]) == bytes(range(256)) * 4


def test_stored_method():
    data = make_zip([("s.bin", b"stored-data")], method=zipfile.ZIP_STORED)
    (entry,) = zipread.list_entries(data)
    assert entry.method == zipread.STORED
    assert zipread.read_entry(data, entry) == b"stored-data"


def test_duplicate_paths_last_wins():
    # stdlib zipfile refuses duplicates politely, so append a second archive
    # record by concatenating central directories manually via two writes
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as z:
        z.writestr("dup.txt", b"first")
        with pytest.warns(UserWarning):
            z.writestr("dup.txt", b"second")
    data = buf.getvalue()
    entries = zipread.list_entries(data)
    assert len(entries) == 1
    assert zipread.read_entry(data, entries[0]) == b"second"


def test_dos_timestamp_utc():
    data = make_zip([("t.txt", b"x")], date_time=(2020, 12, 6, 1, 2, 4))
    (entry,) = zipread.list_entries(data)
    assert entry.mtime == datetime(2020, 12, 6, 1, 2, 4, tzinfo=timezone.utc)
    assert entry.mtime.tzinfo is timezone.utc


def test_sizes_come_from_central_directory():
    data = bytearray(make_zip([("a.txt", b"hello world hello world")]))
    # corrupt the local-header size fields; central directory must win
    assert data[:4] == b"PK\x03\x04"
    data[18:26] = b"\xff" * 8  # local compressed+uncompressed size
    (entry,) = zipread.list_entries(bytes(data))
    assert entry.size == 23
    assert zipread.read_entry(bytes(data), entry) == b"hello world hello world"


def test_not_a_zip():
    with pytest.raises(NotAZip):
        zipread.list_entries(b"this is not a zip file at all..")
    with pytest.raises(NotAZip):
        zipread.list_entries(b"PK\x03\x04 truncated")


def test_corrupted_central_directory_signature():
    data = bytearray(make_zip([("a.txt", b"alpha")]))
    cd = bytes(data).rfind(b"PK\x01\x02")
    data[cd] = 0x00
    with pytest.raises(NotAZip):
        zipread.list_entries(bytes(data))


def test_empty_archive():
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w"):
        pass
    assert zipread.list_entries(buf.getvalue()) == []


def raw_deflate_zip(name: str, stream: bytes, size: int, crc: int) -> bytes:
    """One deflated entry whose declared size and CRC-32 are given apart
    from its deflate stream, packed by hand as PKWARE APPNOTE 4.3 lays out."""
    fname = name.encode()
    local = struct.pack("<4sHHHHHIIIHH", b"PK\x03\x04", 20, 0, 8, 0, 0x21,
                        crc, len(stream), size, len(fname), 0) + fname
    central = struct.pack("<4sHHHHHHIIIHHHHHII", b"PK\x01\x02", 20, 20, 0, 8, 0, 0x21,
                          crc, len(stream), size, len(fname), 0, 0, 0, 0, 0, 0) + fname
    eocd = struct.pack("<4sHHHHIIH", b"PK\x05\x06", 0, 0, 1, 1, len(central),
                       len(local) + len(stream), 0)
    return local + stream + central + eocd


def deflate(data: bytes) -> bytes:
    c = zlib.compressobj(9, zlib.DEFLATED, -15)
    return c.compress(data) + c.flush()


@pytest.mark.parametrize("body", [b"declared honestly " * 10, b""])
def test_raw_deflate_zip_reads_back(body):
    data = raw_deflate_zip("ok.bin", deflate(body), len(body), zlib.crc32(body))
    (entry,) = zipread.list_entries(data)
    assert zipread.read_entry(data, entry) == body


def test_inflate_bomb_rejected_with_bounded_memory():
    c = zlib.compressobj(9, zlib.DEFLATED, -15)
    chunk, crc = bytes(1 << 20), 0
    parts = []
    for _ in range(64):  # 64 MiB of zeros, never held in memory at once
        parts.append(c.compress(chunk))
        crc = zlib.crc32(chunk, crc)
    data = raw_deflate_zip("bomb.bin", b"".join(parts) + c.flush(), 1000, crc)
    (entry,) = zipread.list_entries(data)
    tracemalloc.start()
    try:
        with pytest.raises(NotAZip):
            zipread.read_entry(data, entry)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# Each entry carries the CRC-32 of what its stream inflates to, so only the
# size checks can reject it.
@pytest.mark.parametrize("body,stream,size", [
    pytest.param(b"short", deflate(b"short"), 50, id="shorter-than-declared"),
    pytest.param(b"x" * 50, deflate(b"x" * 50)[:-3], 50, id="truncated-stream"),
    pytest.param(b"y" * 50, deflate(b"y" * 50), 49, id="longer-than-declared"),
    pytest.param(b"y" * 50, deflate(b"y" * 50), 0, id="declared-empty"),
])
def test_inflated_size_must_match_declared(body, stream, size):
    data = raw_deflate_zip("e.bin", stream, size, zlib.crc32(body))
    (entry,) = zipread.list_entries(data)
    with pytest.raises(NotAZip):
        zipread.read_entry(data, entry)


@pytest.mark.parametrize("method", [zipfile.ZIP_DEFLATED, zipfile.ZIP_STORED])
def test_crc_mismatch_rejected(method):
    data = bytearray(make_zip([("a.txt", b"alpha")], method=method))
    cd = bytes(data).rfind(b"PK\x01\x02")
    data[cd + 16] ^= 0x01  # low byte of the central directory's CRC-32
    (entry,) = zipread.list_entries(bytes(data))
    with pytest.raises(NotAZip, match="CRC"):
        zipread.read_entry(bytes(data), entry)


def test_truncated_local_header():
    data = make_zip([("a.txt", b"alpha")])
    (entry,) = zipread.list_entries(data)
    with pytest.raises(NotAZip):
        zipread.read_entry(data[:10], entry)
