"""Parser for Android's binary XML encoding (AndroidManifest.xml).

Chunk-based: file header 0x0003 wraps a string pool (0x0001, UTF-8 or
UTF-16), an optional resource map (0x0180) and namespace/element chunks.
Attribute values are resolved through the string pool and typed-value
records.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from apktriage.apkcore.errors import ManifestUndecodable

CHUNK_STRING_POOL = 0x0001
CHUNK_XML = 0x0003
CHUNK_START_ELEMENT = 0x0102
CHUNK_END_ELEMENT = 0x0103
CHUNK_RESOURCE_MAP = 0x0180

TYPE_STRING = 0x03
TYPE_INT_BOOLEAN = 0x12

UTF8_FLAG = 1 << 8

# Attribute names referenced through the resource map may have an empty
# string-pool entry; recover the one the manifest analysis needs.
_RES_ATTR_NAMES = {0x01010003: "name"}


@dataclass
class AxmlAttribute:
    namespace: str
    name: str
    value: object  # str | int | bool


@dataclass
class AxmlElement:
    name: str
    attributes: list[AxmlAttribute]
    children: list["AxmlElement"] = field(default_factory=list)

    def attr(self, name: str):
        for a in self.attributes:
            if a.name == name:
                return a.value
        return None

    def find_all(self, name: str):
        for c in self.children:
            if c.name == name:
                yield c


class _StringPool:
    def __init__(self, data: bytes, chunk_off: int, chunk_size: int):
        if chunk_size < 28:
            raise ManifestUndecodable("string pool chunk shorter than its header")
        (count, _style_count, flags, strings_start, _styles_start) = struct.unpack_from(
            "<IIIII", data, chunk_off + 8)
        if 28 + 4 * count > chunk_size:
            raise ManifestUndecodable(f"string pool count {count} runs past its chunk")
        self.utf8 = bool(flags & UTF8_FLAG)
        self.offsets = struct.unpack_from(f"<{count}I", data, chunk_off + 28)
        self.base = chunk_off + strings_start
        self.data = data

    def get(self, idx: int) -> str:
        if idx == 0xFFFFFFFF:
            return ""
        if idx >= len(self.offsets):
            raise ManifestUndecodable(f"string index {idx} out of range")
        pos = self.base + self.offsets[idx]
        try:
            if self.utf8:
                # two lengths: UTF-16 unit count then byte count, each 1 or 2 bytes
                _, pos = self._len8(pos)
                blen, pos = self._len8(pos)
                return self.data[pos:pos + blen].decode("utf-8", "replace")
            ulen, pos = self._len16(pos)
            return self.data[pos:pos + 2 * ulen].decode("utf-16-le", "replace")
        except (IndexError, struct.error):
            raise ManifestUndecodable("truncated string pool") from None

    def _len8(self, pos):
        v = self.data[pos]
        if v & 0x80:
            return ((v & 0x7F) << 8) | self.data[pos + 1], pos + 2
        return v, pos + 1

    def _len16(self, pos):
        v = struct.unpack_from("<H", self.data, pos)[0]
        if v & 0x8000:
            hi = struct.unpack_from("<H", self.data, pos + 2)[0]
            return ((v & 0x7FFF) << 16) | hi, pos + 4
        return v, pos + 2


def parse_axml(data: bytes) -> AxmlElement:
    """Decode a binary-XML document into an element tree."""
    if len(data) < 8:
        raise ManifestUndecodable("input shorter than a chunk header")
    magic, header_size, total = struct.unpack_from("<HHI", data, 0)
    if magic != CHUNK_XML:
        raise ManifestUndecodable(f"bad file chunk type 0x{magic:04x}")
    if total > len(data) or header_size < 8:
        raise ManifestUndecodable("file chunk size exceeds input")

    pool: _StringPool | None = None
    res_map: list[int] = []
    root: AxmlElement | None = None
    stack: list[AxmlElement] = []

    pos = header_size
    while pos + 8 <= total:
        ctype, chdr, csize = struct.unpack_from("<HHI", data, pos)
        if csize < 8 or pos + csize > total:
            raise ManifestUndecodable("bad chunk structure")
        if ctype == CHUNK_STRING_POOL:
            pool = _StringPool(data, pos, csize)
        elif ctype == CHUNK_RESOURCE_MAP:
            if chdr > csize:
                raise ManifestUndecodable("resource map header exceeds its chunk")
            n = (csize - chdr) // 4
            res_map = list(struct.unpack_from(f"<{n}I", data, pos + chdr))
        elif ctype == CHUNK_START_ELEMENT:
            if pool is None:
                raise ManifestUndecodable("element before string pool")
            elem = _parse_start_element(data, pos, chdr, pool, res_map)
            if stack:
                stack[-1].children.append(elem)
            elif root is None:
                root = elem
            else:
                raise ManifestUndecodable("multiple root elements")
            stack.append(elem)
        elif ctype == CHUNK_END_ELEMENT:
            if not stack:
                raise ManifestUndecodable("unbalanced end element")
            stack.pop()
        # other chunk types (namespaces, CDATA, unknown ones) are skipped,
        # matching platform behaviour
        pos += csize

    if root is None:
        raise ManifestUndecodable("no root element")
    if stack:
        raise ManifestUndecodable("unclosed elements at end of document")
    return root


def _parse_start_element(data, pos, chdr, pool, res_map) -> AxmlElement:
    body = pos + chdr
    try:
        _ns, name_idx, attr_start, attr_size, attr_count = struct.unpack_from(
            "<IIHHH", data, body)
    except struct.error:
        raise ManifestUndecodable("truncated start element") from None
    elem = AxmlElement(name=pool.get(name_idx), attributes=[])
    apos = body + attr_start
    for _ in range(attr_count):
        try:
            a_ns, a_name, _raw, _vsize, _res0, vtype, vdata = struct.unpack_from(
                "<IIIHBBI", data, apos)
        except struct.error:
            raise ManifestUndecodable("truncated attribute record") from None
        name = pool.get(a_name)
        if not name and a_name < len(res_map):
            name = _RES_ATTR_NAMES.get(res_map[a_name], "")
        value: object
        if vtype == TYPE_STRING:
            value = pool.get(vdata)
        elif vtype == TYPE_INT_BOOLEAN:
            value = vdata != 0
        else:
            value = vdata
        elem.attributes.append(AxmlAttribute(pool.get(a_ns), name, value))
        apos += attr_size
    return elem
