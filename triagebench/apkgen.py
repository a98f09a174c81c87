"""Byte-level builders for synthetic APKs: binary-XML manifests, v1
signature blocks, protected-asset encryption and the ZIP container.

Everything here is written from the file-format definitions and shares
no code with the package under test, so what it plants is an oracle
independent of the parsers it feeds. Given the same inputs every
builder returns the same bytes: certificates use Ed25519 keys derived
from caller-supplied seed bytes (Ed25519 signatures are deterministic),
and ZIP entries carry fixed timestamps.
"""

from __future__ import annotations

import datetime
import hashlib
import io
import struct
import zipfile

from cryptography import x509
from cryptography.hazmat.decrepit.ciphers.algorithms import TripleDES
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
from cryptography.hazmat.primitives.serialization import Encoding, pkcs7
from cryptography.x509.oid import NameOID

ANDROID_NS = "http://schemas.android.com/apk/res/android"
NO_INDEX = 0xFFFFFFFF

# ---------------------------------------------------------------------------
# Android binary XML (UTF-16 string pool, as aapt emits for manifests; a
# UTF-16 pool also keeps manifest strings out of printable-ASCII scans)


def _utf16_pool(strings: list[str]) -> bytes:
    offsets, blob = [], bytearray()
    for s in strings:
        offsets.append(len(blob))
        blob += struct.pack("<H", len(s)) + s.encode("utf-16-le") + b"\x00\x00"
    while len(blob) % 4:
        blob += b"\x00"
    start = 28 + 4 * len(strings)
    header = struct.pack("<HHIIIIII", 0x0001, 28, start + len(blob),
                         len(strings), 0, 0, start, 0)
    return header + struct.pack(f"<{len(strings)}I", *offsets) + bytes(blob)


def axml(root) -> bytes:
    """Serialize a (tag, [(ns, name, value)], [children]) tree. Values
    are str (string-typed) or int (decimal-typed)."""
    strings: list[str] = []
    index: dict[str, int] = {}

    def sid(s: str) -> int:
        if s not in index:
            index[s] = len(strings)
            strings.append(s)
        return index[s]

    def chunk(ctype: int, body: bytes) -> bytes:
        return struct.pack("<HHIII", ctype, 16, 16 + len(body), 1, NO_INDEX) + body

    def element(node) -> bytes:
        tag, attrs, children = node
        packed = b""
        for ns, name, value in attrs:
            ns_idx = sid(ns) if ns else NO_INDEX
            if isinstance(value, int):
                raw, vtype, data = NO_INDEX, 0x10, value & 0xFFFFFFFF
            else:
                raw = data = sid(value)
                vtype = 0x03
            packed += struct.pack("<IIIHBBI", ns_idx, sid(name), raw, 8, 0,
                                  vtype, data)
        start = struct.pack("<IIHHHHHH", NO_INDEX, sid(tag), 20, 20,
                            len(attrs), 0, 0, 0) + packed
        out = chunk(0x0102, start)
        for child in children:
            out += element(child)
        return out + chunk(0x0103, struct.pack("<II", NO_INDEX, sid(tag)))

    namespace = struct.pack("<II", sid("android"), sid(ANDROID_NS))
    body = (chunk(0x0100, namespace) + element(root)
            + chunk(0x0101, namespace))
    pool = _utf16_pool(strings)
    return struct.pack("<HHI", 0x0003, 8, 8 + len(pool) + len(body)) + pool + body


def manifest(package: str, main_activity: str, permissions) -> bytes:
    launcher = ("intent-filter", [], [
        ("action", [(ANDROID_NS, "name", "android.intent.action.MAIN")], []),
        ("category", [(ANDROID_NS, "name", "android.intent.category.LAUNCHER")], []),
    ])
    return axml(("manifest", [(None, "package", package)], [
        ("uses-sdk", [(ANDROID_NS, "minSdkVersion", 19),
                      (ANDROID_NS, "targetSdkVersion", 29)], []),
        *[("uses-permission", [(ANDROID_NS, "name", p)], []) for p in permissions],
        ("application", [(ANDROID_NS, "label", "app")], [
            ("activity", [(ANDROID_NS, "name", main_activity)], [launcher]),
        ]),
    ]))


# ---------------------------------------------------------------------------
# v1 signature blocks

_DN_OIDS = {
    "commonName": NameOID.COMMON_NAME,
    "organizationalUnit": NameOID.ORGANIZATIONAL_UNIT_NAME,
    "organization": NameOID.ORGANIZATION_NAME,
    "locality": NameOID.LOCALITY_NAME,
    "state": NameOID.STATE_OR_PROVINCE_NAME,
    "country": NameOID.COUNTRY_NAME,
    "email": NameOID.EMAIL_ADDRESS,
}
_EPOCH = datetime.datetime(2019, 1, 1, tzinfo=datetime.timezone.utc)


def signer(dn: dict[str, str], key_seed: bytes) -> tuple[bytes, str]:
    """(PKCS#7 certificate block, SHA-256 of the certificate DER) for a
    self-signed certificate with the given subject fields."""
    key = Ed25519PrivateKey.from_private_bytes(hashlib.sha256(key_seed).digest())
    name = x509.Name([x509.NameAttribute(_DN_OIDS[k], v) for k, v in dn.items()])
    cert = (x509.CertificateBuilder()
            .subject_name(name).issuer_name(name)
            .public_key(key.public_key())
            .serial_number(int.from_bytes(key_seed[:8].ljust(8, b"\x01"), "big") | 1)
            .not_valid_before(_EPOCH)
            .not_valid_after(_EPOCH + datetime.timedelta(days=9000))
            .sign(key, None))
    der = cert.public_bytes(Encoding.DER)
    return (pkcs7.serialize_certificates([cert], Encoding.DER),
            hashlib.sha256(der).hexdigest())


# ---------------------------------------------------------------------------
# protected-asset ciphers (PKCS#7 padding, zero IV for the block modes)


def _pad(data: bytes, block: int) -> bytes:
    n = block - len(data) % block
    return data + bytes([n]) * n


def rc4(data: bytes, key: bytes) -> bytes:
    s = list(range(256))
    j = 0
    for i in range(256):
        j = (j + s[i] + key[i % len(key)]) & 0xFF
        s[i], s[j] = s[j], s[i]
    out = bytearray(len(data))
    i = j = 0
    for n, byte in enumerate(data):
        i = (i + 1) & 0xFF
        j = (j + s[i]) & 0xFF
        s[i], s[j] = s[j], s[i]
        out[n] = byte ^ s[(s[i] + s[j]) & 0xFF]
    return bytes(out)


def tea_encrypt(data: bytes, key: bytes) -> bytes:
    """Classic TEA, 32 cycles, big-endian words."""
    k0, k1, k2, k3 = struct.unpack(">4I", key)
    data = _pad(data, 8)
    out = bytearray()
    for pos in range(0, len(data), 8):
        v0, v1 = struct.unpack_from(">2I", data, pos)
        total = 0
        for _ in range(32):
            total = (total + 0x9E3779B9) & 0xFFFFFFFF
            v0 = (v0 + ((((v1 << 4) + k0) ^ (v1 + total) ^ ((v1 >> 5) + k1))
                        & 0xFFFFFFFF)) & 0xFFFFFFFF
            v1 = (v1 + ((((v0 << 4) + k2) ^ (v0 + total) ^ ((v0 >> 5) + k3))
                        & 0xFFFFFFFF)) & 0xFFFFFFFF
        out += struct.pack(">2I", v0, v1)
    return bytes(out)


def _cbc(algorithm, data: bytes, block: int) -> bytes:
    enc = Cipher(algorithm, modes.CBC(b"\x00" * block)).encryptor()
    return enc.update(_pad(data, block)) + enc.finalize()


def encrypt(algo: str, data: bytes, key: bytes) -> bytes:
    if algo == "RC4":
        return rc4(data, key)
    if algo == "TEA":
        return tea_encrypt(data, key)
    if algo == "AES_CBC":
        return _cbc(algorithms.AES(key), data, 16)
    if algo == "DES_CBC":
        # three equal DES keys are single DES
        return _cbc(TripleDES(key * 3), data, 8)
    raise ValueError(f"unknown cipher {algo}")


KEY_LENGTHS = {"RC4": 16, "TEA": 16, "AES_CBC": 16, "DES_CBC": 8}

# ---------------------------------------------------------------------------
# container


def apk(entries: list[tuple[str, bytes, bool]], mtime: tuple) -> bytes:
    """ZIP archive from (path, data, deflate) triples, manifest first."""
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as z:
        for path, data, deflate in entries:
            info = zipfile.ZipInfo(path, date_time=mtime)
            info.compress_type = zipfile.ZIP_DEFLATED if deflate else zipfile.ZIP_STORED
            z.writestr(info, data)
    return buf.getvalue()
