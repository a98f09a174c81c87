"""Symmetric ciphers used by app generators to protect bundled assets.

RC4, classic TEA (32 cycles, big-endian words), AES-CBC and DES-CBC.
Block modes use PKCS#7 padding. ``decrypt`` runs them with a zero IV,
which matches how generator runtimes invoke them; the CBC functions
themselves also take an IV, as the published test vectors need.

AES and DES run on the `cryptography` library. RC4 and TEA are plain
Python: `cryptography`'s ARC4 accepts only some key lengths, and it has
no TEA. Key, IV and length checks happen here, before any library call,
so a caller only ever sees `KeyUnavailable` or `CipherError`.
"""

from __future__ import annotations

import struct

from cryptography.hazmat.decrepit.ciphers.algorithms import TripleDES
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes


class CipherError(Exception):
    pass


class KeyUnavailable(CipherError):
    pass


# ---------------------------------------------------------------------------
# RC4

def rc4(data: bytes, key: bytes) -> bytes:
    if not key:
        raise KeyUnavailable("RC4 key is empty")
    s = list(range(256))
    klen = len(key)
    j = 0
    for i in range(256):
        j = (j + s[i] + key[i % klen]) & 0xFF
        s[i], s[j] = s[j], s[i]
    out = bytearray(data)
    i = j = 0
    for n in range(len(out)):
        i = (i + 1) & 0xFF
        si = s[i]
        j = (j + si) & 0xFF
        sj = s[j]
        s[i] = sj
        s[j] = si
        out[n] ^= s[(si + sj) & 0xFF]
    return bytes(out)


# ---------------------------------------------------------------------------
# TEA (classic variant: 32 cycles, delta 0x9E3779B9, big-endian 32-bit words)

_TEA_DELTA = 0x9E3779B9
_M32 = 0xFFFFFFFF
_TEA_SUMS = [(_TEA_DELTA * n) & _M32 for n in range(1, 33)]


def _tea_run(data: bytes, key: bytes, encrypt: bool) -> bytes:
    if len(key) != 16:
        raise KeyUnavailable("TEA requires a 128-bit key")
    if len(data) % 8:
        raise CipherError("TEA input must be a multiple of 8 bytes")
    k0, k1, k2, k3 = struct.unpack(">4I", key)
    fmt = f">{len(data) // 4}I"
    v = list(struct.unpack(fmt, data))
    # Sums and shifts are masked once per half-round: the low 32 bits of
    # an add or xor depend only on the low 32 bits of its operands.
    for b in range(0, len(v), 2):
        v0, v1 = v[b], v[b + 1]
        if encrypt:
            for s in _TEA_SUMS:
                v0 = (v0 + (((v1 << 4) + k0) ^ (v1 + s) ^ ((v1 >> 5) + k1))) & _M32
                v1 = (v1 + (((v0 << 4) + k2) ^ (v0 + s) ^ ((v0 >> 5) + k3))) & _M32
        else:
            for s in reversed(_TEA_SUMS):
                v1 = (v1 - (((v0 << 4) + k2) ^ (v0 + s) ^ ((v0 >> 5) + k3))) & _M32
                v0 = (v0 - (((v1 << 4) + k0) ^ (v1 + s) ^ ((v1 >> 5) + k1))) & _M32
        v[b], v[b + 1] = v0, v1
    return struct.pack(fmt, *v)


def tea_encrypt(data: bytes, key: bytes) -> bytes:
    return _tea_run(_pkcs7_pad(data, 8), key, True)


def tea_decrypt(data: bytes, key: bytes) -> bytes:
    return _pkcs7_unpad(_tea_run(data, key, False), 8)


def tea_encrypt_raw(data: bytes, key: bytes) -> bytes:
    """Unpadded block encryption; input length must be a multiple of 8."""
    return _tea_run(data, key, True)


def tea_decrypt_raw(data: bytes, key: bytes) -> bytes:
    return _tea_run(data, key, False)


# ---------------------------------------------------------------------------
# AES-CBC and DES-CBC

def _cbc_run(algorithm, data: bytes, iv: bytes, encrypt: bool) -> bytes:
    """Unpadded CBC over `cryptography`; the caller has checked every length."""
    cipher = Cipher(algorithm, modes.CBC(iv))
    ctx = cipher.encryptor() if encrypt else cipher.decryptor()
    return ctx.update(data) + ctx.finalize()


def _aes_cbc_run(data: bytes, key: bytes, iv: bytes, encrypt: bool) -> bytes:
    if len(key) not in (16, 24, 32):
        raise KeyUnavailable("AES key must be 16, 24 or 32 bytes")
    if len(iv) != 16:
        raise CipherError("AES-CBC IV must be 16 bytes")
    if len(data) % 16:
        raise CipherError("AES-CBC input must be a multiple of 16 bytes")
    return _cbc_run(algorithms.AES(key), data, iv, encrypt)


def aes_cbc_encrypt(data: bytes, key: bytes, iv: bytes = b"\x00" * 16) -> bytes:
    return _aes_cbc_run(_pkcs7_pad(data, 16), key, iv, True)


def aes_cbc_decrypt(data: bytes, key: bytes, iv: bytes = b"\x00" * 16) -> bytes:
    return _pkcs7_unpad(_aes_cbc_run(data, key, iv, False), 16)


def _des_cbc_run(data: bytes, key: bytes, iv: bytes, encrypt: bool) -> bytes:
    if len(iv) != 8:
        raise CipherError("DES-CBC IV must be 8 bytes")
    if len(data) % 8:
        raise CipherError("DES-CBC input must be a multiple of 8 bytes")
    if len(key) != 8:
        raise KeyUnavailable("DES key must be 8 bytes")
    # Triple DES with K1 = K2 = K3 is single DES. The 24-byte form avoids
    # the deprecation that cryptography 47 attached to 8-byte keys.
    return _cbc_run(TripleDES(bytes(key) * 3), data, iv, encrypt)


def des_cbc_encrypt(data: bytes, key: bytes, iv: bytes = b"\x00" * 8) -> bytes:
    return _des_cbc_run(_pkcs7_pad(data, 8), key, iv, True)


def des_cbc_decrypt(data: bytes, key: bytes, iv: bytes = b"\x00" * 8) -> bytes:
    return _pkcs7_unpad(_des_cbc_run(data, key, iv, False), 8)


# ---------------------------------------------------------------------------
# padding + dispatch

def _pkcs7_pad(data: bytes, block: int) -> bytes:
    n = block - len(data) % block
    return data + bytes([n]) * n


def _pkcs7_unpad(data: bytes, block: int) -> bytes:
    if not data or len(data) % block:
        raise CipherError("bad padded length")
    n = data[-1]
    if not 1 <= n <= block or data[-n:] != bytes([n]) * n:
        raise CipherError("bad PKCS#7 padding")
    return data[:-n]


_DECRYPTORS = {
    "RC4": rc4,
    "TEA": tea_decrypt,
    "AES_CBC": aes_cbc_decrypt,
    "DES_CBC": des_cbc_decrypt,
}


def decrypt(algo: str, data: bytes, key: bytes) -> bytes:
    try:
        fn = _DECRYPTORS[algo]
    except KeyError:
        raise CipherError(f"unknown cipher {algo!r}") from None
    return fn(data, key)
