"""Symmetric ciphers used by app generators to protect bundled assets.

RC4, classic TEA (32 cycles, big-endian words), AES-CBC and DES-CBC.
Block modes use PKCS#7 padding. ``decrypt`` runs them with a zero IV,
which matches how generator runtimes invoke them; the CBC functions
themselves also take an IV, as the published test vectors need.

AES, DES and RC4 run on the `cryptography` library. RC4 uses its ARC4,
which takes only the key lengths in ``ARC4.key_sizes`` and needs
OpenSSL's legacy provider; any other key, or an OpenSSL without that
provider, runs on a Python loop with the same output. `cryptography` has
no TEA, so TEA runs on Python ints: each 8-byte block is one 64-bit lane
of one int, and each step of the cipher is a few int operations over
every block of a 64 KiB chunk at once.

A padded decryption decrypts the last block alone first and checks its
padding, so a wrong key is almost always rejected for the cost of one
block. Key, IV and length checks happen here, before any library call
and before that padding check, so a caller only ever sees
`KeyUnavailable` or `CipherError`.
"""

from __future__ import annotations

import struct

from cryptography.exceptions import UnsupportedAlgorithm
from cryptography.hazmat.decrepit.ciphers.algorithms import ARC4, TripleDES
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
    if len(key) * 8 in ARC4.key_sizes:
        try:
            return Cipher(ARC4(key), None).encryptor().update(data)
        except UnsupportedAlgorithm:  # OpenSSL without its legacy provider
            pass
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
_TEA_CHUNK = 64 * 1024  # bytes per lane int: bounds the temporaries


def _tea_check(data: bytes, key: bytes) -> None:
    if len(key) != 16:
        raise KeyUnavailable("TEA requires a 128-bit key")
    if len(data) % 8:
        raise CipherError("TEA input must be a multiple of 8 bytes")


def _tea_run(data: bytes, key: bytes, encrypt: bool) -> bytes:
    """TEA over every 8-byte block of ``data``, whose lengths are checked.

    Each block is one 64-bit lane of an int: ``v0`` and ``v1`` hold its
    two words in the low 32 bits of each lane, and ``lane`` has a 1 in
    each lane, so ``c * lane`` is ``c`` in every lane. The right shift,
    which moves the next lane's low bits into the top of this one, is
    masked; a decryption adds 2**40 per lane before it subtracts, so no
    lane borrows from its neighbour; and no value of a step reaches 2**41
    in its lane, so none carries into the next. Masking to 32 bits per
    lane then gives each block's words.
    """
    view = memoryview(data)
    out = []
    for start in range(0, len(data), _TEA_CHUNK):
        chunk = view[start:start + _TEA_CHUNK]
        lane = int.from_bytes(b"\0\0\0\0\0\0\0\1" * (len(chunk) // 8), "big")
        mask = _M32 * lane
        k0, k1, k2, k3 = (k * lane for k in struct.unpack(">4I", key))
        x = int.from_bytes(chunk, "big")
        v0, v1 = x >> 32 & mask, x & mask
        if encrypt:
            for s in _TEA_SUMS:
                s *= lane
                v0 = (v0 + (((v1 << 4) + k0) ^ (v1 + s) ^ ((v1 >> 5 & mask) + k1))) & mask
                v1 = (v1 + (((v0 << 4) + k2) ^ (v0 + s) ^ ((v0 >> 5 & mask) + k3))) & mask
        else:
            bias = lane << 40
            for s in reversed(_TEA_SUMS):
                s *= lane
                v1 = (v1 + bias - (((v0 << 4) + k2) ^ (v0 + s) ^ ((v0 >> 5 & mask) + k3))) & mask
                v0 = (v0 + bias - (((v1 << 4) + k0) ^ (v1 + s) ^ ((v1 >> 5 & mask) + k1))) & mask
        out.append((v0 << 32 | v1).to_bytes(len(chunk), "big"))
    return b"".join(out)


def tea_encrypt(data: bytes, key: bytes) -> bytes:
    return tea_encrypt_raw(_pkcs7_pad(data, 8), key)


def tea_decrypt(data: bytes, key: bytes) -> bytes:
    _tea_check(data, key)
    return _unpad_decrypt(lambda blocks, _prev: _tea_run(blocks, key, False), data, 8)


def tea_encrypt_raw(data: bytes, key: bytes) -> bytes:
    """Unpadded block encryption; input length must be a multiple of 8."""
    _tea_check(data, key)
    return _tea_run(data, key, True)


def tea_decrypt_raw(data: bytes, key: bytes) -> bytes:
    _tea_check(data, key)
    return _tea_run(data, key, False)


# ---------------------------------------------------------------------------
# AES-CBC and DES-CBC

def _cbc_run(algorithm, data: bytes, iv: bytes, encrypt: bool) -> bytes:
    """Unpadded CBC over `cryptography`; the caller has checked every length."""
    cipher = Cipher(algorithm, modes.CBC(iv))
    ctx = cipher.encryptor() if encrypt else cipher.decryptor()
    return ctx.update(data) + ctx.finalize()


def _cbc_decrypt(algorithm, data: bytes, iv: bytes) -> bytes:
    return _unpad_decrypt(lambda blocks, prev: _cbc_run(algorithm, blocks, prev or iv, False),
                          data, len(iv))


def _aes(data: bytes, key: bytes, iv: bytes):
    if len(key) not in (16, 24, 32):
        raise KeyUnavailable("AES key must be 16, 24 or 32 bytes")
    if len(iv) != 16:
        raise CipherError("AES-CBC IV must be 16 bytes")
    if len(data) % 16:
        raise CipherError("AES-CBC input must be a multiple of 16 bytes")
    return algorithms.AES(key)


def aes_cbc_encrypt(data: bytes, key: bytes, iv: bytes = b"\x00" * 16) -> bytes:
    data = _pkcs7_pad(data, 16)
    return _cbc_run(_aes(data, key, iv), data, iv, True)


def aes_cbc_decrypt(data: bytes, key: bytes, iv: bytes = b"\x00" * 16) -> bytes:
    return _cbc_decrypt(_aes(data, key, iv), data, iv)


def _des(data: bytes, key: bytes, iv: bytes):
    if len(iv) != 8:
        raise CipherError("DES-CBC IV must be 8 bytes")
    if len(data) % 8:
        raise CipherError("DES-CBC input must be a multiple of 8 bytes")
    if len(key) != 8:
        raise KeyUnavailable("DES key must be 8 bytes")
    # Triple DES with K1 = K2 = K3 is single DES. The 24-byte form avoids
    # the deprecation that cryptography 47 attached to 8-byte keys.
    return TripleDES(bytes(key) * 3)


def des_cbc_encrypt(data: bytes, key: bytes, iv: bytes = b"\x00" * 8) -> bytes:
    data = _pkcs7_pad(data, 8)
    return _cbc_run(_des(data, key, iv), data, iv, True)


def des_cbc_decrypt(data: bytes, key: bytes, iv: bytes = b"\x00" * 8) -> bytes:
    return _cbc_decrypt(_des(data, key, iv), data, iv)


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


def _unpad_decrypt(run, data: bytes, block: int) -> bytes:
    """The PKCS#7-unpadded plaintext of ``data``, whose key, IV and length
    checks have passed. ``run(blocks, prev)`` decrypts whole blocks;
    ``prev`` is the ciphertext block before them, ``b""`` at the start.

    The last block is decrypted alone first and its padding checked, so
    a wrong key is rejected before the rest is decrypted."""
    if not data:
        raise CipherError("bad padded length")
    head = len(data) - block
    tail = _pkcs7_unpad(run(data[head:], data[head - block:head]), block)
    return run(memoryview(data)[:head], b"") + tail


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
