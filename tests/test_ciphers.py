"""Cipher unit tests against independent oracles and published vectors."""

import random
import warnings

import pytest

from apktriage.genscan import ciphers
from apktriage.genscan.ciphers import CipherError, KeyUnavailable

from cipher_oracles import (
    aes_decrypt_block,
    aes_encrypt_block,
    des_block,
    oracle_aes_cbc_decrypt,
    oracle_aes_cbc_encrypt,
    oracle_des_cbc_decrypt,
    oracle_des_cbc_encrypt,
    oracle_rc4,
    oracle_tea_encrypt,
    oracle_tea_raw,
)


class TestRc4:
    # Classic published RC4 keystream vectors.
    @pytest.mark.parametrize("key,plain,hexpect", [
        (b"Key", b"Plaintext", "bbf316e8d940af0ad3"),
        (b"Wiki", b"pedia", "1021bf0420"),
        (b"Secret", b"Attack at dawn", "45a01f645fc35b383552544b9bf5"),
    ])
    def test_published_vectors(self, key, plain, hexpect):
        assert ciphers.rc4(plain, key).hex() == hexpect

    def test_matches_oracle_fixed_vectors(self):
        rng = random.Random(0xC4)
        for _ in range(12):
            key = rng.randbytes(rng.randint(1, 32))
            data = rng.randbytes(rng.randint(0, 300))
            assert ciphers.rc4(data, key) == oracle_rc4(data, key)

    def test_involution(self):
        key, data = b"sixteen byte key", b"x" * 100
        assert ciphers.rc4(ciphers.rc4(data, key), key) == data

    def test_empty_key_rejected(self):
        with pytest.raises(KeyUnavailable):
            ciphers.rc4(b"data", b"")


class TestTea:
    def test_published_zero_vector(self):
        # TEA of the all-zero block under the all-zero key.
        out = ciphers.tea_encrypt_raw(b"\x00" * 8, b"\x00" * 16)
        assert out.hex() == "41ea3a0a94baa940"

    def test_matches_oracle_fixed_vectors(self):
        rng = random.Random(0x7EA)
        for _ in range(12):
            key = rng.randbytes(16)
            data = rng.randbytes(8 * rng.randint(1, 8))
            assert ciphers.tea_encrypt_raw(data, key) == \
                oracle_tea_raw(data, key, True)
            assert ciphers.tea_decrypt_raw(data, key) == \
                oracle_tea_raw(data, key, False)

    def test_padded_round_trip(self):
        key = bytes(range(16))
        for n in (0, 1, 7, 8, 9, 100):
            data = bytes(range(n % 256))[:n]
            assert ciphers.tea_decrypt(ciphers.tea_encrypt(data, key), key) == data

    def test_padded_matches_oracle(self):
        key = b"0123456789abcdef"
        data = b"attack at dawn"
        assert ciphers.tea_encrypt(data, key) == oracle_tea_encrypt(data, key)

    def test_bad_key_length(self):
        with pytest.raises(KeyUnavailable):
            ciphers.tea_encrypt(b"x", b"short")

    def test_raw_requires_block_multiple(self):
        with pytest.raises(CipherError):
            ciphers.tea_encrypt_raw(b"123", bytes(16))


class TestAesCbc:
    # FIPS-197 App. C.1-C.3 (AES-128/192/256) and NIST SP 800-38A F.2.1,
    # first block. Under a zero IV the first CBC block is the block cipher.
    @pytest.mark.parametrize("key,iv,plain,hexpect", [
        ("000102030405060708090a0b0c0d0e0f", "00" * 16,
         "00112233445566778899aabbccddeeff", "69c4e0d86a7b0430d8cdb78070b4c55a"),
        ("000102030405060708090a0b0c0d0e0f1011121314151617", "00" * 16,
         "00112233445566778899aabbccddeeff", "dda97ca4864cdfe06eaf70a0ec0d7191"),
        ("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f", "00" * 16,
         "00112233445566778899aabbccddeeff", "8ea2b7ca516745bfeafc49904b496089"),
        ("2b7e151628aed2a6abf7158809cf4f3c", "000102030405060708090a0b0c0d0e0f",
         "6bc1bee22e409f96e93d7e117393172a", "7649abac8119b246cee98e9b12e9197d"),
    ])
    def test_published_vectors(self, key, iv, plain, hexpect):
        key, iv, plain = bytes.fromhex(key), bytes.fromhex(iv), bytes.fromhex(plain)
        assert ciphers.aes_cbc_encrypt(plain, key, iv)[:16].hex() == hexpect
        assert oracle_aes_cbc_encrypt(plain, key, iv)[:16].hex() == hexpect
        if iv == bytes(16):
            assert aes_encrypt_block(plain, key).hex() == hexpect
            assert aes_decrypt_block(bytes.fromhex(hexpect), key) == plain

    @pytest.mark.parametrize("keylen", [16, 24, 32])
    def test_matches_oracle(self, keylen):
        rng = random.Random(keylen)
        for _ in range(10):
            key = rng.randbytes(keylen)
            iv = rng.randbytes(16)
            data = rng.randbytes(rng.randint(0, 200))
            ct = ciphers.aes_cbc_encrypt(data, key, iv)
            assert ct == oracle_aes_cbc_encrypt(data, key, iv)
            assert ciphers.aes_cbc_decrypt(ct, key, iv) == data

    def test_zero_iv_default(self):
        key = bytes(16)
        data = b"hello world"
        assert ciphers.aes_cbc_encrypt(data, key) == \
            ciphers.aes_cbc_encrypt(data, key, b"\x00" * 16)

    def test_decrypt_matches_oracle(self):
        key = bytes(range(16))
        ct = oracle_aes_cbc_encrypt(b"secret payload", key)
        assert oracle_aes_cbc_decrypt(ct, key) == b"secret payload"
        assert ciphers.aes_cbc_decrypt(ct, key) == b"secret payload"

    def test_bad_key_length(self):
        with pytest.raises(CipherError):
            ciphers.aes_cbc_encrypt(b"x", b"badkey")

    def test_corrupted_padding(self):
        key = bytes(16)
        ct = bytearray(ciphers.aes_cbc_encrypt(b"data", key))
        ct[-1] ^= 0xFF
        with pytest.raises(CipherError):
            ciphers.aes_cbc_decrypt(bytes(ct), key)


class TestDesCbc:
    # FIPS 46-3 worked example and the SP 800-17 variable-plaintext test.
    @pytest.mark.parametrize("key,plain,hexpect", [
        ("133457799bbcdff1", "0123456789abcdef", "85e813540f0ab405"),
        ("0101010101010101", "8000000000000000", "95f8a5e5dd31d900"),
    ])
    def test_published_vectors(self, key, plain, hexpect):
        key, plain = bytes.fromhex(key), bytes.fromhex(plain)
        assert ciphers.des_cbc_encrypt(plain, key)[:8].hex() == hexpect
        assert oracle_des_cbc_encrypt(plain, key)[:8].hex() == hexpect
        assert des_block(plain, key).hex() == hexpect
        assert des_block(bytes.fromhex(hexpect), key, encrypt=False) == plain

    def test_matches_oracle_fixed_vectors(self):
        rng = random.Random(0xDE5)
        for _ in range(10):
            key = rng.randbytes(8)
            iv = rng.randbytes(8)
            data = rng.randbytes(rng.randint(0, 120))
            ct = ciphers.des_cbc_encrypt(data, key, iv)
            assert ct == oracle_des_cbc_encrypt(data, key, iv)
            assert oracle_des_cbc_decrypt(ct, key, iv) == data
            assert ciphers.des_cbc_decrypt(ct, key, iv) == data

    def test_bad_key_length(self):
        with pytest.raises(CipherError):
            ciphers.des_cbc_encrypt(b"x", b"123")

    def test_no_deprecation_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ct = ciphers.des_cbc_encrypt(b"payload", b"8bytekey")
            assert ciphers.des_cbc_decrypt(ct, b"8bytekey") == b"payload"


class TestBlockErrorContract:
    """Bad lengths raise CipherError, never the library's ValueError.

    `genscan.content` catches only CipherError, so a ValueError would
    abort a whole scan instead of marking one asset as failed.
    """

    CASES = [
        (ciphers.aes_cbc_decrypt, bytes(16), 16),
        (ciphers.des_cbc_decrypt, bytes(8), 8),
    ]

    @pytest.mark.parametrize("dec,key,block", CASES)
    @pytest.mark.parametrize("extra", [1, -1])
    def test_ciphertext_not_block_multiple(self, dec, key, block, extra):
        with pytest.raises(CipherError):
            dec(bytes(2 * block + extra), key)

    @pytest.mark.parametrize("dec,key,block", CASES)
    @pytest.mark.parametrize("ivlen_delta", [1, -1])
    def test_wrong_iv_length(self, dec, key, block, ivlen_delta):
        with pytest.raises(CipherError):
            dec(bytes(2 * block), key, bytes(block + ivlen_delta))

    @pytest.mark.parametrize("enc,key,block", [
        (ciphers.aes_cbc_encrypt, bytes(16), 16),
        (ciphers.des_cbc_encrypt, bytes(8), 8),
    ])
    def test_encrypt_wrong_iv_length(self, enc, key, block):
        with pytest.raises(CipherError):
            enc(b"data", key, bytes(block - 1))


class TestDispatch:
    @pytest.mark.parametrize("algo,keylen", [
        ("RC4", 5), ("TEA", 16), ("AES_CBC", 16), ("DES_CBC", 8)])
    def test_round_trip(self, algo, keylen):
        key = bytes(range(keylen))
        data = b"round trip payload"
        encrypt = {"RC4": ciphers.rc4, "TEA": ciphers.tea_encrypt,
                   "AES_CBC": ciphers.aes_cbc_encrypt,
                   "DES_CBC": ciphers.des_cbc_encrypt}[algo]
        assert ciphers.decrypt(algo, encrypt(data, key), key) == data

    def test_unknown_algo(self):
        with pytest.raises(CipherError):
            ciphers.decrypt("ROT13", b"x", b"k")


class TestPadding:
    def test_unpad_rejects_garbage(self):
        with pytest.raises(CipherError):
            ciphers._pkcs7_unpad(b"", 8)
        with pytest.raises(CipherError):
            ciphers._pkcs7_unpad(b"12345678" + b"\x00" * 8, 8)
        with pytest.raises(CipherError):
            ciphers._pkcs7_unpad(b"1234567", 8)

    def test_pad_round_trip(self):
        for n in range(0, 33):
            data = bytes(n)
            assert ciphers._pkcs7_unpad(ciphers._pkcs7_pad(data, 16), 16) == data
