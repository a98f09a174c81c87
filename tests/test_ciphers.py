"""Cipher unit tests against independent oracles and published vectors."""

import hashlib
import json
import random
import subprocess
import sys
import warnings

import pytest

from apktriage.genscan import ciphers
from apktriage.genscan.ciphers import CipherError, KeyUnavailable
from apktriage.reportcli.cli import main

from apk_builder import DEVELOPER_DN, build_apk, cert_fingerprint
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
from test_cli import _src_env

# the RC4 key lengths that cryptography's ARC4 takes (ARC4.key_sizes / 8)
ARC4_KEY_LENGTHS = [5, 7, 8, 10, 16, 20, 24, 32]


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

    def test_every_key_length_matches_oracle(self, monkeypatch):
        # the key lengths ARC4 takes run on it, every other one on the loop
        on_library = []
        cipher = ciphers.Cipher
        monkeypatch.setattr(ciphers, "Cipher", lambda algorithm, mode: (
            on_library.append(len(algorithm.key)) or cipher(algorithm, mode)))
        rng = random.Random(0x4C4)
        for n in range(1, 65):
            key = rng.randbytes(n)
            data = rng.randbytes(rng.randint(0, 700))
            assert ciphers.rc4(data, key) == oracle_rc4(data, key), n
        assert on_library == ARC4_KEY_LENGTHS

    def test_library_key_lengths_warn_nothing(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for n in ARC4_KEY_LENGTHS:
                key = bytes(range(1, n + 1))
                assert ciphers.rc4(b"payload", key) == oracle_rc4(b"payload", key)

    def test_without_legacy_provider_matches_oracle(self):
        """Where OpenSSL has no legacy provider, ARC4 is unsupported and
        every key length runs on the loop."""
        child = (
            "import json, sys\n"
            "from cryptography.exceptions import UnsupportedAlgorithm\n"
            "from cryptography.hazmat.decrepit.ciphers.algorithms import ARC4\n"
            "from cryptography.hazmat.primitives.ciphers import Cipher\n"
            "from apktriage.genscan.ciphers import rc4\n"
            "try:\n"
            "    Cipher(ARC4(bytes(16)), None).encryptor()\n"
            "    legacy = True\n"
            "except UnsupportedAlgorithm:\n"
            "    legacy = False\n"
            "cases = json.load(sys.stdin)\n"
            "out = [rc4(bytes.fromhex(d), bytes.fromhex(k)).hex() for d, k in cases]\n"
            "print(json.dumps({'legacy': legacy, 'out': out}))\n")
        rng = random.Random(0x1E6)
        cases = [(rng.randbytes(rng.randint(0, 300)), rng.randbytes(n)) for n in range(1, 65)]
        env = dict(_src_env(), CRYPTOGRAPHY_OPENSSL_NO_LEGACY="1")
        proc = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True,
                              text=True, check=True,
                              input=json.dumps([(d.hex(), k.hex()) for d, k in cases]))
        result = json.loads(proc.stdout)
        assert result["legacy"] is False
        assert result["out"] == [oracle_rc4(d, k).hex() for d, k in cases]


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

    CHUNK = ciphers._TEA_CHUNK

    @pytest.mark.parametrize("size", [0, 8, CHUNK - 8, CHUNK, CHUNK + 8, 1024 * 1024 + 8])
    def test_raw_matches_oracle_across_chunks(self, size):
        """Every lane of every chunk against the oracle. The blocks come
        from a pool, the all-zero and all-one blocks included, laid out at
        random, so the oracle runs once per distinct block."""
        rng = random.Random(size)
        key = rng.randbytes(16)
        pool = [bytes(8), b"\xff" * 8] + [rng.randbytes(8) for _ in range(126)]
        blocks = [rng.choice(pool) for _ in range(size // 8)]
        data = b"".join(blocks)
        for encrypt, run in ((True, ciphers.tea_encrypt_raw), (False, ciphers.tea_decrypt_raw)):
            want = {b: oracle_tea_raw(b, key, encrypt) for b in pool}
            assert run(data, key) == b"".join(want[b] for b in blocks)
        assert ciphers.tea_decrypt_raw(ciphers.tea_encrypt_raw(data, key), key) == data


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


def _pads(plain: bytes, block: int) -> bool:
    """Whether ``plain``, one decrypted last block, ends in PKCS#7 padding."""
    n = plain[-1]
    return 1 <= n <= block and plain[-n:] == bytes([n]) * n


def _xor(a: bytes, b: bytes) -> bytes:
    return bytes(x ^ y for x, y in zip(a, b))


# (decrypt, key, block, oracle decryption of the last block given the one before)
LAST_BLOCK = {
    "TEA": (ciphers.tea_decrypt, bytes(range(16)), 8,
            lambda last, prev, key: oracle_tea_raw(last, key, False)),
    "AES_CBC": (ciphers.aes_cbc_decrypt, bytes(range(16)), 16,
                lambda last, prev, key: _xor(aes_decrypt_block(last, key), prev)),
    "DES_CBC": (ciphers.des_cbc_decrypt, bytes(range(8)), 8,
                lambda last, prev, key: _xor(des_block(last, key, False), prev)),
}


@pytest.fixture
def block_runs(monkeypatch):
    """The byte length of each call to ``_tea_run`` and ``_cbc_run``."""
    seen = []
    tea_run, cbc_run = ciphers._tea_run, ciphers._cbc_run

    def tea(data, key, encrypt):
        seen.append(len(data))
        return tea_run(data, key, encrypt)

    def cbc(algorithm, data, iv, encrypt):
        seen.append(len(data))
        return cbc_run(algorithm, data, iv, encrypt)

    monkeypatch.setattr(ciphers, "_tea_run", tea)
    monkeypatch.setattr(ciphers, "_cbc_run", cbc)
    return seen


# the scan record of the hostile APK below, as written before the
# last-block check, less the fields that hold the APK's path and hashes
HOSTILE_RECORD = {
    "domains": ["android.com"], "generator": "Appmachine", "generator_confidence": 1.0,
    "ip_literals": [], "manifest_mtime": "2020-12-06T12:00:00+00:00",
    "manifest_valid": True, "package": "com.hostile.app", "paradigm": "Hybrid",
    "permissions": {"all": 1, "dangerous": 0, "normal": 1},
    "urls": ["http://schemas.android.com/apk/res/android"],
}


class TestWrongKeyCost:
    """A wrong key is rejected from the last block: a ciphertext whose last
    block the oracle decrypts to bad padding costs one block, whatever its
    size. Counts are asserted, not wall time."""

    @pytest.mark.parametrize("algo", LAST_BLOCK)
    @pytest.mark.parametrize("size", ["1 block", "2 blocks", 64 * 1024, 4 * 1024 * 1024 + 16])
    def test_bad_last_block_costs_one_block(self, block_runs, algo, size):
        decrypt, key, block, oracle_last = LAST_BLOCK[algo]
        size = {"1 block": block, "2 blocks": 2 * block}.get(size, size)
        rng = random.Random(size)
        data = bytearray(rng.randbytes(size))
        while True:  # redraw the last block until the oracle finds bad padding
            prev = bytes(data[-2 * block:-block]) if size > block else bytes(block)
            if not _pads(oracle_last(bytes(data[-block:]), prev, key), block):
                break
            data[-block:] = rng.randbytes(block)
        with pytest.raises(CipherError, match="^bad PKCS#7 padding$"):
            decrypt(bytes(data), key)
        assert block_runs == [block]

    @pytest.mark.parametrize("algo,encrypt", [
        ("TEA", oracle_tea_encrypt), ("AES_CBC", oracle_aes_cbc_encrypt),
        ("DES_CBC", oracle_des_cbc_encrypt)])
    @pytest.mark.parametrize("n", [0, 5, 200])
    def test_right_key_decrypts_each_block_once(self, block_runs, algo, encrypt, n):
        decrypt, key, block, _ = LAST_BLOCK[algo]
        plain = bytes(range(n))
        ct = encrypt(plain, key)
        assert decrypt(ct, key) == plain
        assert block_runs == [block, len(ct) - block]

    def test_hostile_appmachine_apk(self, block_runs, tmp_path):
        """The Appmachine TEA fingerprint with a constant key and a 4 MiB
        all-zero protected entry: one block decrypted, the entry failed,
        and the record the scan wrote before the last-block check."""
        apk = tmp_path / "hostile.apk"
        apk.write_bytes(build_apk(package="com.hostile.app", extra_files={
            "lib/armeabi-v7a/libAppMachine.so": b"\x7fELF",
            "assets/data/blob.bin": bytes(4 * 1024 * 1024)}))
        # the certificate's key is made per process, so the two hashes too
        want = dict(HOSTILE_RECORD, path=str(apk),
                    sample_id=hashlib.sha256(apk.read_bytes()).hexdigest(),
                    signers=[{"class": "DeveloperSpecific", "completeness": 1.0,
                              "fingerprint": cert_fingerprint(DEVELOPER_DN)}])
        db = tmp_path / "db.json"
        db.write_text(json.dumps([{
            "generator_id": "Appmachine",
            "rules": [{"kind": "native_lib", "value": "libAppMachine.so"}],
            "cipher": {"algo": "TEA", "key_source": {"type": "constant",
                                                     "hex": bytes(range(16)).hex()}},
            "protected_paths": ["assets/data/"]}]))
        out = tmp_path / "scan.jsonl"
        assert main(["scan", str(apk), "--output", str(out), "--fingerprint-db", str(db)]) == 0
        assert block_runs == [8]
        assert out.read_text() == json.dumps(want, sort_keys=True) + "\n"


class TestErrorContract:
    """Each bad argument raises the class and message it raised before the
    last-block check, with the checks in the same order, and no block is
    decrypted first. The expected pairs are those of the code before that
    check."""

    TEA_KEY = "TEA requires a 128-bit key"
    TEA_LEN = "TEA input must be a multiple of 8 bytes"
    AES_KEY = "AES key must be 16, 24 or 32 bytes"
    AES_IV = "AES-CBC IV must be 16 bytes"
    AES_LEN = "AES-CBC input must be a multiple of 16 bytes"
    DES_IV = "DES-CBC IV must be 8 bytes"
    DES_LEN = "DES-CBC input must be a multiple of 8 bytes"
    DES_KEY = "DES key must be 8 bytes"
    PADDED_LEN = "bad padded length"

    CASES = [
        # (function, data, key, iv or None, class, message)
        ("tea_decrypt", 16, 15, None, KeyUnavailable, TEA_KEY),
        ("tea_decrypt", 13, 15, None, KeyUnavailable, TEA_KEY),
        ("tea_decrypt", 0, 17, None, KeyUnavailable, TEA_KEY),
        ("tea_decrypt", 13, 16, None, CipherError, TEA_LEN),
        ("tea_decrypt", 0, 16, None, CipherError, PADDED_LEN),
        ("tea_encrypt", 3, 8, None, KeyUnavailable, TEA_KEY),
        ("tea_encrypt_raw", 3, 16, None, CipherError, TEA_LEN),
        ("tea_decrypt_raw", 3, 8, None, KeyUnavailable, TEA_KEY),
        ("aes_cbc_decrypt", 32, 15, 16, KeyUnavailable, AES_KEY),
        ("aes_cbc_decrypt", 33, 15, 8, KeyUnavailable, AES_KEY),
        ("aes_cbc_decrypt", 0, 8, 16, KeyUnavailable, AES_KEY),
        ("aes_cbc_decrypt", 32, 16, 8, CipherError, AES_IV),
        ("aes_cbc_decrypt", 33, 24, 17, CipherError, AES_IV),
        ("aes_cbc_decrypt", 0, 32, 15, CipherError, AES_IV),
        ("aes_cbc_decrypt", 33, 16, 16, CipherError, AES_LEN),
        ("aes_cbc_decrypt", 8, 16, None, CipherError, AES_LEN),
        ("aes_cbc_decrypt", 0, 16, None, CipherError, PADDED_LEN),
        ("aes_cbc_encrypt", 3, 8, 16, KeyUnavailable, AES_KEY),
        ("aes_cbc_encrypt", 3, 16, 8, CipherError, AES_IV),
        ("des_cbc_decrypt", 16, 8, 7, CipherError, DES_IV),
        ("des_cbc_decrypt", 13, 3, 7, CipherError, DES_IV),
        ("des_cbc_decrypt", 0, 3, 16, CipherError, DES_IV),
        ("des_cbc_decrypt", 13, 3, 8, CipherError, DES_LEN),
        ("des_cbc_decrypt", 13, 8, None, CipherError, DES_LEN),
        ("des_cbc_decrypt", 16, 3, 8, KeyUnavailable, DES_KEY),
        ("des_cbc_decrypt", 0, 24, None, KeyUnavailable, DES_KEY),
        ("des_cbc_decrypt", 0, 8, None, CipherError, PADDED_LEN),
        ("des_cbc_encrypt", 3, 8, 9, CipherError, DES_IV),
        ("des_cbc_encrypt", 3, 16, 8, KeyUnavailable, DES_KEY),
    ]

    @pytest.mark.parametrize("fn,data,key,iv,cls,message", CASES)
    def test_bad_argument(self, block_runs, fn, data, key, iv, cls, message):
        args = [bytes(data), bytes(range(key))] + ([] if iv is None else [bytes(iv)])
        with pytest.raises(CipherError) as raised:
            getattr(ciphers, fn)(*args)
        assert (type(raised.value), str(raised.value)) == (cls, message)
        assert block_runs == []

    @pytest.mark.parametrize("algo,key,cls,message", [
        ("RC4", 0, KeyUnavailable, "RC4 key is empty"),
        ("TEA", 4, KeyUnavailable, TEA_KEY),
        ("AES_CBC", 16, CipherError, AES_LEN),
        ("DES_CBC", 7, CipherError, DES_LEN),
    ])
    def test_bad_argument_through_decrypt(self, block_runs, algo, key, cls, message):
        with pytest.raises(CipherError) as raised:
            ciphers.decrypt(algo, bytes(12), bytes(key))
        assert (type(raised.value), str(raised.value)) == (cls, message)
        assert block_runs == []


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
