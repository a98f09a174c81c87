"""Decrypt the assets a generator protects with its cipher."""

from __future__ import annotations

from dataclasses import dataclass, field

from apktriage.apkcore import zipread
from apktriage.apkcore.artifact import ApkArtifact
from apktriage.genscan import ciphers
from apktriage.genscan.ciphers import CipherError, KeyUnavailable
from apktriage.genscan.fingerprints import GeneratorFingerprint, GeneratorMatch

_PLAINTEXT_MAGICS = (b"PK\x03\x04", b"\x89PNG", b"<", b"\xff\xd8\xff", b"{", b"[")


@dataclass
class DecryptedAssets:
    decrypted: dict[str, bytes] = field(default_factory=dict)
    failed: list[str] = field(default_factory=list)


def looks_plaintext(data: bytes) -> bool:
    """Accept decryption output that starts, after any leading whitespace,
    with a known magic, or is mostly valid UTF-8 (>= 90% of bytes
    decodable)."""
    if not data:
        return False
    if data.lstrip().startswith(_PLAINTEXT_MAGICS):
        return True
    view = data[:4096]
    valid = len(view.decode("utf-8", "ignore").encode("utf-8"))
    return valid / len(view) >= 0.9


def _resolve_key(apk: ApkArtifact, fp: GeneratorFingerprint) -> bytes:
    # load_fingerprints has checked the fields of both key types read here
    source = fp.cipher.key_source or {}
    kind = source.get("type")
    if kind == "constant":
        return bytes.fromhex(source["hex"])
    if kind == "entry_offset":
        try:
            blob = apk.read(source["path"])
        except KeyError:
            raise KeyUnavailable(f"key entry {source['path']!r} missing") from None
        off, length = source["offset"], source["length"]
        if len(blob) < off + length:
            raise KeyUnavailable(f"key entry {source['path']!r} too short")
        return blob[off:off + length]
    raise KeyUnavailable(f"no key available for generator {fp.generator_id}")


def decrypt_assets(apk: ApkArtifact, match: GeneratorMatch) -> DecryptedAssets:
    """Decrypt every entry under the generator's protected paths with the
    key its fingerprint names. The fingerprint must declare a cipher.

    Entries whose plaintext fails the validation heuristic are left
    encrypted and listed in ``failed``.
    """
    fp = match.fingerprint
    key = _resolve_key(apk, fp)

    assets = DecryptedAssets()
    for entry in apk.entries:
        if not any(entry.path.startswith(p) for p in fp.protected_paths):
            continue
        data = zipread.read_entry(apk.raw, entry)
        try:
            plain = ciphers.decrypt(fp.cipher.algo, data, key)
        except CipherError:
            assets.failed.append(entry.path)
            continue
        if looks_plaintext(plain):
            assets.decrypted[entry.path] = plain
        else:
            assets.failed.append(entry.path)
    return assets
