from apktriage.genscan.ciphers import CipherError, KeyUnavailable
from apktriage.genscan.content import DecryptedAssets, decrypt_assets
from apktriage.genscan.fingerprints import (
    CipherScheme,
    EvidenceRule,
    GeneratorFingerprint,
    GeneratorMatch,
    detect_generator,
    load_fingerprints,
)

__all__ = [
    "CipherError", "KeyUnavailable",
    "DecryptedAssets", "decrypt_assets",
    "CipherScheme", "EvidenceRule", "GeneratorFingerprint", "GeneratorMatch",
    "detect_generator", "load_fingerprints",
]
