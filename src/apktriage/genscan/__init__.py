from apktriage.genscan.ciphers import CipherError, KeyUnavailable
from apktriage.genscan.content import (
    DecryptedAssets,
    UserContent,
    decrypt_assets,
    split_user_content,
)
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
    "DecryptedAssets", "UserContent", "decrypt_assets", "split_user_content",
    "CipherScheme", "EvidenceRule", "GeneratorFingerprint", "GeneratorMatch",
    "detect_generator", "load_fingerprints",
]
