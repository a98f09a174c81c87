from apktriage.apkcore.artifact import ApkArtifact, open_apk
from apktriage.apkcore.certs import DN_FIELDS, SignerIdentity, extract_signers
from apktriage.apkcore.errors import (
    ApkError,
    CertUndecodable,
    ManifestUndecodable,
    NoManifest,
    NotAZip,
)
from apktriage.apkcore.manifest import ManifestInfo, parse_manifest
from apktriage.apkcore.permissions import PermissionProfile, load_dangerous_db, permission_profile

__all__ = [
    "ApkArtifact", "open_apk", "DN_FIELDS", "SignerIdentity", "extract_signers",
    "ApkError", "CertUndecodable", "ManifestUndecodable", "NoManifest",
    "NotAZip", "ManifestInfo", "parse_manifest",
    "PermissionProfile", "load_dangerous_db", "permission_profile",
]
