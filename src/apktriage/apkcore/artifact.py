"""Top-level APK record: container entries, manifest, signers."""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime
from hashlib import sha256

from apktriage.apkcore import zipread
from apktriage.apkcore.certs import SignerIdentity, extract_signers, is_signature_block
from apktriage.apkcore.errors import ManifestUndecodable, NoManifest
from apktriage.apkcore.manifest import ManifestInfo, parse_manifest

MANIFEST_PATH = "AndroidManifest.xml"


@dataclass(frozen=True)
class ApkArtifact:
    sample_id: str
    package_name: str
    entries: tuple[zipread.ZipEntry, ...]
    manifest: ManifestInfo | None
    signers: tuple[SignerIdentity, ...]
    manifest_mtime: datetime
    raw: bytes

    def entry(self, path: str) -> zipread.ZipEntry | None:
        for e in self.entries:
            if e.path == path:
                return e
        return None

    def read(self, path: str) -> bytes:
        e = self.entry(path)
        if e is None:
            raise KeyError(path)
        return zipread.read_entry(self.raw, e)


def open_apk(file_bytes: bytes, known_signatures: list[dict]) -> ApkArtifact:
    """Parse an APK, classifying its signers against ``known_signatures``.
    Raises NotAZip/NoManifest; an undecodable manifest still yields an
    artifact, whose ``manifest`` is None."""
    entries = zipread.list_entries(file_bytes)
    manifest_entry = next((e for e in entries if e.path == MANIFEST_PATH), None)
    if manifest_entry is None:
        raise NoManifest(f"archive has no {MANIFEST_PATH} entry")

    manifest: ManifestInfo | None
    try:
        manifest = parse_manifest(zipread.read_entry(file_bytes, manifest_entry))
    except ManifestUndecodable:
        manifest = None

    blocks = {e.path: zipread.read_entry(file_bytes, e)
              for e in entries if is_signature_block(e.path)}
    signers = tuple(extract_signers(blocks, known_signatures))

    return ApkArtifact(
        sample_id=sha256(file_bytes).hexdigest(),
        package_name=manifest.package_name if manifest else "",
        entries=tuple(entries),
        manifest=manifest,
        signers=signers,
        manifest_mtime=manifest_entry.mtime,
        raw=file_bytes,
    )
