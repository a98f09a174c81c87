"""Per-sample association features, read from JSON lines."""

from __future__ import annotations

import json
from dataclasses import dataclass

from apktriage.apkcore.certs import CLASS_DEVELOPER, SignerIdentity
from apktriage.extract.snapshot import VisualFingerprint
from apktriage.extract.urls import UrlSet


@dataclass(frozen=True)
class SampleFeatures:
    sample_id: str
    signature: SignerIdentity | None
    url_set: UrlSet
    resolved_ips: frozenset[str] = frozenset()
    fingerprints: tuple[VisualFingerprint, ...] = ()
    label: dict | None = None

    @property
    def developer_signature(self) -> SignerIdentity | None:
        """Signature usable for association: developer-specific only."""
        if self.signature is not None and self.signature.signature_class == CLASS_DEVELOPER:
            return self.signature
        return None


def features_from_json(line: str) -> SampleFeatures:
    obj = json.loads(line)
    sig = None
    if obj.get("signature"):
        s = obj["signature"]
        sig = SignerIdentity(
            fingerprint=s["fingerprint"],
            dn_fields=dict(s.get("dn_fields", {})),
            signature_class=s.get("signature_class", CLASS_DEVELOPER),
        )
    return SampleFeatures(
        sample_id=obj["sample_id"],
        signature=sig,
        url_set=UrlSet(
            urls=frozenset(obj.get("urls", ())),
            ip_literals=frozenset(obj.get("ip_literals", ())),
            domains=frozenset(obj.get("domains", ())),
        ),
        resolved_ips=frozenset(obj.get("resolved_ips", ())),
        fingerprints=tuple(VisualFingerprint(int(fp["hash"], 16), fp.get("source", ""))
                           for fp in obj.get("fingerprints", ())),
        label=obj.get("label"),
    )


def read_features_jsonl(path) -> list[SampleFeatures]:
    out = []
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if line:
                out.append(features_from_json(line))
    return out

