"""Per-sample association features, read from JSON lines."""

from __future__ import annotations

from dataclasses import dataclass

from apktriage.apkcore.certs import CLASS_DEVELOPER, SignerIdentity
from apktriage.extract.snapshot import VisualFingerprint
from apktriage.extract.urls import UrlSet
from apktriage.util import read_json_lines


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


def _strings(obj: dict, key: str) -> frozenset[str]:
    values = obj.get(key, [])
    if type(values) is not list or not all(type(v) is str for v in values):
        raise ValueError(f"{key!r} must be a list of strings")
    return frozenset(values)


def _signature(s) -> SignerIdentity | None:
    if s is not None and type(s) is not dict:
        raise ValueError("'signature' must be an object or null")
    if not s:  # an empty object is no signature, as null is
        return None
    fp, dn = s.get("fingerprint"), s.get("dn_fields", {})
    cls = s.get("signature_class", CLASS_DEVELOPER)
    if type(fp) is not str:
        raise ValueError("'fingerprint' must be a string")
    if type(dn) is not dict or not all(type(v) is str for v in dn.values()):
        raise ValueError("'dn_fields' must be an object of strings")
    if type(cls) is not str:
        raise ValueError("'signature_class' must be a string")
    return SignerIdentity(fingerprint=fp, dn_fields=dn, signature_class=cls)


def _fingerprint(fp) -> VisualFingerprint:
    if type(fp) is not dict:
        raise ValueError("a fingerprint is an object")
    bits, source = fp.get("hash"), fp.get("source", "")
    if type(bits) is not str or type(source) is not str:
        raise ValueError("a fingerprint's 'hash' and 'source' must be strings")
    return VisualFingerprint(int(bits, 16), source)


def features_from_json(obj) -> SampleFeatures:
    """One features record from its decoded JSON line; ``ValueError`` when
    ``obj`` is not one."""
    if type(obj) is not dict:
        raise ValueError("a features record is a JSON object")
    if type(obj.get("sample_id")) is not str:
        raise ValueError("'sample_id' must be a string")
    fingerprints = obj.get("fingerprints", [])
    if type(fingerprints) is not list:
        raise ValueError("'fingerprints' must be a list")
    label = obj.get("label")
    if type(label) is dict and label.get("top") is not None and type(label["top"]) is not str:
        raise ValueError("a label's 'top' must be a string or null")
    return SampleFeatures(
        sample_id=obj["sample_id"],
        signature=_signature(obj.get("signature")),
        url_set=UrlSet(
            urls=_strings(obj, "urls"),
            ip_literals=_strings(obj, "ip_literals"),
            domains=_strings(obj, "domains"),
        ),
        resolved_ips=_strings(obj, "resolved_ips"),
        fingerprints=tuple(map(_fingerprint, fingerprints)),
        label=label,
    )


def read_features_jsonl(path) -> list[SampleFeatures]:
    return read_json_lines(path, features_from_json)
