"""Per-sample association features, read from JSON lines. A record keeps
only what a rule reads; ``urls``, ``ip_literals`` and each fingerprint's
``source`` are checked, not kept."""

from __future__ import annotations

import re
from dataclasses import dataclass

from apktriage.apkcore.certs import CLASS_DEVELOPER, SignerIdentity
from apktriage.util import read_json_lines

_HEX = re.compile(r"[0-9A-Fa-f]+")


@dataclass(frozen=True)
class SampleFeatures:
    sample_id: str
    signature: SignerIdentity | None
    domains: frozenset[str]
    resolved_ips: frozenset[str] = frozenset()
    fingerprints: tuple[int, ...] = ()  # 64-bit snapshot hashes
    label: dict | str | None = None

    @property
    def developer_signature(self) -> SignerIdentity | None:
        """Signature usable for association: developer-specific only."""
        if self.signature is not None and self.signature.signature_class == CLASS_DEVELOPER:
            return self.signature
        return None


def _strings(obj: dict, key: str) -> list[str]:
    values = obj.get(key, [])
    if type(values) is not list or not all(type(v) is str for v in values):
        raise ValueError(f"{key!r} must be a list of strings")
    return values


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


def _fingerprint(fp) -> int:
    if type(fp) is not dict:
        raise ValueError("a fingerprint is an object")
    bits = fp.get("hash")
    if type(bits) is not str or type(fp.get("source", "")) is not str:
        raise ValueError("a fingerprint's 'hash' and 'source' must be strings")
    if not _HEX.fullmatch(bits):
        raise ValueError("a fingerprint's 'hash' must be ASCII hex digits")
    if len(bits) > 16:
        raise ValueError("hash must fit in 64 bits")
    return int(bits, 16)


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
    if type(label) is dict:
        if label.get("top") is not None and type(label["top"]) is not str:
            raise ValueError("a label's 'top' must be a string or null")
    elif label is not None and type(label) is not str:
        raise ValueError("'label' must be a string, an object or null")
    signature = _signature(obj.get("signature"))
    _strings(obj, "urls")
    _strings(obj, "ip_literals")
    return SampleFeatures(
        sample_id=obj["sample_id"],
        signature=signature,
        domains=frozenset(_strings(obj, "domains")),
        resolved_ips=frozenset(_strings(obj, "resolved_ips")),
        fingerprints=tuple(map(_fingerprint, fingerprints)),
        label=label,
    )


def read_features_jsonl(path) -> list[SampleFeatures]:
    return read_json_lines(path, features_from_json)
