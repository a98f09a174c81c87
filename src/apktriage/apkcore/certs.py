"""Signer identity extraction from v1 (META-INF) signature blocks.

Only identity is extracted; the signature is never cryptographically
verified. The leaf certificate of each block is the one whose subject
does not issue any other certificate in the same block.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from hashlib import sha256

from cryptography import x509
from cryptography.hazmat.primitives.serialization import pkcs7, Encoding
from cryptography.x509.oid import NameOID

from apktriage.apkcore.errors import CertUndecodable
from apktriage.util import read_data_text

DN_FIELDS = ("commonName", "organizationalUnit", "organization",
             "locality", "state", "country", "email")

_OID_BY_FIELD = {
    "commonName": NameOID.COMMON_NAME,
    "organizationalUnit": NameOID.ORGANIZATIONAL_UNIT_NAME,
    "organization": NameOID.ORGANIZATION_NAME,
    "locality": NameOID.LOCALITY_NAME,
    "state": NameOID.STATE_OR_PROVINCE_NAME,
    "country": NameOID.COUNTRY_NAME,
    "email": NameOID.EMAIL_ADDRESS,
}

SIGNATURE_SUFFIXES = (".RSA", ".DSA", ".EC")

CLASS_DEVELOPER = "DeveloperSpecific"
CLASS_DEBUG = "DebugDefault"
CLASS_GENERATOR = "GeneratorDefault"


def is_signature_block(path: str) -> bool:
    """Whether an entry path names a v1 signature block."""
    return path.startswith("META-INF/") and path.upper().endswith(SIGNATURE_SUFFIXES)


@dataclass(frozen=True)
class SignerIdentity:
    fingerprint: str
    dn_fields: dict[str, str]
    signature_class: str

    @property
    def completeness(self) -> float:
        present = sum(1 for f in DN_FIELDS if self.dn_fields.get(f, "").strip())
        return present / len(DN_FIELDS)


def load_known_signatures() -> list[dict]:
    """The shipped list of known default/debug/generator signatures."""
    return json.loads(read_data_text(None, "known_signatures.json"))


def _dn_fields(name: x509.Name) -> dict[str, str]:
    out = {}
    for field, oid in _OID_BY_FIELD.items():
        attrs = name.get_attributes_for_oid(oid)
        if attrs:
            value = attrs[0].value
            out[field] = value if isinstance(value, str) else value.decode("utf-8", "replace")
    return out


def _select_leaf(certs: list[x509.Certificate]) -> x509.Certificate:
    # leaf = first certificate whose subject issues no other cert in the block
    for c in certs:
        subject = c.subject.rfc4514_string()
        if not any(o is not c and o.issuer.rfc4514_string() == subject for o in certs):
            return c
    return certs[0]


def classify_signature(fingerprint: str, dn: dict[str, str], known: list[dict]) -> str:
    for entry in known:
        fp = entry.get("fingerprint")
        if fp and fp.lower() == fingerprint.lower():
            return entry["class"]
        pattern = entry.get("dn_pattern")
        if pattern and all(dn.get(k, "") == v for k, v in pattern.items()):
            return entry["class"]
    return CLASS_DEVELOPER


def signer_from_block(block: bytes, known: list[dict]) -> SignerIdentity:
    """Parse one PKCS#7 signature block into a SignerIdentity."""
    try:
        certs = pkcs7.load_der_pkcs7_certificates(block)
    except ValueError as e:
        raise CertUndecodable(str(e)) from None
    if not certs:
        raise CertUndecodable("signature block carries no certificates")
    leaf = _select_leaf(certs)
    fingerprint = sha256(leaf.public_bytes(Encoding.DER)).hexdigest()
    dn = _dn_fields(leaf.subject)
    return SignerIdentity(
        fingerprint=fingerprint,
        dn_fields=dn,
        signature_class=classify_signature(fingerprint, dn, known),
    )


def extract_signers(entries: dict[str, bytes], known: list[dict]) -> list[SignerIdentity]:
    """Extract signers from {path: bytes} of META-INF signature blocks,
    classified against the ``known`` signature list.

    Returns an empty list when no block is present; callers treat that
    as a flag, not a failure.
    """
    signers = []
    for path in sorted(entries):
        if is_signature_block(path):
            signers.append(signer_from_block(entries[path], known))
    return signers
