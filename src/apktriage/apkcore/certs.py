"""Signer identity extraction from v1 (META-INF) signature blocks.

Only identity is extracted; the signature is never cryptographically
verified. The leaf certificate of each block is the one whose subject
does not issue any other certificate in the same block. ``cryptography``
is imported only where a block is parsed, so a reader of signer records
never loads it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from hashlib import sha256

from apktriage.apkcore.errors import CertUndecodable
from apktriage.util import read_data_text

DN_FIELDS = ("commonName", "organizationalUnit", "organization",
             "locality", "state", "country", "email")

# the dotted OIDs of DN_FIELDS, in order: X.520 CN, OU, O, L, ST and C, and
# the PKCS #9 emailAddress
_OID_BY_FIELD = dict(zip(DN_FIELDS, ("2.5.4.3", "2.5.4.11", "2.5.4.10", "2.5.4.7",
                                     "2.5.4.8", "2.5.4.6", "1.2.840.113549.1.9.1")))

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


def _dn_fields(name) -> dict[str, str]:
    """The first value of each DN field in the ``x509.Name`` ``name``; only
    an X.500 unique identifier has a bytes value, so each is a string."""
    first = {}
    for attr in name:
        first.setdefault(attr.oid.dotted_string, attr.value)
    return {field: first[oid] for field, oid in _OID_BY_FIELD.items() if oid in first}


def _select_leaf(certs: list):
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
    from cryptography.hazmat.primitives.serialization import Encoding, pkcs7
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
