"""Pairwise association rules: signature, domain overlap, shared IP,
snapshot.

All four are symmetric; blank signature fields never count as matches
and default/debug signatures are excluded from signature association.
The rules run at one operating point, set by the constants below.
"""

from __future__ import annotations

from apktriage.apkcore.certs import DN_FIELDS
from apktriage.assoc.features import SampleFeatures

RULE_SIGNATURE = "Signature"
RULE_URL = "Url"
RULE_SHARED_IP = "SharedIp"
RULE_SNAPSHOT = "Snapshot"

URL_OVERLAP_THRESHOLD = 0.7
MIN_SIGNATURE_FIELD_MATCHES = 3
# snapshot similarity >= 0.9, i.e. at most 6 of the 64 dHash bits differ
SNAPSHOT_MAX_BITS = 6


def overlap(a: frozenset, b: frozenset) -> float:
    """Overlap coefficient |a & b| / min(|a|, |b|); 0 when either is empty."""
    if not a or not b:
        return 0.0
    return len(a & b) / min(len(a), len(b))


def assoc_signature(a: SampleFeatures, b: SampleFeatures) -> bool:
    sa, sb = a.developer_signature, b.developer_signature
    if sa is None or sb is None:
        return False
    if sa.fingerprint == sb.fingerprint:
        return True
    matches = sum(
        1 for f in DN_FIELDS
        if sa.dn_fields.get(f, "").strip()
        and sa.dn_fields.get(f, "").strip() == sb.dn_fields.get(f, "").strip()
    )
    return matches >= MIN_SIGNATURE_FIELD_MATCHES


def shared_ip(a: SampleFeatures, b: SampleFeatures) -> bool:
    return bool(a.resolved_ips & b.resolved_ips)


def assoc_snapshot(a: SampleFeatures, b: SampleFeatures) -> bool:
    return any((fa ^ fb).bit_count() <= SNAPSHOT_MAX_BITS
               for fa in a.fingerprints for fb in b.fingerprints)


def fired_rules(a: SampleFeatures, b: SampleFeatures) -> tuple[str, ...]:
    """Every rule that fires for the pair, in canonical order."""
    rules = []
    if assoc_signature(a, b):
        rules.append(RULE_SIGNATURE)
    if overlap(a.domains, b.domains) >= URL_OVERLAP_THRESHOLD:
        rules.append(RULE_URL)
    if shared_ip(a, b):
        rules.append(RULE_SHARED_IP)
    if assoc_snapshot(a, b):
        rules.append(RULE_SNAPSHOT)
    return tuple(rules)
