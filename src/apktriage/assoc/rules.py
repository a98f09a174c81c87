"""Pairwise association rules: signature, domain overlap, shared IP,
snapshot.

All four are symmetric; blank signature fields never count as matches
and default/debug signatures are excluded from signature association.
"""

from __future__ import annotations

from dataclasses import dataclass

from apktriage.apkcore.certs import DN_FIELDS
from apktriage.assoc.features import SampleFeatures
from apktriage.extract.snapshot import similarity

RULE_SIGNATURE = "Signature"
RULE_URL = "Url"
RULE_SHARED_IP = "SharedIp"
RULE_SNAPSHOT = "Snapshot"


@dataclass(frozen=True)
class AssocConfig:
    i_max: int = 2
    url_overlap_threshold: float = 0.7
    snapshot_threshold: float = 0.9
    min_signature_field_matches: int = 3

    def __post_init__(self):
        if self.i_max < 0:
            raise ValueError("i_max must be >= 0")
        for t in (self.url_overlap_threshold, self.snapshot_threshold):
            if not 0 < t <= 1:
                raise ValueError("thresholds must be in (0, 1]")
        if self.min_signature_field_matches < 1:
            raise ValueError("min_signature_field_matches must be positive")


def overlap(a: frozenset, b: frozenset) -> float:
    """Overlap coefficient |a & b| / min(|a|, |b|); 0 when either is empty."""
    if not a or not b:
        return 0.0
    return len(a & b) / min(len(a), len(b))


def assoc_signature(a: SampleFeatures, b: SampleFeatures, cfg: AssocConfig) -> bool:
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
    return matches >= cfg.min_signature_field_matches


def shared_ip(a: SampleFeatures, b: SampleFeatures) -> bool:
    return bool(a.resolved_ips & b.resolved_ips)


def assoc_snapshot(a: SampleFeatures, b: SampleFeatures, cfg: AssocConfig) -> bool:
    if not a.fingerprints or not b.fingerprints:
        return False
    best = max(similarity(fa, fb) for fa in a.fingerprints for fb in b.fingerprints)
    return best >= cfg.snapshot_threshold


def fired_rules(a: SampleFeatures, b: SampleFeatures, cfg: AssocConfig) -> tuple[str, ...]:
    """Every rule that fires for the pair, in canonical order."""
    rules = []
    if assoc_signature(a, b, cfg):
        rules.append(RULE_SIGNATURE)
    if overlap(a.url_set.domains, b.url_set.domains) >= cfg.url_overlap_threshold:
        rules.append(RULE_URL)
    if shared_ip(a, b):
        rules.append(RULE_SHARED_IP)
    if assoc_snapshot(a, b, cfg):
        rules.append(RULE_SNAPSHOT)
    return tuple(rules)
