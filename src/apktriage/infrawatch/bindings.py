"""Domain-IP binding behaviour: fixed vs. flexible, and IP sharing types."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from datetime import datetime

from apktriage.infrawatch.timeline import DomainTimeline
from apktriage.util import round_half_up

KIND_FIXED = "Fixed"
KIND_FLEXIBLE_I = "FlexibleTypeI"
KIND_FLEXIBLE_II = "FlexibleTypeII"


@dataclass(frozen=True)
class BindingSegment:
    ips: frozenset[str]
    start: datetime
    end: datetime

    @property
    def days(self) -> float:
        return (self.end - self.start).total_seconds() / 86400.0


def binding_segments(t: DomainTimeline) -> tuple[BindingSegment, ...]:
    """Run-length encoding of the resolved IP set; a change of set (or an
    NXDOMAIN answer) starts a new segment."""
    segments: list[BindingSegment] = []
    current: frozenset[str] | None = None
    start = last = None
    for r in t.resolutions:
        ips = r.ips if r.ips else None
        if ips != current:
            if current is not None:
                segments.append(BindingSegment(current, start, last))
            current, start = ips, r.ts
        last = r.ts
    if current is not None:
        segments.append(BindingSegment(current, start, last))
    return tuple(segments)


def classify_bindings(timelines) -> tuple[dict[str, str], dict]:
    """``classify_segments`` of the binding segments of each timeline."""
    return classify_segments({t.domain: binding_segments(t) for t in timelines})


def classify_segments(per_domain: dict[str, tuple[BindingSegment, ...]]
                      ) -> tuple[dict[str, str], dict]:
    """The binding kind of each monitored domain, and a summary of the
    population whose mean is summed over the flexible segments in the
    mapping's order.

    Flexible = at least two distinct IPs ever resolved; domains with zero
    or one distinct IP are Fixed. A flexible domain is type I when one of
    its distinct IPs is also a distinct IP of another monitored domain,
    whether or not their bindings overlap in time; type II otherwise.
    """
    distinct = {domain: set().union(*[s.ips for s in segs])
                for domain, segs in per_domain.items()}
    domains_of = Counter(ip for ips in distinct.values() for ip in ips)
    kinds = {domain: KIND_FIXED if len(ips) < 2
             else KIND_FLEXIBLE_I if any(domains_of[ip] > 1 for ip in ips)
             else KIND_FLEXIBLE_II
             for domain, ips in distinct.items()}

    flex_days = [s.days for domain, segs in per_domain.items()
                 if kinds[domain] != KIND_FIXED for s in segs]
    counts = Counter(kinds.values())
    flexible = counts[KIND_FLEXIBLE_I] + counts[KIND_FLEXIBLE_II]
    summary = {
        "domains": len(kinds),
        "fixed": counts[KIND_FIXED],
        "flexible": flexible,
        "type1": counts[KIND_FLEXIBLE_I],
        "type2": counts[KIND_FLEXIBLE_II],
        "flexible_fraction": flexible / len(kinds) if kinds else 0.0,
        "mean_binding_days": round_half_up(sum(flex_days) / len(flex_days), 2)
        if flex_days else 0.0,
    }
    return kinds, summary
