"""Domain-IP binding behaviour: fixed vs. flexible, and IP sharing types."""

from __future__ import annotations

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


@dataclass(frozen=True)
class BindingClassification:
    domain: str
    kind: str
    segments: tuple[BindingSegment, ...]
    mean_binding_days: float
    shared_same_period: bool = False
    shared_cross_period: bool = False


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


def _overlaps(a: BindingSegment, b: BindingSegment) -> bool:
    return a.start <= b.end and b.start <= a.end


def classify_bindings(timelines) -> tuple[dict[str, BindingClassification], dict]:
    """Classify each monitored domain (an iterable of timelines) and
    summarize the population; means are summed in iteration order.

    Flexible = at least two distinct IPs ever resolved. Type-I shares an
    IP with another monitored domain's bindings at any time (same-period
    and cross-period sharing both count, reported as sub-flags); type-II
    never shares. Domains with zero or one distinct IP are Fixed.
    """
    per_domain: dict[str, tuple[BindingSegment, ...]] = {}
    distinct: dict[str, set[str]] = {}
    for t in timelines:
        segs = binding_segments(t)
        per_domain[t.domain] = segs
        distinct[t.domain] = set().union(*[s.ips for s in segs]) if segs else set()

    # ip -> [(domain, segment)] for the sharing check
    by_ip: dict[str, list[tuple[str, BindingSegment]]] = {}
    for domain, segs in per_domain.items():
        for s in segs:
            for ip in s.ips:
                by_ip.setdefault(ip, []).append((domain, s))

    result: dict[str, BindingClassification] = {}
    for domain, segs in per_domain.items():
        mean_days = (sum(s.days for s in segs) / len(segs)) if segs else 0.0
        if len(distinct[domain]) < 2:
            result[domain] = BindingClassification(domain, KIND_FIXED, segs, mean_days)
            continue
        same = cross = False
        for s in segs:
            for ip in s.ips:
                for other_domain, other_seg in by_ip.get(ip, ()):
                    if other_domain == domain:
                        continue
                    if _overlaps(s, other_seg):
                        same = True
                    else:
                        cross = True
        kind = KIND_FLEXIBLE_I if (same or cross) else KIND_FLEXIBLE_II
        result[domain] = BindingClassification(domain, kind, segs, mean_days,
                                               shared_same_period=same,
                                               shared_cross_period=cross)

    flexible = [c for c in result.values() if c.kind != KIND_FIXED]
    flex_segments = [s for c in flexible for s in c.segments]
    summary = {
        "domains": len(result),
        "fixed": sum(1 for c in result.values() if c.kind == KIND_FIXED),
        "flexible": len(flexible),
        "type1": sum(1 for c in flexible if c.kind == KIND_FLEXIBLE_I),
        "type2": sum(1 for c in flexible if c.kind == KIND_FLEXIBLE_II),
        "flexible_fraction": len(flexible) / len(result) if result else 0.0,
        "mean_binding_days": round_half_up(
            sum(s.days for s in flex_segments) / len(flex_segments), 2)
        if flex_segments else 0.0,
    }
    return result, summary
