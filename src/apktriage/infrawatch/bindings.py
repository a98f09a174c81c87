"""Domain-IP binding behaviour: fixed vs. flexible, and IP sharing types."""

from __future__ import annotations

from collections import Counter

from apktriage.infrawatch.timeline import DomainTimeline
from apktriage.util import round_half_up

KIND_FIXED = "Fixed"
KIND_FLEXIBLE_I = "FlexibleTypeI"
KIND_FLEXIBLE_II = "FlexibleTypeII"


def binding_summary(t: DomainTimeline) -> tuple[frozenset[str], tuple[float, ...]]:
    """The distinct IPs that t resolved to and, only when there are two or
    more, the length in days of each of its bindings in order.

    A binding is a run of resolutions to one IP set: a changed set starts
    one, and an NXDOMAIN answer or an empty set closes it. It lasts from
    its first resolution to its last, so a binding seen once lasts 0 days.
    """
    distinct: set[str] = set()
    runs = []  # [first ts, last ts] of each binding
    current = None
    for ts, ips in t.resolutions:
        if not ips:
            current = None
        elif ips == current:
            runs[-1][1] = ts
        else:
            current = ips
            distinct |= ips
            runs.append([ts, ts])
    if len(distinct) < 2:
        return frozenset(distinct), ()
    return frozenset(distinct), tuple((last - first).total_seconds() / 86400.0
                                      for first, last in runs)


def classify_bindings(timelines) -> tuple[dict[str, str], dict]:
    """``classify_segments`` of the binding summary of each timeline."""
    return classify_segments({t.domain: binding_summary(t) for t in timelines})


def classify_segments(per_domain: dict[str, tuple[frozenset[str], tuple[float, ...]]]
                      ) -> tuple[dict[str, str], dict]:
    """The binding kind of each monitored domain, from its
    ``binding_summary``, and a summary of the population whose mean is
    summed over the flexible domains' binding days in the mapping's order.

    Flexible = at least two distinct IPs ever resolved; domains with zero
    or one distinct IP are Fixed. A flexible domain is type I when one of
    its distinct IPs is also a distinct IP of another monitored domain,
    whether or not their bindings overlap in time; type II otherwise.
    """
    domains_of = Counter(ip for ips, _days in per_domain.values() for ip in ips)
    kinds = {domain: KIND_FIXED if len(ips) < 2
             else KIND_FLEXIBLE_I if any(domains_of[ip] > 1 for ip in ips)
             else KIND_FLEXIBLE_II
             for domain, (ips, _days) in per_domain.items()}

    # a fixed domain's summary holds no days
    flex_days = [d for _ips, days in per_domain.values() for d in days]
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
