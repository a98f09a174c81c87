"""Registrant aggregation over WHOIS records."""

from __future__ import annotations

from apktriage.util import pct


def registrant_stats(records, total_domains: int) -> list[tuple[str, int, float]]:
    """(registrant, count, percentage) over ``WhoisRecord``s, descending
    by count; a blank registrant counts as "unknown". The percentage
    denominator is the total number of monitored domains."""
    if not records:
        raise ValueError("no WHOIS records supplied")
    counts: dict[str, int] = {}
    for rec in records:
        name = rec.registrant or "unknown"
        counts[name] = counts.get(name, 0) + 1
    rows = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return [(name, n, pct(n, total_domains)) for name, n in rows]
