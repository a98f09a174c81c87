"""Registrant aggregation over WHOIS records."""

from __future__ import annotations

from apktriage.infrawatch.timeline import WhoisRecord
from apktriage.util import pct


def registrant_stats(records, total_domains: int | None = None) -> list[tuple[str, int, float]]:
    """(registrant, count, percentage) descending by count. The
    percentage denominator is the total number of monitored domains."""
    if not records:
        raise ValueError("no WHOIS records supplied")
    counts: dict[str, int] = {}
    for rec in records:
        name = rec.registrant if isinstance(rec, WhoisRecord) else str(rec)
        name = name or "unknown"
        counts[name] = counts.get(name, 0) + 1
    denom = total_domains if total_domains is not None else sum(counts.values())
    rows = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return [(name, n, pct(n, denom)) for name, n in rows]
