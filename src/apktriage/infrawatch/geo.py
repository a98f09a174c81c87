"""Geolocation: offline IP-range database plus WHOIS/ccTLD inference."""

from __future__ import annotations

import bisect
import csv
import ipaddress

from apktriage.util import pct

UNKNOWN = "unknown"

# country-coded TLD inference used when WHOIS records are incomplete
CCTLD_COUNTRIES = {
    "cn": "China", "hk": "Hong Kong", "tw": "Taiwan", "jp": "Japan",
    "kr": "South Korea", "sg": "Singapore", "in": "India", "ru": "Russia",
    "de": "Germany", "fr": "France", "uk": "United Kingdom", "it": "Italy",
    "nl": "Netherlands", "us": "United States", "ca": "Canada",
    "br": "Brazil", "au": "Australia", "my": "Malaysia", "ph": "Philippines",
    "th": "Thailand", "vn": "Vietnam", "id": "Indonesia", "mx": "Mexico",
    "es": "Spain", "se": "Sweden", "ch": "Switzerland", "pl": "Poland",
    "tr": "Turkey",
}


class GeoDb:
    """Sorted (range_start, range_end, country) rows; exact binary-search
    lookup. Ranges may be dotted addresses or integers in the CSV."""

    def __init__(self, rows):
        rows = sorted(rows)
        self.starts = [r[0] for r in rows]
        self.ends = [r[1] for r in rows]
        self.countries = [r[2] for r in rows]

    @classmethod
    def from_csv(cls, path) -> "GeoDb":
        rows = []
        with open(path, newline="", encoding="utf-8") as f:
            for rec in csv.reader(f):
                if not rec or rec[0].startswith("#"):
                    continue
                rows.append((_ip_int(rec[0]), _ip_int(rec[1]), rec[2].strip()))
        return cls(rows)

    def country(self, ip: str) -> str | None:
        try:
            value = _ip_int(ip)
        except ValueError:
            return None
        i = bisect.bisect_right(self.starts, value) - 1
        if i >= 0 and self.starts[i] <= value <= self.ends[i]:
            return self.countries[i]
        return None


def _ip_int(s: str) -> int:
    s = s.strip()
    if s.isdigit():
        return int(s)
    return int(ipaddress.ip_address(s))


def cctld_country(domain: str) -> str | None:
    tld = domain.rstrip(".").rsplit(".", 1)[-1].lower()
    return CCTLD_COUNTRIES.get(tld)


def geolocate(timelines, geo_db: GeoDb | None):
    """Two country distributions over an iterable of timelines: domain
    registration and IP geolocation.

    Domain country comes from WHOIS, falling back to ccTLD inference;
    every IP ever resolved counts once per (domain, ip) pair. Unresolved
    locations land in "unknown", never dropped.
    """
    domain_counts: dict[str, int] = {}
    ip_counts: dict[str, int] = {}
    for t in timelines:
        country = (t.whois.country if t.whois and t.whois.country else None) \
            or cctld_country(t.domain) or UNKNOWN
        domain_counts[country] = domain_counts.get(country, 0) + 1
        seen: set[str] = set()
        for r in t.resolutions:
            if r.ips:
                seen.update(r.ips)
        for ip in seen:
            c = (geo_db.country(ip) if geo_db else None) or UNKNOWN
            ip_counts[c] = ip_counts.get(c, 0) + 1
    return domain_counts, ip_counts


def distribution(counts: dict[str, int]) -> list[tuple[str, int, float]]:
    """(country, count, percentage) rows, count descending then name."""
    total = sum(counts.values())
    rows = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return [(c, n, pct(n, total)) for c, n in rows]
