"""Network-endpoint extraction: URLs, IP literals and registrable domains."""

from __future__ import annotations

import ipaddress
import re
from dataclasses import dataclass
from typing import TYPE_CHECKING
from urllib.parse import urlsplit, urlunsplit

from apktriage.apkcore import zipread
from apktriage.apkcore.errors import ApkError
from apktriage.extract.psl import SuffixList
from apktriage.util import read_data_text

if TYPE_CHECKING:  # assoc loads this module for UrlSet and never parses an APK
    from apktriage.apkcore.artifact import ApkArtifact

# With IGNORECASE, _URL_RE has no literal prefix for ``re`` to scan for, so
# ``_scan_text`` tries it only 5 and 4 characters before each "://".
_URL_RE = re.compile(r"https?://[^\s\"'<>\\`{}|^\x00-\x1f]+", re.IGNORECASE)
# Each IP pattern opens with a character class, so that ``re`` can skip ahead
# to candidate characters. The check that no digit (or hex digit, ":" or
# ".") precedes the match is a lookbehind after the first character,
# spanning that character and the one before it.
_IPV4_RE = re.compile(r"(\d(?<![\d.]\d)\d{0,2}\.(?:\d{1,3}\.){2}\d{1,3})(?![\d.])")
_IPV6_RE = re.compile(r"([0-9A-Fa-f](?<![0-9A-Fa-f:.][0-9A-Fa-f])[0-9A-Fa-f]{0,3}:"
                      r"(?:[0-9A-Fa-f]{1,4}:){1,6}[0-9A-Fa-f:.]+)")
# Each IP pattern runs only on texts that hold its gate, a literal that every
# match of the pattern contains: for an IPv4 address the first dot, the second
# octet, the next dot and a digit; for an IPv6 address the first colon, the
# first repeated group and that group's colon. A text the gate skips has no
# match. Both gates open with a literal character, which ``re`` scans for fast.
_IPV4_GATE = re.compile(r"\.\d{1,3}\.\d")
_IPV6_GATE = re.compile(r":[0-9A-Fa-f]{1,4}:")
_TEXT_SUFFIXES = (".html", ".htm", ".js", ".json", ".xml", ".txt", ".css", ".properties", ".cfg")
_PRINTABLE_OR_NL = bytes(b if 0x20 <= b <= 0x7E else 0x0A for b in range(256))
_DEFAULT_PORTS = {"http": "80", "https": "443"}
# ranked whitelist lines kept, counted from the top of the file
WHITELIST_LIMIT = 10_000


@dataclass(frozen=True)
class UrlSet:
    urls: frozenset[str]
    ip_literals: frozenset[str]
    domains: frozenset[str]


def normalize_url(raw: str) -> str | None:
    raw = raw.rstrip(".,;:)]}\"'")
    try:
        parts = urlsplit(raw)
    except ValueError:
        return None
    if parts.scheme.lower() not in ("http", "https") or not parts.hostname:
        return None
    scheme = parts.scheme.lower()
    host = parts.hostname.lower()
    if ":" in host:  # a bracketed host: an IPv6 literal, compressed, in brackets
        try:
            host = f"[{ipaddress.IPv6Address(host)}]"
        except ValueError:  # IPvFuture or malformed
            return None
    try:
        port = parts.port
    except ValueError:  # out of range or not a number, e.g. ":99999", ":8o80"
        return None
    netloc = host if port is None or str(port) == _DEFAULT_PORTS[scheme] else f"{host}:{port}"
    return urlunsplit((scheme, netloc, parts.path, parts.query, ""))


def _host_of(url: str) -> str:
    return urlsplit(url).hostname or ""


def _is_ip(host: str) -> bool:
    try:
        ipaddress.ip_address(host)
        return True
    except ValueError:
        return False


def _scan_text(text: str, urls: set[str], ips: set[str]) -> None:
    end = 0  # as in ``finditer``, no match starts inside the previous one
    i = text.find("://")
    while i >= 0:
        for start in (i - 5, i - 4):
            m = _URL_RE.match(text, start) if start >= end else None
            if m:
                end = m.end()
                url = normalize_url(m.group(0))
                if url:
                    urls.add(url)
                break
        i = text.find("://", i + 3)
    if _IPV4_GATE.search(text):
        for m in _IPV4_RE.finditer(text):
            try:
                ipaddress.IPv4Address(m.group(1))
            except ValueError:
                continue
            ips.add(m.group(1))
    if _IPV6_GATE.search(text):
        for m in _IPV6_RE.finditer(text):
            cand = m.group(1).rstrip(":.")
            try:
                ip = ipaddress.IPv6Address(cand)
            except ValueError:
                continue
            ips.add(str(ip))


def urlset_from_strings(strings, psl: SuffixList) -> UrlSet:
    urls: set[str] = set()
    ips: set[str] = set()
    for s in strings:
        _scan_text(s, urls, ips)
    domains = set()
    for u in urls:
        host = _host_of(u)
        if _is_ip(host):
            ips.add(host)
        else:
            domains.add(psl.registrable(host))
    return UrlSet(frozenset(urls), frozenset(ips), frozenset(domains))


def _printable_runs(data: bytes) -> str:
    """The whole entry as text, each printable-ASCII run between "\n"s.

    The reference scans each run of at least 6 bytes on its own. A shorter
    run holds nothing it reports: the shortest URL ``normalize_url`` keeps
    has 8 characters ("http://a"), the shortest IPv4 address 7 and the
    shortest IPv6 address 6 ("1:2::3", after the rstrip). No pattern matches
    across "\n" and every lookaround treats it like the end of a string, so
    one scan of this text finds what the reference finds.
    """
    return data.translate(_PRINTABLE_OR_NL).decode("ascii")


def extract_urls(apk: ApkArtifact, psl: SuffixList,
                 decrypted: dict[str, bytes] | None = None) -> UrlSet:
    """Scan every string source in the APK for http(s) URLs and IP literals.

    Sources: decoded text assets, the ``decrypted`` plaintext of protected
    entries (path -> bytes), and printable ASCII runs from all remaining
    entries. An entry that cannot be read is skipped. Order-independent.
    """
    decrypted = decrypted or {}
    def texts():  # one at a time, so that only one entry's text is held
        for entry in apk.entries:
            data = decrypted.get(entry.path)
            if data is None:
                try:
                    data = zipread.read_entry(apk.raw, entry)
                except ApkError:
                    continue
            if entry.path.lower().endswith(_TEXT_SUFFIXES):
                yield data.decode("utf-8", "replace")
            else:
                yield _printable_runs(data)
    return urlset_from_strings(texts(), psl)


def load_whitelist(path=None) -> frozenset[str]:
    """Ranked-domain whitelist: plain or "rank,domain" lines, truncated
    at ``WHITELIST_LIMIT``, merged with the curated third-party-service
    list."""
    domains: set[str] = set()
    if path is not None:
        with open(path, encoding="utf-8") as f:
            for n, line in enumerate(f):
                if n >= WHITELIST_LIMIT:
                    break
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                domains.add(line.split(",")[-1].lower())
    for line in read_data_text(None, "third_party_domains.txt").splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            domains.add(line.lower())
    return frozenset(domains)


def filter_whitelist(u: UrlSet, whitelist: frozenset[str], psl: SuffixList) -> UrlSet:
    """Drop whitelisted registrable domains and their URLs. IP literals
    are never whitelisted. Idempotent."""
    kept_urls = set()
    domains = set()
    for url in u.urls:
        host = _host_of(url)
        if _is_ip(host):
            kept_urls.add(url)
            continue
        domain = psl.registrable(host)
        if domain not in whitelist:
            kept_urls.add(url)
            domains.add(domain)
    return UrlSet(frozenset(kept_urls), u.ip_literals, frozenset(domains))
