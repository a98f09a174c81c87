"""Network-endpoint extraction: URLs, IP literals and registrable domains."""

from __future__ import annotations

import ipaddress
import itertools
import re
from dataclasses import dataclass
from typing import NamedTuple
from urllib.parse import urlsplit, urlunsplit

from apktriage.apkcore import zipread
from apktriage.apkcore.artifact import ApkArtifact
from apktriage.apkcore.errors import ApkError
from apktriage.extract.psl import SuffixList
from apktriage.util import list_file_entries, read_data_text

# With IGNORECASE, the URL pattern has no literal prefix for ``re`` to scan
# for, so ``_url_matches`` tries it only 5 and 4 characters before each "://".
# ``%s`` holds what the bytes form also excludes (see ``_BYTES``).
_URL = r"https?://[^\s\"'<>\\`{}|^\x00-\x1f%s]+"
# Each IP pattern opens with a character class, so that ``re`` can skip ahead
# to candidate characters. The check that no digit (or hex digit, ":" or
# ".") precedes the match is a lookbehind after the first character,
# spanning that character and the one before it.
_IPV4 = r"(\d(?<![\d.]\d)\d{0,2}\.(?:\d{1,3}\.){2}\d{1,3})(?![\d.])"
_IPV6 = (r"([0-9A-Fa-f](?<![0-9A-Fa-f:.][0-9A-Fa-f])[0-9A-Fa-f]{0,3}:"
         r"(?:[0-9A-Fa-f]{1,4}:){1,6}[0-9A-Fa-f:.]+)")
# Each IP pattern is searched for only from the hits of its gate, a literal
# that every match of the pattern contains, 1 to 3 (IPv4) or 1 to 4 (IPv6)
# characters after the match starts: for an IPv4 address the first dot, the
# second octet, the next dot and a digit; for an IPv6 address the first
# colon, the first repeated group and that group's colon. Both gates open
# with a literal character, which ``re`` scans for fast.
_IPV4_GATE = r"\.\d{1,3}\.\d"
_IPV6_GATE = r":[0-9A-Fa-f]{1,4}:"


class _Patterns(NamedTuple):
    """The endpoint patterns for one type of text: ``str`` or ``bytes``."""
    sep: str | bytes
    url: re.Pattern
    ipv4_gate: re.Pattern
    ipv4: re.Pattern
    ipv6_gate: re.Pattern
    ipv6: re.Pattern


def _patterns(sep: str | bytes, url_excludes: str) -> _Patterns:
    """The patterns of ``sep``'s type, compiled from the sources above."""
    def compile_(source: str, flags: int = 0) -> re.Pattern:
        return re.compile(source if isinstance(sep, str) else source.encode("ascii"), flags)
    return _Patterns(sep, compile_(_URL % url_excludes, re.IGNORECASE),
                     compile_(_IPV4_GATE), compile_(_IPV4), compile_(_IPV6_GATE), compile_(_IPV6))


# Text assets are decoded and scanned with Unicode semantics; every other
# entry is scanned as read. In the bytes form the URL class also excludes
# the bytes above ASCII, and ``\d`` and IGNORECASE are ASCII-only. So a
# match holds printable ASCII only, and every lookaround reads a byte
# outside 0x20-0x7e as it reads the end of a text: the bytes form finds what
# the text form finds in each printable run scanned on its own. A run shorter
# than 6 bytes holds nothing reported: the shortest URL ``normalize_url``
# keeps has 8 characters ("http://a"), the shortest IPv4 address 7 and the
# shortest IPv6 address 6 ("1:2::3", after the rstrip).
_TEXT = _patterns("://", "")
_BYTES = _patterns(b"://", r"\x7f-\xff")

_TEXT_SUFFIXES = (".html", ".htm", ".js", ".json", ".xml", ".txt", ".css", ".properties", ".cfg")
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
    # without a ":" only IPv4 can parse, and only from digits and dots
    if ":" not in host and not host.replace(".", "").isdigit():
        return False
    try:
        ipaddress.ip_address(host)
        return True
    except ValueError:
        return False


def _url_matches(text: str | bytes, p: _Patterns):
    """What ``p.url.finditer(text)`` yields, tried only 5 and 4 characters
    before each separator."""
    end = 0  # as in ``finditer``, no match starts inside the previous one
    i = text.find(p.sep)
    while i >= 0:
        for start in (i - 5, i - 4):
            m = p.url.match(text, start) if start >= end else None
            if m:
                end = m.end()
                yield m.group(0)
                break
        i = text.find(p.sep, i + 3)


def _ip_matches(text: str | bytes, gate: re.Pattern, pattern: re.Pattern, back: int):
    """The address group of each match ``pattern.finditer(text)`` yields,
    searched for only from each gate hit. A match's gate starts 1 to
    ``back`` characters after the match does, and the gate has no
    lookaround, so no match starts more than ``back`` characters before
    the first gate hit at or after ``pos``; ``search`` from there gives the
    leftmost match, as ``finditer`` would. Each character is scanned at
    most once by the gate and once by the pattern, plus ``back`` per
    match."""
    pos = 0
    while (g := gate.search(text, pos)) and (m := pattern.search(text, max(g.start() - back, pos))):
        yield m.group(1)
        pos = m.end()


def _unseen(raws, seen: set):
    """Each raw match not in ``seen``, as ``str``: a match of the bytes
    form holds printable ASCII only."""
    for raw in raws:
        if raw not in seen:
            seen.add(raw)
            yield raw if isinstance(raw, str) else raw.decode("ascii")


def _scan_text(text: str | bytes, urls: set[str], ips: set[str]) -> None:
    p = _TEXT if isinstance(text, str) else _BYTES
    # What each family reports depends on the raw match alone, and no raw
    # match of one family is one of another (a URL holds "://", an IPv6
    # match a ":", an IPv4 match neither), so a repeat is parsed once.
    seen = set()
    for raw in _unseen(_url_matches(text, p), seen):
        url = normalize_url(raw)
        if url:
            urls.add(url)
    for raw in _unseen(_ip_matches(text, p.ipv4_gate, p.ipv4, 3), seen):
        try:
            ipaddress.IPv4Address(raw)
        except ValueError:
            continue
        ips.add(raw)
    for raw in _unseen(_ip_matches(text, p.ipv6_gate, p.ipv6, 4), seen):
        try:
            ip = ipaddress.IPv6Address(raw.rstrip(":."))
        except ValueError:
            continue
        ips.add(str(ip))


def urlset_from_strings(strings, psl: SuffixList) -> UrlSet:
    """The endpoints in ``strings``: each a ``str``, or the ``bytes`` of an
    entry, which are searched as their printable-ASCII runs."""
    urls: set[str] = set()
    ips: set[str] = set()
    for s in strings:
        _scan_text(s, urls, ips)
        del s  # not held while the next entry is inflated
    domains = set()
    for u in urls:
        host = _host_of(u)
        if _is_ip(host):
            ips.add(host)
        else:
            domains.add(psl.registrable(host))
    return UrlSet(frozenset(urls), frozenset(ips), frozenset(domains))


def extract_urls(apk: ApkArtifact, psl: SuffixList,
                 decrypted: dict[str, bytes] | None = None) -> UrlSet:
    """Scan every string source in the APK for http(s) URLs and IP literals.

    Each entry's bytes, or its ``decrypted`` plaintext (path -> bytes),
    are scanned whole: a text asset (``_TEXT_SUFFIXES``) as UTF-8 text,
    any other entry as read, with the bytes form of the patterns, which
    finds what the text form finds in each printable-ASCII run on its own.
    An entry that cannot be read is skipped. Order-independent.
    """
    decrypted = decrypted or {}
    def texts():  # one at a time, not every entry at once
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
                yield data
    return urlset_from_strings(texts(), psl)


def load_whitelist(path=None) -> frozenset[str]:
    """Ranked-domain whitelist: plain or "rank,domain" lines, truncated
    at ``WHITELIST_LIMIT``, merged with the curated third-party-service
    list."""
    domains = {d.lower() for d in list_file_entries(
        read_data_text(None, "third_party_domains.txt").splitlines())}
    if path is not None:
        with open(path, encoding="utf-8") as f:
            domains.update(d.split(",")[-1].lower()
                           for d in list_file_entries(itertools.islice(f, WHITELIST_LIMIT)))
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
