"""Reference URL/IP extractor: the per-run scanner that ``extract_urls``
must agree with.

Every printable-ASCII run of a non-text entry is scanned on its own, with
IP patterns that open with a lookbehind. Entries are read with the stdlib
``zipfile`` module; nothing is imported from ``apktriage.extract``. The
changes from the original scanner are all in ``normalize_url``: it drops a
URL whose port is out of range or not a number; it keeps the brackets of
an IPv6-literal host, so that host stays an IP literal and never reads as
a domain; it writes that host in the compressed form ``ipaddress`` gives,
so one address is one string; and it drops a URL whose bracketed host is
not an IPv6 address (an IPvFuture literal such as ``[v1.a:b]``).
"""

from __future__ import annotations

import io
import ipaddress
import re
import zipfile
from urllib.parse import urlsplit, urlunsplit

URL_RE = re.compile(r"https?://[^\s\"'<>\\`{}|^\x00-\x1f]+", re.IGNORECASE)
IPV4_RE = re.compile(r"(?<![\d.])((?:\d{1,3}\.){3}\d{1,3})(?![\d.])")
IPV6_RE = re.compile(r"(?<![0-9A-Fa-f:.])((?:[0-9A-Fa-f]{1,4}:){2,7}[0-9A-Fa-f:.]+)")
TEXT_SUFFIXES = (".html", ".htm", ".js", ".json", ".xml", ".txt", ".css", ".properties", ".cfg")
STRINGS_RE = re.compile(rb"[\x20-\x7e]{6,}")
DEFAULT_PORTS = {"http": "80", "https": "443"}


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
    if ":" in host:
        try:
            host = f"[{ipaddress.IPv6Address(host)}]"
        except ValueError:
            return None
    try:
        port = parts.port
    except ValueError:
        return None
    netloc = host if port is None or str(port) == DEFAULT_PORTS[scheme] else f"{host}:{port}"
    return urlunsplit((scheme, netloc, parts.path, parts.query, ""))


def _is_ip(host: str) -> bool:
    try:
        ipaddress.ip_address(host)
        return True
    except ValueError:
        return False


def scan_text(text: str, urls: set[str], ips: set[str]) -> None:
    for m in URL_RE.finditer(text):
        url = normalize_url(m.group(0))
        if url:
            urls.add(url)
    for m in IPV4_RE.finditer(text):
        try:
            ipaddress.IPv4Address(m.group(1))
        except ValueError:
            continue
        ips.add(m.group(1))
    for m in IPV6_RE.finditer(text):
        cand = m.group(1).rstrip(":.")
        try:
            ip = ipaddress.IPv6Address(cand)
        except ValueError:
            continue
        ips.add(str(ip))


def oracle_extract(apk_bytes: bytes, psl) -> tuple[frozenset, frozenset, frozenset]:
    """(urls, ip_literals, registrable domains) of an APK; ``psl`` is any
    object with a ``registrable(host)`` method."""
    strings: list[str] = []
    with zipfile.ZipFile(io.BytesIO(apk_bytes)) as z:
        for info in z.infolist():
            data = z.read(info)
            if info.filename.lower().endswith(TEXT_SUFFIXES):
                strings.append(data.decode("utf-8", "replace"))
            else:
                strings.extend(printable_runs(data))
    return oracle_urlset(strings, psl)


def printable_runs(data: bytes) -> list[str]:
    """The runs of at least 6 printable-ASCII bytes in ``data``."""
    return [m.group(0).decode("ascii") for m in STRINGS_RE.finditer(data)]


def oracle_urlset(strings, psl) -> tuple[frozenset, frozenset, frozenset]:
    """(urls, ip_literals, registrable domains) found in ``strings``."""
    urls: set[str] = set()
    ips: set[str] = set()
    for s in strings:
        scan_text(s, urls, ips)
    domains = set()
    for u in urls:
        host = urlsplit(u).hostname or ""
        if _is_ip(host):
            ips.add(host)
        else:
            domains.add(psl.registrable(host))
    return frozenset(urls), frozenset(ips), frozenset(domains)
