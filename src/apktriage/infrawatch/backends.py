"""Resolver/prober/WHOIS/geolocation backends.

Every network touchpoint sits behind a small interface with a scripted,
fully deterministic implementation so monitoring logic is testable
offline; the real-network implementations import lazily.
"""

from __future__ import annotations

from datetime import datetime
from typing import Protocol

from apktriage.infrawatch.timeline import WhoisRecord


class BackendUnavailable(Exception):
    pass


class Resolver(Protocol):
    def resolve(self, domain: str, ts: datetime) -> frozenset[str] | None:
        """Resolved IP set, or None for NXDOMAIN."""


class Prober(Protocol):
    def probe(self, domain: str, ts: datetime) -> int | None:
        """HTTP status code, or None for timeout / connection refused."""


class WhoisClient(Protocol):
    def lookup(self, domain: str) -> WhoisRecord | None: ...


class _Scripted:
    """Per-domain list of values consumed one per call; the final value
    repeats, an unscripted domain gives None, and the string "gap" raises
    BackendUnavailable naming the ``backend``."""

    def __init__(self, script: dict[str, list]):
        self.script = {d: list(v) for d, v in script.items()}
        self._tick: dict[str, int] = {}

    def _next(self, domain):
        seq = self.script.get(domain)
        if not seq:
            return None
        i = self._tick.get(domain, 0)
        self._tick[domain] = i + 1
        value = seq[min(i, len(seq) - 1)]
        if value == "gap":
            raise BackendUnavailable(f"{self.backend} outage for {domain}")
        return value


class ScriptedResolver(_Scripted):
    """Scripted IP sets, one per tick; None entries mean NXDOMAIN."""

    backend = "resolver"

    def resolve(self, domain, ts):
        value = self._next(domain)
        return None if value is None else frozenset(value)


class ScriptedProber(_Scripted):
    """Scripted HTTP statuses, one per probe; None means no answer."""

    backend = "prober"

    def probe(self, domain, ts):
        return self._next(domain)


class ScriptedWhois:
    def __init__(self, records: dict[str, WhoisRecord]):
        self.records = dict(records)

    def lookup(self, domain):
        return self.records.get(domain)


class DnsResolver:
    """Live DNS via the system resolver."""

    def resolve(self, domain, ts):
        import socket
        try:
            infos = socket.getaddrinfo(domain, None)
        except socket.gaierror as e:
            if e.errno == socket.EAI_NONAME:
                return None
            raise BackendUnavailable(str(e)) from None
        return frozenset(info[4][0] for info in infos)


class HttpProber:
    """Plain HTTP(S) GET of "/" with a timeout and bounded redirects;
    only the status and the first 4 KiB of the body are retained."""

    def __init__(self, timeout: float = 10.0, max_redirects: int = 5,
                 body_limit: int = 4096):
        self.timeout = timeout
        self.max_redirects = max_redirects
        self.body_limit = body_limit
        self.last_body: bytes = b""

    def probe(self, domain, ts):
        import requests
        session = requests.Session()
        session.max_redirects = self.max_redirects
        for scheme in ("http", "https"):
            try:
                resp = session.get(f"{scheme}://{domain}/", timeout=self.timeout,
                                   stream=True, verify=False)
                self.last_body = resp.raw.read(self.body_limit, decode_content=True)
                return resp.status_code
            except requests.TooManyRedirects:
                return None
            except requests.RequestException:
                continue
        return None


class PortWhois:
    """Minimal RFC 3912 query against the TLD's whois server."""

    def __init__(self, server: str = "whois.iana.org", timeout: float = 10.0):
        self.server = server
        self.timeout = timeout

    def lookup(self, domain):
        import socket
        try:
            with socket.create_connection((self.server, 43), timeout=self.timeout) as s:
                s.sendall(domain.encode() + b"\r\n")
                chunks = []
                while True:
                    data = s.recv(4096)
                    if not data:
                        break
                    chunks.append(data)
        except OSError as e:
            raise BackendUnavailable(str(e)) from None
        text = b"".join(chunks).decode("utf-8", "replace")
        fields = {}
        for line in text.splitlines():
            if ":" in line:
                k, v = line.split(":", 1)
                fields.setdefault(k.strip().lower(), v.strip())
        return WhoisRecord(
            registrant=fields.get("registrar", fields.get("registrant", "")),
            country=fields.get("registrant country", fields.get("country", "")),
            created=fields.get("creation date", fields.get("created", "")),
        )
