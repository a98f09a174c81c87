"""Resolver, prober and WHOIS backends.

Every network touchpoint sits behind a small interface with a scripted,
fully deterministic implementation so monitoring logic is testable
offline. DNS and HTTP also have real-network implementations, which
import lazily; WHOIS records come only from a script.
"""

from __future__ import annotations

from datetime import datetime
from itertools import chain, repeat
from typing import Protocol

from apktriage.infrawatch.timeline import WhoisRecord

PROBE_TIMEOUT_S = 10.0
PROBE_MAX_REDIRECTS = 5


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
    BackendUnavailable naming the ``backend``. The other values of each
    domain must pass the subclass's ``_valid``, or construction raises
    ``ValueError``."""

    def __init__(self, script: dict[str, list]):
        if type(script) is not dict or not all(
                type(seq) is list and self._valid([v for v in seq if v is not None and v != "gap"])
                for seq in script.values()):
            raise ValueError(f"the {self.backend} script must map each domain to a list "
                             f'of null, "gap" or {self.answer_kind}')
        # each domain's values, one per call, then the final one forever
        self._answers = {domain: chain(seq, repeat(seq[-1]))
                         for domain, seq in script.items() if seq}

    def _next(self, domain):
        answers = self._answers.get(domain)
        if answers is None:
            return None
        value = next(answers)
        if value == "gap":
            raise BackendUnavailable(f"{self.backend} outage for {domain}")
        return value


class ScriptedResolver(_Scripted):
    """Scripted IP sets, one per tick; None entries mean NXDOMAIN."""

    backend, answer_kind = "resolver", "a list of address strings"

    @staticmethod
    def _valid(values: list) -> bool:
        return (set(map(type, values)) <= {list}
                and set(map(type, chain.from_iterable(values))) <= {str})

    def resolve(self, domain, ts):
        value = self._next(domain)
        return None if value is None else frozenset(value)


class ScriptedProber(_Scripted):
    """Scripted HTTP statuses, one per probe; None means no answer."""

    backend, answer_kind = "prober", "an integer status from 100 to 599"

    @staticmethod
    def _valid(values: list) -> bool:
        return (set(map(type, values)) <= {int}  # not bool
                and 100 <= min(values, default=100) and max(values, default=599) <= 599)

    def probe(self, domain, ts):
        return self._next(domain)


class ScriptedWhois:
    """Scripted WHOIS records: each domain maps to an object whose
    "registrant", "country" and "created" are strings, missing ones empty."""

    def __init__(self, records: dict[str, dict]):
        fields = ("registrant", "country", "created")
        if type(records) is not dict or not all(
                type(r) is dict and all(type(r.get(f, "")) is str for f in fields)
                for r in records.values()):
            raise ValueError("the whois script must map each domain to an object "
                             "whose registrant, country and created are strings")
        self.records = {d: WhoisRecord(*(r.get(f, "") for f in fields))
                        for d, r in records.items()}

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
    """Plain HTTP(S) GET of "/" with a timeout and bounded redirects; only
    the status is kept, and the body is never read."""

    def probe(self, domain, ts):
        import requests
        with requests.Session() as session:
            session.max_redirects = PROBE_MAX_REDIRECTS
            for scheme in ("http", "https"):
                try:
                    with session.get(f"{scheme}://{domain}/", timeout=PROBE_TIMEOUT_S,
                                     stream=True, verify=False) as resp:
                        return resp.status_code
                except requests.TooManyRedirects:
                    return None
                except requests.RequestException:
                    continue
        return None
