"""Per-domain probe/resolution history with append-only JSONL persistence.

The store keeps one file per domain, ``<domain>.jsonl``, so a domain
name must be usable as a file name and map back to itself: names that
are empty, ``.`` or ``..``, or that contain ``/`` or NUL are rejected.
Each event is one JSON line; every timestamp is stored as UTC whole
seconds (``YYYY-MM-DDTHH:MM:SSZ``). A line counts as a record only once
its newline is written: ``load`` drops an unterminated final line (a
write torn by a crash), and the first write to a file in a run cuts
such a tail off before writing. A line that does end in a newline must
hold one of the four record shapes (resolution, probe, gap, whois) with
values of the types the store writes; any other raises ValueError naming
the file and the line number. ``load`` walks the file text with one
anchored regular expression that matches a line of any of the four
kinds in the exact shape the store writes, and adds such a line without
decoding it as JSON; every other line, and every error, goes through the
checked path, with the same line numbers and error text.

``schedule`` formats each tick's time once per call, not once per line,
and appends each tick's records to the timeline's lists without the
checks of ``add_resolution`` and ``add_probe``. They could not fail
there: its pending ticks are strictly increasing and all come after
``last_tick()``, and an alive probe comes with its tick's resolution of
addresses. ``load`` keeps the checks, as a file may hold anything.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field
from datetime import datetime, timezone
from functools import lru_cache, partial
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from typing import NamedTuple

from apktriage.util import json_lines


class EmptyTimeline(Exception):
    pass


class Resolution(NamedTuple):
    ts: datetime
    ips: frozenset[str] | None  # None = NXDOMAIN

    @property
    def nxdomain(self) -> bool:
        return self.ips is None


class Probe(NamedTuple):
    ts: datetime
    alive: bool
    detail: str  # status class when alive, reason when dead


@dataclass(frozen=True)
class WhoisRecord:
    registrant: str = ""
    country: str = ""
    created: str = ""


@dataclass
class DomainTimeline:
    domain: str
    resolutions: list[Resolution] = field(default_factory=list)
    probes: list[Probe] = field(default_factory=list)
    whois: WhoisRecord | None = None
    gaps: list[tuple[datetime, str]] = field(default_factory=list)
    # ts of the earliest non-NXDOMAIN resolution (an empty IP set counts)
    _first_resolved: datetime | None = field(default=None, init=False, repr=False,
                                             compare=False)

    def __post_init__(self):
        self._first_resolved = min((r.ts for r in self.resolutions if not r.nxdomain),
                                   default=None)

    def add_resolution(self, r: Resolution) -> None:
        if self.resolutions and r.ts <= self.resolutions[-1].ts:
            raise ValueError("resolution timestamps must be strictly increasing")
        self.resolutions.append(r)
        if self._first_resolved is None and not r.nxdomain:
            self._first_resolved = r.ts

    def add_probe(self, p: Probe) -> None:
        if self.probes and p.ts <= self.probes[-1].ts:
            raise ValueError("probe timestamps must be strictly increasing")
        if p.alive and (self._first_resolved is None or self._first_resolved > p.ts):
            raise ValueError("alive probe requires a prior non-NXDOMAIN resolution")
        self.probes.append(p)

    def last_tick(self) -> datetime | None:
        ts = [r.ts for r in self.resolutions] + [p.ts for p in self.probes] \
            + [g[0] for g in self.gaps]
        return max(ts) if ts else None


def _ts(dt: datetime) -> str:
    """``dt`` as the store writes it: its UTC instant in whole seconds."""
    return dt.astimezone(timezone.utc).replace(microsecond=0, tzinfo=None).isoformat() + "Z"


_TS = re.compile(r"([0-9]{4})-([0-9]{2})-([0-9]{2})T([0-9]{2}):([0-9]{2}):([0-9]{2})Z")


@lru_cache(maxsize=4096)
def _parse_ts(s: str) -> datetime:
    """Inverse of ``_ts``; any other form raises ValueError."""
    m = _TS.fullmatch(s)
    if m is None:
        raise ValueError(f"bad store timestamp {s!r}")
    return datetime(*map(int, m.groups()), tzinfo=timezone.utc)


# A line of any of the four kinds exactly as ``_line`` writes it, newline
# included. A string in it must be one that ``_quote`` writes unchanged:
# printable ASCII but ``"`` and ``\``. Each kind's time is the group named
# after it, the last group that kind matches, so ``lastgroup`` names the kind.
_PLAIN = r'[ !#-\[\]-~]*'
_STORE_LINE = re.compile(
    r'\{"kind":"(?:'
    r'resolution","payload":(?P<ips>null|\[(?:"%(s)s(?:","%(s)s)*")?\]),'
    r'"ts":"(?P<resolution>%(s)s)"'
    r'|probe","payload":\{"alive":(?P<alive>true|false),"detail":"(?P<detail>%(s)s)"\},'
    r'"ts":"(?P<probe>%(s)s)"'
    r'|gap","payload":"(?P<reason>%(s)s)","ts":"(?P<gap>%(s)s)"'
    r'|whois","payload":\{"country":"(?P<country>%(s)s)","created":"(?P<created>%(s)s)",'
    r'"registrant":"(?P<registrant>%(s)s)"\},"ts":"(?P<whois>%(s)s)"'
    r')\}\n' % {"s": _PLAIN})


_RECORD_KEYS = {"kind", "payload", "ts"}
_PROBE_KEYS = {"alive", "detail"}
_WHOIS_KEYS = {"country", "created", "registrant"}
_KINDS = ("resolution", "probe", "gap", "whois")


def _line(record: dict) -> str:
    """The store line of ``record``: ``json.dumps(record, sort_keys=True,
    separators=(",", ":"))`` and a newline, written from the fixed template
    of its kind."""
    kind, p, ts = record["kind"], record["payload"], _quote(record["ts"])
    if kind == "resolution":
        if p is None:
            return '{"kind":"resolution","payload":null,"ts":%s}\n' % ts
        return '{"kind":"resolution","payload":[%s],"ts":%s}\n' % (",".join(map(_quote, p)), ts)
    if kind == "probe":
        return '{"kind":"probe","payload":{"alive":%s,"detail":%s},"ts":%s}\n' % (
            "true" if p["alive"] else "false", _quote(p["detail"]), ts)
    if kind == "gap":
        return '{"kind":"gap","payload":%s,"ts":%s}\n' % (_quote(p), ts)
    if kind == "whois":
        return ('{"kind":"whois","payload":{"country":%s,"created":%s,"registrant":%s},'
                '"ts":%s}\n' % (_quote(p["country"]), _quote(p["created"]),
                                _quote(p["registrant"]), ts))
    raise ValueError(f"unknown record kind {kind!r}")


def _add_checked(t: DomainTimeline, rec) -> None:
    """Add the decoded record ``rec`` to ``t``; any other shape, or a value
    of another type than the store writes, raises ValueError."""
    if type(rec) is not dict or rec.keys() != _RECORD_KEYS:
        raise ValueError("a record is an object of exactly kind, payload and ts")
    kind, p, ts = rec["kind"], rec["payload"], rec["ts"]
    if type(ts) is not str:
        raise ValueError(f"bad store timestamp {ts!r}")
    ts = _parse_ts(ts)
    if kind == "resolution" and (p is None or type(p) is list
                                 and all(type(ip) is str for ip in p)):
        t.add_resolution(Resolution(ts, None if p is None else frozenset(p)))
    elif (kind == "probe" and type(p) is dict and p.keys() == _PROBE_KEYS
          and type(p["alive"]) is bool and type(p["detail"]) is str):
        t.add_probe(Probe(ts, p["alive"], p["detail"]))
    elif kind == "gap" and type(p) is str:
        t.gaps.append((ts, p))
    elif (kind == "whois" and type(p) is dict and p.keys() == _WHOIS_KEYS
          and all(type(v) is str for v in p.values())):
        t.whois = WhoisRecord(p["registrant"], p["country"], p["created"])
    elif kind in _KINDS:
        raise ValueError(f"bad {kind} payload {p!r}")
    else:
        raise ValueError(f"unknown record kind {kind!r}")


def _add_fast(t: DomainTimeline, text: str, pos: int, end: int) -> int:
    """Add to ``t`` each line of ``_STORE_LINE`` from ``pos`` in ``text``
    on, up to ``end``; return where the first other line, or the first
    whose values ``t`` does not take, starts (``end`` after the last)."""
    match = _STORE_LINE.match
    while pos < end and (m := match(text, pos)) is not None:
        kind = m.lastgroup
        try:
            ts = _parse_ts(m[kind])
            if kind == "resolution":
                ips = m["ips"]
                t.add_resolution(Resolution(ts, None if ips == "null" else frozenset(
                    ips[2:-2].split('","') if ips != "[]" else ())))
            elif kind == "probe":
                t.add_probe(Probe(ts, m["alive"] == "true", m["detail"]))
            elif kind == "gap":
                t.gaps.append((ts, m["reason"]))
            else:
                t.whois = WhoisRecord(m["registrant"], m["country"], m["created"])
        except ValueError:  # decided again, and worded, by _add_checked
            break
        pos = m.end()
    return pos


def _checked_lines(t: DomainTimeline, text: str, pos: int, end: int):
    """The lines of ``text`` from ``pos`` to ``end`` for the checked path,
    ``pos`` starting a line that ``_add_fast`` did not take: each such
    line as it is, to be decided again, and each line that ``_add_fast``
    does take, once added to ``t``, as a blank that keeps the numbering."""
    while pos < end:
        nl = text.index("\n", pos)
        yield text[pos:nl]
        pos = _add_fast(t, text, nl + 1, end)
        yield from repeat("", text.count("\n", nl + 1, pos))


class TimelineStore:
    """One append-only JSON-lines file per domain, one record per event.

    ``append`` queues its record's line. The lines queued for a domain
    reach its file in one write when the store moves to another domain or
    is closed, so a process killed mid-run loses only the records of the
    domain in progress; ``close`` ends the run."""

    def __init__(self, root):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._domain: str | None = None
        self._lines: list[str] = []

    def path(self, domain: str) -> Path:
        """The file of ``domain``; a name that cannot be one raises ValueError."""
        if domain in ("", ".", "..") or "/" in domain or "\0" in domain:
            raise ValueError(f"domain {domain!r} cannot name a store file")
        return self.root / f"{domain}.jsonl"

    def _open(self, domain: str):
        """Open for appending, cutting any unterminated final line."""
        f = open(self.path(domain), "a+b")
        try:
            end = pos = f.seek(0, os.SEEK_END)
            while pos:
                step = min(pos, 4096)
                f.seek(pos - step)
                nl = f.read(step).rfind(b"\n")
                if nl >= 0:
                    pos += nl + 1 - step
                    break
                pos -= step
            if pos != end:
                f.truncate(pos)
        except BaseException:
            f.close()
            raise
        return f

    def append(self, domain: str, record: dict) -> None:
        line = _line(record)
        if domain != self._domain:
            self.path(domain)  # a bad name fails here, not at the write
            self.close()
            self._domain = domain
        self._lines.append(line)

    def close(self) -> None:
        domain, lines = self._domain, self._lines
        self._domain, self._lines = None, []
        if lines:
            with self._open(domain) as f:
                f.write("".join(lines).encode("ascii"))

    def set_whois(self, domain: str, ts: datetime, w: WhoisRecord) -> None:
        self.append(domain, {"ts": _ts(ts), "kind": "whois",
                             "payload": {"registrant": w.registrant,
                                         "country": w.country, "created": w.created}})

    def load(self, domain: str) -> DomainTimeline:
        t = DomainTimeline(domain=domain)
        path = self.path(domain)
        if not path.exists():
            return t
        with open(path, encoding="utf-8", newline="") as f:
            text = f.read()
        # an unterminated final line is dropped: it was torn by a crash
        end = text.rfind("\n") + 1
        pos = _add_fast(t, text, 0, end)
        if pos < end:
            json_lines(path, chain(repeat("", text.count("\n", 0, pos)),
                                   _checked_lines(t, text, pos, end)),
                       partial(_add_checked, t))
        return t

    def domains(self) -> list[str]:
        return sorted(p.stem for p in self.root.glob("*.jsonl"))
