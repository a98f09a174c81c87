"""Monitoring, lifespan, binding and registrant tests."""

import json
import re
import socket
import sys
import tempfile
import types
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path
from zoneinfo import ZoneInfo, ZoneInfoNotFoundError

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apktriage.infrawatch.backends import (
    PROBE_MAX_REDIRECTS,
    PROBE_TIMEOUT_S,
    BackendUnavailable,
    DnsResolver,
    HttpProber,
    ScriptedProber,
    ScriptedResolver,
    ScriptedWhois,
)
from apktriage.infrawatch.bindings import (
    KIND_FIXED,
    KIND_FLEXIBLE_I,
    KIND_FLEXIBLE_II,
    binding_summary,
    classify_bindings,
    classify_segments,
)
from apktriage.infrawatch.lifespan import (
    END_DEAD_BEFORE_FIRST,
    END_OBSERVED_DEATH,
    END_STILL_ALIVE,
    lifespan,
)
from apktriage.infrawatch.registrants import registrant_stats
from apktriage.reportcli.emit import _json_string
from apktriage import util
from apktriage.infrawatch import timeline
from apktriage.infrawatch.schedule import Window, schedule, ticks
from apktriage.infrawatch.timeline import (
    DomainTimeline,
    EmptyTimeline,
    Probe,
    Resolution,
    TimelineStore,
    WhoisRecord,
    _parse_ts,
    _ts,
)


def utc(*args):
    return datetime(*args, tzinfo=timezone.utc)


CST = timezone(timedelta(hours=8))
STORE_FMT = "%Y-%m-%dT%H:%M:%SZ"


def record(kind, ts, payload):
    """A store record of ``kind`` at the time ``ts``."""
    return {"ts": _ts(ts), "kind": kind, "payload": payload}


def simple_timeline(domain, specs):
    """specs: list of (day, ips or None, status or None)."""
    t = DomainTimeline(domain=domain)
    for day, ips, status in specs:
        ts = utc(2021, 1, 1) + timedelta(days=day)
        t.add_resolution(Resolution(ts, None if ips is None else frozenset(ips)))
        if status is not None:
            t.add_probe(Probe(ts, status < 500 and ips is not None,
                              detail=str(status)))
    return t


class TestTimeline:
    def test_strictly_increasing(self):
        t = DomainTimeline(domain="x.com")
        t.add_resolution(Resolution(utc(2021, 1, 1), frozenset({"1.1.1.1"})))
        with pytest.raises(ValueError):
            t.add_resolution(Resolution(utc(2021, 1, 1), frozenset({"1.1.1.1"})))

    def test_alive_requires_resolution(self):
        t = DomainTimeline(domain="x.com")
        with pytest.raises(ValueError):
            t.add_probe(Probe(utc(2021, 1, 1), True, "2xx"))

    def test_store_round_trip(self, tmp_path):
        store = TimelineStore(tmp_path)
        t = DomainTimeline(domain="x.com")
        r = Resolution(utc(2021, 1, 1), frozenset({"1.1.1.1", "2.2.2.2"}))
        t.add_resolution(r)
        store.append("x.com", record("resolution", r.ts, sorted(r.ips)))
        p = Probe(utc(2021, 1, 1, 0, 1), True, "2xx")
        t.add_probe(p)
        store.append("x.com", record("probe", p.ts, {"alive": True, "detail": "2xx"}))
        store.set_whois("x.com", utc(2021, 1, 1), WhoisRecord("reg", "China", "2020-01-01"))
        store.close()
        loaded = store.load("x.com")
        assert loaded.resolutions == t.resolutions
        assert loaded.probes == t.probes
        assert loaded.whois.registrant == "reg"
        assert store.domains() == ["x.com"]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.booleans(), st.integers(0, 6),
                              st.sampled_from([None, (), ("1.1.1.1",)]), st.booleans()),
                    max_size=20))
    def test_add_probe_matches_scan_rule(self, ops):
        # oracle: the rule as a scan of every earlier resolution
        t, resolutions, probes = DomainTimeline(domain="x.com"), [], []
        for is_resolution, day, ips, alive in ops:
            ts = utc(2021, 1, 1) + timedelta(days=day)
            if is_resolution:
                item = Resolution(ts, None if ips is None else frozenset(ips))
                ok = not resolutions or ts > resolutions[-1].ts
                add, model = t.add_resolution, resolutions
            else:
                item = Probe(ts, alive, "x")
                ok = (not probes or ts > probes[-1].ts) and (not alive or bool(
                    [r for r in resolutions if r.ts <= ts and not r.nxdomain]))
                add, model = t.add_probe, probes
            if ok:
                add(item)
                model.append(item)
            else:
                with pytest.raises(ValueError):
                    add(item)
        assert t.resolutions == resolutions and t.probes == probes


class TestStoreTimestamps:
    @settings(max_examples=300, deadline=None)
    @given(st.datetimes(min_value=datetime(1000, 1, 2), max_value=datetime(9999, 12, 30),
                        timezones=st.sampled_from(
                            [timezone.utc, CST, timezone(timedelta(hours=-5, minutes=-30))])))
    def test_round_trip_matches_strptime(self, dt):
        s = _ts(dt)
        want = datetime.strptime(s, STORE_FMT).replace(tzinfo=timezone.utc)
        got = _parse_ts(s)
        assert got == want == dt.replace(microsecond=0)
        assert got.tzinfo is timezone.utc and _ts(got) == s

    @settings(max_examples=500, deadline=None)
    @given(st.datetimes(min_value=datetime(1000, 1, 1), max_value=datetime(9999, 12, 31)),
           st.integers(0, 19), st.sampled_from(list("09-:TZ+ .\n\u0663\uff12")),
           st.sampled_from(["replace", "insert", "delete"]))
    def test_accepts_exactly_canonical_strings(self, dt, i, ch, edit):
        s = _ts(dt.replace(tzinfo=timezone.utc))
        s = {"replace": s[:i] + ch + s[i + 1:], "insert": s[:i] + ch + s[i:],
             "delete": s[:i] + s[i + 1:]}[edit]
        try:  # strptime is looser (\d, one-digit fields); only _ts's form counts
            want = datetime.strptime(s, STORE_FMT).replace(tzinfo=timezone.utc)
            canonical = _ts(want) == s
        except ValueError:
            canonical = False
        if canonical:
            assert _parse_ts(s) == want
        else:
            with pytest.raises(ValueError):
                _parse_ts(s)

    @pytest.mark.parametrize("s", [
        "", "2021-01-01T00:00:00", "2021-01-01 00:00:00Z", "2021-1-01T00:00:00Z",
        "2021-01-01T00:00:00+00:00", "2021-01-01T00:00:00.5Z", "2021-01-01T00:00:00Z\n",
        " 2021-01-01T00:00:00Z", "2021-02-30T00:00:00Z", "2021-01-01T24:00:00Z",
        "\uff12021-01-01T00:00:00Z", "2021-01-01t00:00:00z"])
    def test_malformed_raises(self, s):
        with pytest.raises(ValueError):
            _parse_ts(s)

    @pytest.mark.parametrize("folds", [(0, 1), (1, 0)])
    def test_fold_kept_through_the_memo(self, folds):
        # 01:30 happens twice in New York on 2021-11-07; the two times compare
        # and hash equal, so a memo keyed on the caller's datetime mixes them up
        try:
            ny = ZoneInfo("America/New_York")
        except ZoneInfoNotFoundError:
            pytest.skip("no tz database")
        want = {0: "2021-11-07T05:30:00Z", 1: "2021-11-07T06:30:00Z"}
        for _ in range(2):
            for fold in folds:
                assert _ts(datetime(2021, 11, 7, 1, 30, tzinfo=ny, fold=fold)) == want[fold]

    def test_malformed_raises_every_time(self):
        for _ in range(3):
            with pytest.raises(ValueError):
                _parse_ts("2021-02-30T00:00:00Z")

    def test_more_ticks_than_the_memo_holds(self):
        start = datetime(2021, 1, 1, 8, tzinfo=CST)
        ticks_ = [start + timedelta(hours=h, microseconds=h % 3) for h in range(10_000)]
        for dt in ticks_ + ticks_[::-1]:
            s = _ts(dt)
            assert s == dt.astimezone(timezone.utc).strftime(STORE_FMT)
            assert _parse_ts(s) == dt.replace(microsecond=0)


GAP_LINE = '{"kind":"gap","payload":"%s","ts":"2021-01-0%dT00:00:00Z"}\n'
RESOLUTION_LINE = '{"kind":"resolution","payload":["1.1.1.1"],"ts":"2021-01-01T00:00:00Z"}\n'


class TestStoreFiles:
    @pytest.mark.parametrize("name", ["", ".", "..", "a/b.com", "../x.com", "a\0b.com"])
    def test_unmappable_names_rejected(self, tmp_path, name):
        store = TimelineStore(tmp_path)
        with pytest.raises(ValueError):
            store.load(name)
        with pytest.raises(ValueError):
            store.append(name, record("gap", utc(2021, 1, 1), "r"))
        assert list(tmp_path.iterdir()) == []

    def test_names_round_trip(self, tmp_path):
        store = TimelineStore(tmp_path)
        names = ["a_b.com", "a.com.jsonl", ".hidden", "x y", "\u4f8b\u3048.jp"]
        for name in names:
            store.append(name, record("gap", utc(2021, 1, 1), name))
        store.close()
        assert store.domains() == sorted(names)
        assert [store.load(n).gaps[0][1] for n in names] == names

    def test_one_write_per_domain(self, tmp_path, monkeypatch):
        writes = []

        def recording_open(*args, **kwargs):
            f = open(*args, **kwargs)
            write = f.write

            def recorded(data):
                writes.append((Path(f.name).name, data))
                return write(data)

            f.write = recorded
            return f

        monkeypatch.setattr(timeline, "open", recording_open, raising=False)
        a, b = tmp_path / "a.com.jsonl", tmp_path / "b.com.jsonl"
        a.write_text(GAP_LINE % ("old", 1))  # from an earlier run
        store = TimelineStore(tmp_path)
        store.append("a.com", record("gap", utc(2021, 1, 2), "r"))
        store.append("a.com", record("gap", utc(2021, 1, 3), "s"))
        # queued: the file holds none of them before the store moves on
        assert a.read_text() == GAP_LINE % ("old", 1)
        store.append("b.com", record("gap", utc(2021, 1, 2), "t"))
        assert a.read_text() == GAP_LINE % ("old", 1) + GAP_LINE % ("r", 2) + GAP_LINE % ("s", 3)
        assert not b.exists()
        store.close()
        assert b.read_text() == GAP_LINE % ("t", 2)
        store.close()  # nothing queued, nothing written
        assert writes == [("a.com.jsonl", (GAP_LINE % ("r", 2) + GAP_LINE % ("s", 3)).encode()),
                          ("b.com.jsonl", (GAP_LINE % ("t", 2)).encode())]

    @pytest.mark.parametrize("tail", [
        '{"kind":"probe","payl',
        GAP_LINE[:-1] % ("torn", 3),
        "x" * 10000,
    ], ids=["partial", "unterminated-record", "long"])
    @pytest.mark.parametrize("head", [GAP_LINE % ("r", 1), ""], ids=["after-record", "alone"])
    def test_torn_tail_dropped_then_cut(self, tmp_path, head, tail):
        store = TimelineStore(tmp_path)
        path = tmp_path / "x.com.jsonl"
        path.write_text(head + tail)
        assert store.load("x.com").gaps == ([(utc(2021, 1, 1), "r")] if head else [])
        store.append("x.com", record("gap", utc(2021, 1, 2), "s"))
        store.close()
        assert path.read_text() == head + GAP_LINE % ("s", 2)

    @pytest.mark.parametrize("text", [
        '{"kind":"probe","payl\n' + GAP_LINE % ("r", 1),
        GAP_LINE % ("r", 1) + '{"kind":"probe","payl\n',
        GAP_LINE.replace("Z", "") % ("r", 1),
    ])
    def test_terminated_bad_line_raises(self, tmp_path, text):
        (tmp_path / "x.com.jsonl").write_text(text)
        with pytest.raises(ValueError):
            TimelineStore(tmp_path).load("x.com")

    @pytest.mark.parametrize("head,line", [
        ("", '{"kind":"probe","payload":null,"ts":"2021-01-01T00:00:00Z"}'),
        ("", '["x"]'),
        (RESOLUTION_LINE,
         '{"kind":"probe","payload":{"alive":"yes","detail":7},"ts":"2021-01-01T00:00:00Z"}'),
        (RESOLUTION_LINE, '{"kind":"note","payload":"x","ts":"2021-01-01T00:00:00Z"}'),
        ("", '{"kind":"gap","payload":"r","ts":"2021-01-01T00:00:00Z","x":1}'),
        ("", '{"kind":"gap","payload":"r","ts":20210101}'),
        ("", '{"kind":["gap"],"payload":"r","ts":"2021-01-01T00:00:00Z"}'),
        ("", '{"kind":"resolution","payload":["1.1.1.1",7],"ts":"2021-01-01T00:00:00Z"}'),
        ("", '{"kind":"whois","payload":{"registrant":"r"},"ts":"2021-01-01T00:00:00Z"}'),
        (RESOLUTION_LINE, RESOLUTION_LINE[:-1]),
        ("", "[" * 100_000 + "]" * 100_000),
    ], ids=["null-payload", "not-an-object", "wrong-value-types", "unknown-kind",
            "extra-key", "number-ts", "list-kind", "number-ip", "partial-whois",
            "repeated-tick", "deep-nesting"])
    def test_wrong_shaped_line_raises_with_its_place(self, tmp_path, head, line):
        path = tmp_path / "x.com.jsonl"
        path.write_text(head + line + "\n")
        store = TimelineStore(tmp_path)
        lineno = 2 if head else 1
        with pytest.raises(ValueError, match=rf"x\.com\.jsonl, line {lineno}: "):
            store.load("x.com")


# strings that JSON must escape, or that the ASCII encoder writes as escapes
STORE_TEXT = st.text(st.one_of(
    st.sampled_from(['"', "\\", "\u2028", "\x7f"]),
    st.integers(0, 0x1F).map(chr),
    st.integers(0xD800, 0xDFFF).map(chr),  # lone surrogates
    st.integers(0x10000, 0x10FFFF).map(chr),
    st.characters()), max_size=8)
STORE_EVENTS = st.lists(st.one_of(
    st.tuples(st.just("resolution"),
              st.none() | st.lists(STORE_TEXT, max_size=3, unique=True)),
    st.tuples(st.just("probe"), st.tuples(st.booleans(), STORE_TEXT)),
    st.tuples(st.just("gap"), STORE_TEXT),
    st.tuples(st.just("whois"), st.tuples(STORE_TEXT, STORE_TEXT, STORE_TEXT)),
), max_size=12)


def _json_round_trip(s: str) -> str:
    # a high surrogate followed by a low one is written as two escapes,
    # which any JSON reader takes back as one non-BMP character
    return json.loads(json.dumps(s))


class TestStoreLines:
    @settings(max_examples=300, deadline=None)
    @given(STORE_EVENTS)
    def test_lines_equal_json_dumps_and_load_back(self, events):
        want, lines, rt = DomainTimeline(domain="x.com"), [], _json_round_trip
        with tempfile.TemporaryDirectory() as root:
            store = TimelineStore(root)
            for day, (kind, value) in enumerate(events):
                ts = utc(2021, 1, 1) + timedelta(days=day)
                if kind == "resolution":
                    payload = None if value is None else sorted(value)
                    want.add_resolution(
                        Resolution(ts, None if value is None else frozenset(map(rt, value))))
                elif kind == "probe":
                    # an alive probe needs an earlier resolution with addresses
                    alive, detail = value[0] and want._first_resolved is not None, value[1]
                    payload = {"alive": alive, "detail": detail}
                    want.add_probe(Probe(ts, alive, rt(detail)))
                elif kind == "gap":
                    payload = value
                    want.gaps.append((ts, rt(value)))
                else:
                    payload = dict(zip(("registrant", "country", "created"), value))
                    want.whois = WhoisRecord(*map(rt, value))
                if kind == "whois":
                    store.set_whois("x.com", ts, WhoisRecord(*value))
                else:
                    store.append("x.com", record(kind, ts, payload))
                rec = {"ts": ts.strftime(STORE_FMT), "kind": kind, "payload": payload}
                lines.append(json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n")
            store.close()
            path = Path(root) / "x.com.jsonl"
            assert (path.read_text(encoding="ascii") if events else "") == "".join(lines)
            assert store.load("x.com") == want


def _store_oracle(text):
    """(the timeline of ``text``, None), or (None, the number of its first
    bad line), by the store rules of the README: each newline-terminated,
    stripped, non-blank line is decoded by ``json.loads`` and must be an
    object of exactly kind, payload and ts, with a ``YYYY-MM-DDTHH:MM:SSZ``
    date and a payload of its kind's types; resolution and probe times
    strictly increase, and an alive probe needs a non-NXDOMAIN resolution
    at or before it."""
    res, probes, gaps, whois = [], [], [], None
    for n, line in enumerate(text.split("\n")[:-1], 1):
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
            ts = rec.get("ts") if type(rec) is dict else None
            if (type(rec) is not dict or set(rec) != {"kind", "payload", "ts"}
                    or type(ts) is not str
                    or not re.fullmatch(r"[0-9]{4}(-[0-9]{2}){2}T[0-9]{2}(:[0-9]{2}){2}Z", ts)):
                return None, n
            ts = datetime.strptime(ts, STORE_FMT).replace(tzinfo=timezone.utc)
        except ValueError:
            return None, n
        kind, p = rec["kind"], rec["payload"]
        if kind == "resolution" and (p is None or type(p) is list
                                     and all(type(ip) is str for ip in p)):
            if res and ts <= res[-1].ts:
                return None, n
            res.append(Resolution(ts, None if p is None else frozenset(p)))
        elif (kind == "probe" and type(p) is dict and set(p) == {"alive", "detail"}
              and type(p["alive"]) is bool and type(p["detail"]) is str):
            if probes and ts <= probes[-1].ts or p["alive"] and not any(
                    r.ips is not None and r.ts <= ts for r in res):
                return None, n
            probes.append(Probe(ts, p["alive"], p["detail"]))
        elif kind == "gap" and type(p) is str:
            gaps.append((ts, p))
        elif (kind == "whois" and type(p) is dict
              and set(p) == {"registrant", "country", "created"}
              and all(type(v) is str for v in p.values())):
            whois = WhoisRecord(p["registrant"], p["country"], p["created"])
        else:
            return None, n
    return DomainTimeline("x.com", res, probes, whois, gaps), None


# mostly characters a store line holds as they are, then ones it escapes
# or that only the checked path takes
ORACLE_TEXT = st.text(st.sampled_from(
    list("a1.-: ") * 3 + ['"', "\\", "\x00", "\x1f", "\x7f", "é", "\U0001f600"]), max_size=4)
ORACLE_PAYLOADS = {
    "resolution": st.none() | st.lists(ORACLE_TEXT, max_size=3),
    "probe": st.fixed_dictionaries({"alive": st.booleans(), "detail": ORACLE_TEXT}),
    "gap": ORACLE_TEXT,
    "whois": st.fixed_dictionaries({k: ORACLE_TEXT for k in ("registrant", "country",
                                                             "created")}),
}
ORACLE_RECORD = st.sampled_from(sorted(ORACLE_PAYLOADS)).flatmap(
    lambda kind: st.tuples(st.just(kind), ORACLE_PAYLOADS[kind]))
# how a line is written: as the store writes it, with non-ASCII characters
# raw, with spaces after the separators, or with keys in another order
ORACLE_FORMS = {
    "store": lambda r: json.dumps(r, sort_keys=True, separators=(",", ":")),
    "raw": lambda r: json.dumps(r, sort_keys=True, separators=(",", ":"), ensure_ascii=False),
    "spaced": lambda r: json.dumps(r, sort_keys=True),
    "reordered": lambda r: json.dumps({k: r[k] for k in ("payload", "ts", "kind")},
                                      separators=(",", ":")),
}
ORACLE_LINE = st.tuples(
    st.sampled_from([-1, 0, 1, 1, 2]),  # the step from the last line's day
    st.integers(0, 15).map(lambda i: i == 0),  # a well-shaped date that is not one
    ORACLE_RECORD,
    st.sampled_from(["store"] * 5 + sorted(ORACLE_FORMS)),
    st.sampled_from(["\n"] * 6 + ["\r\n", "\n\n", "\n \n"]))


@st.composite
def oracle_files(draw):
    """The text of a store file, with an optional BOM and torn tail."""
    day, text = 0, "\ufeff" if draw(st.integers(0, 9)) == 0 else ""
    for step, bad_date, (kind, payload), form, end in draw(st.lists(ORACLE_LINE, max_size=10)):
        day = max(day + step, 0)
        ts = "2021-02-30T00:00:00Z" if bad_date else \
            (datetime(2021, 1, 1) + timedelta(days=day)).strftime(STORE_FMT)
        text += ORACLE_FORMS[form]({"kind": kind, "payload": payload, "ts": ts}) + end
    return text + draw(st.sampled_from(["", "", '{"kind":"gap","pay']))


def _load_or_error(root, text):
    (root / "x.com.jsonl").write_bytes(text.encode("utf-8"))
    try:
        return TimelineStore(root).load("x.com")
    except ValueError as e:
        return str(e)


class TestStoreFastPath:
    @settings(max_examples=400, deadline=None)
    @given(oracle_files())
    def test_load_matches_the_oracle_and_the_checked_path(self, text):
        """``load`` reads lines of the store's own shape without ``json``;
        it must give the oracle's timeline, or an error on the oracle's
        line. A trailing space on every line keeps each one off that path,
        so the same text read through ``json_lines`` and the record checks
        alone must give the same timeline or error text."""
        checked = "".join(line + " \n" for line in text.split("\n")[:-1]) + \
            text.split("\n")[-1]
        want, bad_line = _store_oracle(text)
        with tempfile.TemporaryDirectory() as root:
            root = Path(root)
            got = _load_or_error(root, text)
            assert got == _load_or_error(root, checked)
        if bad_line is None:
            assert got == want
        else:
            assert got.startswith(f"{root / 'x.com.jsonl'}, line {bad_line}: "), got

    def test_fast_lines_are_the_store_lines(self):
        # what _line writes for each record of plain strings, of any kind,
        # is a fast line; a line the store would not write is not
        def fast(line):
            t, text = DomainTimeline("x.com"), line + "\n"
            return t if timeline._add_fast(t, text, 0, len(text)) == len(text) else None

        ts, day = "2021-01-01T00:00:00Z", utc(2021, 1, 1)
        for ips in (None, [], [""], ["1.1.1.1"], ["1.1.1.1", "::1", "a b"]):
            line = timeline._line({"kind": "resolution", "payload": ips, "ts": ts})
            assert fast(line[:-1]) == DomainTimeline("x.com", resolutions=[Resolution(
                day, None if ips is None else frozenset(ips))])
        for alive, detail in ((True, "2xx"), (False, ""), (False, "a'b:c")):
            # an alive probe needs a resolution with addresses before it
            head = '{"kind":"resolution","payload":[],"ts":"2021-01-01T00:00:00Z"}\n'
            line = timeline._line({"kind": "probe", "ts": ts,
                                   "payload": {"alive": alive, "detail": detail}})
            assert fast(head + line[:-1]) == DomainTimeline(
                "x.com", resolutions=[Resolution(day, frozenset())],
                probes=[Probe(day, alive, detail)])
        for reason in ("", "resolver outage for a.com", "a'b:c {x}"):
            line = timeline._line({"kind": "gap", "payload": reason, "ts": ts})
            assert fast(line[:-1]) == DomainTimeline("x.com", gaps=[(day, reason)])
        for fields in (("", "", ""), ("r 1", "CN", "2020-01-01")):
            line = timeline._line({"kind": "whois", "ts": ts, "payload": dict(
                zip(("registrant", "country", "created"), fields))})
            assert fast(line[:-1]) == DomainTimeline("x.com", whois=WhoisRecord(*fields))
        for line in ['{"kind":"resolution","payload":["a\\"b"],"ts":"2021-01-01T00:00:00Z"}',
                     '{"kind":"resolution","payload":["é"],"ts":"2021-01-01T00:00:00Z"}',
                     '{"kind":"probe","payload":{"alive":true,"detail":"\\u0032xx"},'
                     '"ts":"2021-01-01T00:00:00Z"}',
                     '{"kind":"probe","payload":{"alive":false,"detail":"2xx"},'
                     '"ts":"2021-01-01T00:00:00Z"} ',
                     '{"kind":"probe","payload":{"alive":false,"detail":"2xx"} ,'
                     '"ts":"2021-01-01T00:00:00Z"}',
                     '{"kind":"probe","payload":{"alive":true,"detail":"2xx"},'
                     '"ts":"2021-01-01T00:00:00Z"}',  # alive with no resolution
                     '{"kind":"resolution","payload":null,"ts":"2021-01-01 00:00:00Z"}',
                     '{"kind":"resolution","payload":null,"ts":"2021-02-30T00:00:00Z"}',
                     '{"kind":"resolution","payload":null,"tz":"2021-01-01T00:00:00Z"}',
                     '{"kind":"resolution","payload":null,"ts":"2021-01-01T00:00:00Z"}\r',
                     '{"kind":"gap","payload":"a\\\\b","ts":"2021-01-01T00:00:00Z"}',
                     '{"kind":"gap","payload":7,"ts":"2021-01-01T00:00:00Z"}',
                     '{"kind":"gap","payload":"r","ts":"2021-01-01T00:00:00Z","x":1}',
                     '{"kind":"whois","payload":{"country":"","created":""},'
                     '"ts":"2021-01-01T00:00:00Z"}',
                     '{"kind":"whois","payload":{"registrant":"","country":"","created":""},'
                     '"ts":"2021-01-01T00:00:00Z"}',
                     '{"kind":"whois","payload":{"country":"\\u00e9","created":"",'
                     '"registrant":""},"ts":"2021-01-01T00:00:00Z"}',
                     '\ufeff{"kind":"gap","payload":"r","ts":"2021-01-01T00:00:00Z"}',
                     '{"kind":"probe","payload":{"alive":true}}',
                     ""]:
            assert fast(line) is None, line

    def test_store_lines_load_without_json(self, tmp_path, monkeypatch):
        # a store that schedule wrote, with whois, gaps from both backends,
        # NXDOMAIN answers and empty address sets, loads with no line decoded
        plan = {"a.com": (["gap", ["1.1.1.1", "2.2.2.2"], None, [], ["1.1.1.1"]],
                          [200, "gap", None, 503]),
                "b.com": ([None, "gap", []], [200])}
        window = Window(utc(2021, 1, 1), utc(2021, 1, 8))
        out = schedule(sorted(plan), window, timedelta(days=1),
                       ScriptedResolver({d: r for d, (r, _) in plan.items()}),
                       ScriptedProber({d: p for d, (_, p) in plan.items()}),
                       ScriptedWhois({"a.com": {"registrant": "r", "country": "CN"},
                                      "b.com": {"created": "2020-01-01"}}),
                       TimelineStore(tmp_path))
        kinds = {json.loads(line)["kind"] for p in tmp_path.iterdir()
                 for line in p.read_text().splitlines()}
        assert kinds == {"resolution", "probe", "gap", "whois"}
        assert all(t.gaps and t.whois and any(r.ips is None for r in t.resolutions)
                   and any(r.ips == frozenset() for r in t.resolutions) for t in out.values())
        assert {reason.split()[0] for t in out.values() for _ts, reason in t.gaps} == \
            {"resolver", "prober"}

        decoded = []
        scan = util._scan

        def counting_scan(line, start):
            decoded.append(line)
            return scan(line, start)

        monkeypatch.setattr(util, "_scan", counting_scan)
        store = TimelineStore(tmp_path)
        assert {d: store.load(d) for d in store.domains()} == out
        assert decoded == []
        # the count is live: a line off the store's shapes is decoded
        with open(tmp_path / "a.com.jsonl", "a") as f:
            f.write('{"kind": "gap", "payload": "r", "ts": "2021-01-09T00:00:00Z"}\n')
        assert store.load("a.com").gaps[-1] == (utc(2021, 1, 9), "r")
        assert len(decoded) == 1


class TestSchedule:
    def test_cadence_minimum(self):
        w = Window(utc(2021, 1, 1), utc(2021, 1, 5))
        with pytest.raises(ValueError):
            list(ticks(w, timedelta(hours=6)))
        assert len(list(ticks(w, timedelta(days=1)))) == 5

    def test_window_validation(self):
        with pytest.raises(ValueError):
            Window(utc(2021, 1, 2), utc(2021, 1, 1))

    def test_scripted_run(self, tmp_path):
        resolver = ScriptedResolver({"a.com": [["1.1.1.1"]]})
        prober = ScriptedProber({"a.com": [200, 200, 503]})
        w = Window(utc(2021, 1, 1), utc(2021, 1, 3))
        out = schedule(["a.com"], w, timedelta(days=1), resolver, prober, None,
                       TimelineStore(tmp_path))
        t = out["a.com"]
        assert [p.alive for p in t.probes] == [True, True, False]

    def test_scripted_status_is_an_http_status(self, tmp_path):
        # 100-599 pass; anything else would be stored as an alive "-1xx"
        prober = ScriptedProber({"a.com": [100, 599, None, "gap"]})
        assert [prober.probe("a.com", None), prober.probe("a.com", None)] == [100, 599]
        for status in (-1, 0, 99, 600, 10 ** 20):
            with pytest.raises(ValueError, match="integer status from 100 to 599"):
                ScriptedProber({"a.com": [200, status]})

    def test_scripted_values_keep_their_meaning(self):
        script = [["1.1.1.1"], ["1.1.1.1"], "gap", ["2.2.2.2", "1.1.1.1"], None]
        resolver = ScriptedResolver({"a.com": script})
        got = []
        for _ in range(len(script) + 1):  # the last value repeats
            try:
                got.append(resolver.resolve("a.com", None))
            except BackendUnavailable:
                got.append("gap")
        assert got == [frozenset({"1.1.1.1"})] * 2 + [
            "gap", frozenset({"1.1.1.1", "2.2.2.2"}), None, None]
    def test_nxdomain_is_dead_without_probe(self, tmp_path):
        resolver = ScriptedResolver({"a.com": [None]})
        prober = ScriptedProber({"a.com": [200]})
        w = Window(utc(2021, 1, 1), utc(2021, 1, 1, 1))
        t = schedule(["a.com"], w, timedelta(days=1), resolver, prober, None,
                     TimelineStore(tmp_path))["a.com"]
        assert t.probes[0].alive is False
        assert t.probes[0].detail == "nxdomain"

    def test_gap_recorded_on_outage(self, tmp_path):
        cases = [
            ("resolver", ["gap", ["1.1.1.1"]], [200], [2]),
            # the outage tick keeps its resolution, but gets a gap and no probe
            ("prober", [["1.1.1.1"]], ["gap", 200], [1, 2]),
        ]
        for backend, resolutions, probes, resolved_days in cases:
            store = TimelineStore(tmp_path / backend)
            w = Window(utc(2021, 1, 1), utc(2021, 1, 2))
            t = schedule(["a.com"], w, timedelta(days=1),
                         ScriptedResolver({"a.com": resolutions}),
                         ScriptedProber({"a.com": probes}), None, store)["a.com"]
            for got in (t, store.load("a.com")):
                assert got.gaps == [(utc(2021, 1, 1), f"{backend} outage for a.com")]
                assert [r.ts for r in got.resolutions] == \
                    [utc(2021, 1, d) for d in resolved_days]
                assert [(p.ts, p.alive) for p in got.probes] == [(utc(2021, 1, 2), True)]

    def test_resume_skips_covered_ticks(self, tmp_path):
        store = TimelineStore(tmp_path)
        resolver = ScriptedResolver({"a.com": [["1.1.1.1"]]})
        prober = ScriptedProber({"a.com": [200]})
        w1 = Window(utc(2021, 1, 1), utc(2021, 1, 3))
        schedule(["a.com"], w1, timedelta(days=1), resolver, prober, None, store)
        w2 = Window(utc(2021, 1, 1), utc(2021, 1, 5))
        t = schedule(["a.com"], w2, timedelta(days=1),
                     ScriptedResolver({"a.com": [["1.1.1.1"]]}),
                     ScriptedProber({"a.com": [200]}), None, store)["a.com"]
        assert len(t.probes) == 5  # 3 persisted + 2 new, no duplicates

    def test_whois_fetched_once(self, tmp_path):
        store = TimelineStore(tmp_path)
        whois = ScriptedWhois({"a.com": {"registrant": "r1", "country": "China"}})
        args = (["a.com"], Window(utc(2021, 1, 1), utc(2021, 1, 1, 1)),
                timedelta(days=1))
        t = schedule(*args, ScriptedResolver({"a.com": [["1.1.1.1"]]}),
                     ScriptedProber({"a.com": [200]}), whois, store)["a.com"]
        assert t.whois.registrant == "r1"

    def test_whois_stamped_with_a_window_tick(self, tmp_path):
        store = TimelineStore(tmp_path)
        window = Window(utc(2021, 1, 1), utc(2021, 1, 3))
        args = (window, timedelta(days=1), ScriptedResolver({"a.com": [["1.1.1.1"]]}),
                ScriptedProber({"a.com": [200]}))
        whois = ScriptedWhois({"a.com": {"registrant": "r1", "country": "China"}})
        schedule(["a.com"], *args, None, store)
        # a.com's ticks are all covered: its whois takes the window's last tick
        schedule(["a.com"], *args, whois, store)
        lines = (tmp_path / "a.com.jsonl").read_text().splitlines()
        assert '"kind":"whois"' in lines[-1]
        assert '"ts":"2021-01-03T00:00:00Z"' in lines[-1]
        # c.com has every tick pending: its whois takes the first
        schedule(["c.com"], *args, ScriptedWhois({"c.com": {"registrant": "r2"}}),
                 store)
        lines = (tmp_path / "c.com.jsonl").read_text().splitlines()
        assert '"kind":"whois"' in lines[0]
        assert '"ts":"2021-01-01T00:00:00Z"' in lines[0]

    def test_names_checked_before_any_tick(self, tmp_path):
        store = TimelineStore(tmp_path)
        with pytest.raises(ValueError, match="x/y.com"):
            schedule(["a.com", "x/y.com"], Window(utc(2021, 1, 1), utc(2021, 1, 3)),
                     timedelta(days=1), ScriptedResolver({}), ScriptedProber({}),
                     None, store)
        assert list(tmp_path.iterdir()) == []

    def test_interrupted_tick_is_not_stored(self, tmp_path):
        class Interrupting(ScriptedProber):
            def probe(self, domain, ts):
                if ts == utc(2021, 1, 3):
                    raise KeyboardInterrupt
                return super().probe(domain, ts)

        store, window = TimelineStore(tmp_path), Window(utc(2021, 1, 1), utc(2021, 1, 5))
        with pytest.raises(KeyboardInterrupt):
            schedule(["a.com"], window, timedelta(days=1),
                     ScriptedResolver({"a.com": ["gap", ["1.1.1.1"]]}),
                     Interrupting({"a.com": ["gap", 200]}), None, store)
        # whole ticks only: a resolver outage, then a resolution and a prober outage
        t = store.load("a.com")
        assert [g[0] for g in t.gaps] == [utc(2021, 1, 1), utc(2021, 1, 2)]
        assert [r.ts for r in t.resolutions] == [utc(2021, 1, 2)]
        assert t.probes == []
        t = schedule(["a.com"], window, timedelta(days=1),
                     ScriptedResolver({"a.com": [["1.1.1.1"]]}),
                     ScriptedProber({"a.com": [200]}), None, store)["a.com"]
        assert [r.ts for r in t.resolutions] == [utc(2021, 1, d) for d in range(2, 6)]
        assert [p.ts for p in t.probes] == [utc(2021, 1, d) for d in range(3, 6)]
        assert t == store.load("a.com")

    def test_every_line_goes_through_append(self, tmp_path, monkeypatch):
        # the traced benchmark times TimelineStore.append and counts its gaps
        calls, append = [], TimelineStore.append

        def counting(self, domain, record):
            calls.append((domain, record["kind"]))
            return append(self, domain, record)

        monkeypatch.setattr(TimelineStore, "append", counting)
        plan = {"a.com": (["gap", ["1.1.1.1"], ["1.1.1.1"], None], [200, "gap"]),
                "b.com": ([["2.2.2.2"], [], "gap", ["2.2.2.2"]], [503, None])}
        out = schedule(sorted(plan), Window(utc(2021, 1, 1), utc(2021, 1, 4)),
                       timedelta(days=1),
                       ScriptedResolver({d: r for d, (r, _) in plan.items()}),
                       ScriptedProber({d: p for d, (_, p) in plan.items()}),
                       ScriptedWhois({"a.com": {"registrant": "r"}}), TimelineStore(tmp_path))
        written = [(p.name[:-len(".jsonl")], json.loads(line)["kind"])
                   for p in sorted(tmp_path.iterdir()) for line in p.read_text().splitlines()]
        assert calls == written
        gaps = sum(kind == "gap" for _, kind in calls)
        assert gaps == sum(len(t.gaps) for t in out.values()) == 3


ANSWERS = st.one_of(st.just("gap"), st.none(), st.just([]),
                    st.lists(st.sampled_from(["1.1.1.1", "2.2.2.2", "3.3.3.3"]),
                             min_size=1, max_size=2, unique=True))
STATUSES = st.one_of(st.just("gap"), st.none(), st.sampled_from([200, 302, 404, 503]))
WATCH_DOMAINS = ["a.com", "b.net", "c.org"]


@settings(max_examples=300, deadline=None)
@given(st.data())
@pytest.mark.parametrize("backend,answers", [(ScriptedResolver, ANSWERS),
                                             (ScriptedProber, STATUSES)])
def test_scripted_answers_follow_the_index_rule(backend, answers, data):
    # oracle: the i-th call for a domain answers seq[min(i, len(seq) - 1)]
    script = data.draw(st.dictionaries(st.sampled_from(WATCH_DOMAINS),
                                       st.lists(answers, max_size=4), max_size=3))
    calls = data.draw(st.lists(st.sampled_from(WATCH_DOMAINS + ["unscripted.com"]),
                               max_size=20))
    scripted, made = backend(script), {}
    ask = scripted.resolve if backend is ScriptedResolver else scripted.probe
    for domain in calls:
        i = made[domain] = made.get(domain, -1) + 1
        seq = script.get(domain)
        want = seq[min(i, len(seq) - 1)] if seq else None
        if want == "gap":
            with pytest.raises(BackendUnavailable, match=f"^{scripted.backend} outage for "):
                ask(domain, None)
        else:
            got = ask(domain, None)
            assert got == (frozenset(want) if type(want) is list else want), (domain, i)


@st.composite
def watch_cases(draw):
    n = draw(st.integers(2, 8))
    domains = draw(st.lists(st.sampled_from(WATCH_DOMAINS), min_size=1, max_size=3,
                            unique=True))
    resolutions = {d: draw(st.lists(ANSWERS, min_size=1, max_size=n)) for d in domains}
    probes = {d: draw(st.lists(STATUSES, min_size=1, max_size=n)) for d in domains}
    whois = {d: {"registrant": "r-" + d, "country": "CN"} for d in domains if draw(st.booleans())}
    tz = draw(st.sampled_from([timezone.utc, CST]))
    start = utc(2021, 1, 1).astimezone(tz).replace(microsecond=draw(
        st.sampled_from([0, 1, 500_000, 999_999])))
    split = draw(st.integers(0, n - 2))
    return domains, resolutions, probes, whois, start, n, split


def _store_bytes(root: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


class TestScheduleDifferential:
    @settings(max_examples=150, deadline=None)
    @given(watch_cases())
    def test_resume_equals_uninterrupted_and_store(self, case):
        domains, resolutions, probes, whois, start, n, split = case
        cadence, end = timedelta(days=1), start + timedelta(days=n - 1)

        def backends():
            return (ScriptedResolver(resolutions), ScriptedProber(probes),
                    ScriptedWhois(whois))

        with tempfile.TemporaryDirectory() as one_dir, \
                tempfile.TemporaryDirectory() as split_dir:
            one = TimelineStore(one_dir)
            whole = schedule(domains, Window(start, end), cadence, *backends(), one)
            parts = TimelineStore(split_dir)
            resolver, prober, whois_client = backends()
            fresh = schedule(domains, Window(start, start + timedelta(days=split, seconds=1)),
                             cadence, resolver, prober, whois_client, parts)
            assert all(fresh[d] == parts.load(d) for d in domains)
            resumed = schedule(domains, Window(start, end), cadence,
                               resolver, prober, whois_client, parts)
            for d in domains:
                assert whole[d] == one.load(d)
                assert resumed[d] == parts.load(d)
                # kept by the tick path, which skips add_resolution
                assert whole[d]._first_resolved == one.load(d)._first_resolved
                assert resumed[d]._first_resolved == whole[d]._first_resolved
            assert resumed == whole
            assert all(r.ts.tzinfo is timezone.utc and r.ts.microsecond == 0
                       for t in whole.values() for r in t.resolutions)
            assert _store_bytes(Path(split_dir)) == _store_bytes(Path(one_dir))


def fake_requests(answers):
    """A stand-in ``requests`` module. ``answers`` maps each URL to a status
    code, or to "error" or "redirects" for the exception to raise; every
    session and response it makes records whether it was closed."""
    mod = types.ModuleType("requests")

    class RequestException(Exception):
        pass

    class TooManyRedirects(RequestException):
        pass

    class Closable:
        closed = False

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.closed = True

    class Response(Closable):
        def __init__(self, status_code):
            self.status_code = status_code

    class Session(Closable):
        def __init__(self):
            self.max_redirects = 30
            self.calls = []
            mod.sessions.append(self)

        def get(self, url, **kwargs):
            self.calls.append((url, kwargs))
            answer = answers[url]
            if answer == "error":
                raise RequestException(url)
            if answer == "redirects":
                raise TooManyRedirects(url)
            mod.responses.append(Response(answer))
            return mod.responses[-1]

    mod.RequestException, mod.TooManyRedirects, mod.Session = \
        RequestException, TooManyRedirects, Session
    mod.sessions, mod.responses = [], []
    return mod


class TestNetworkBackends:
    def _probe(self, monkeypatch, answers):
        mod = fake_requests(answers)
        monkeypatch.setitem(sys.modules, "requests", mod)
        status = HttpProber().probe("a.com", utc(2021, 1, 1))
        [session] = mod.sessions
        assert session.closed and session.max_redirects == PROBE_MAX_REDIRECTS
        assert all(r.closed for r in mod.responses)
        assert all(kwargs == {"timeout": PROBE_TIMEOUT_S, "stream": True, "verify": False}
                   for _url, kwargs in session.calls)
        return status, [url for url, _kwargs in session.calls]

    def test_http_status_kept(self, monkeypatch):
        assert self._probe(monkeypatch, {"http://a.com/": 503}) == \
            (503, ["http://a.com/"])

    def test_https_after_request_exception(self, monkeypatch):
        answers = {"http://a.com/": "error", "https://a.com/": 200}
        assert self._probe(monkeypatch, answers) == \
            (200, ["http://a.com/", "https://a.com/"])
        answers["https://a.com/"] = "error"
        assert self._probe(monkeypatch, answers) == \
            (None, ["http://a.com/", "https://a.com/"])

    def test_too_many_redirects_is_none(self, monkeypatch):
        assert self._probe(monkeypatch, {"http://a.com/": "redirects"}) == \
            (None, ["http://a.com/"])

    @staticmethod
    def _resolve(monkeypatch, answer):
        def getaddrinfo(host, port):
            assert (host, port) == ("a.com", None)
            if isinstance(answer, Exception):
                raise answer
            return [(socket.AF_INET, socket.SOCK_STREAM, 6, "", (ip, 0)) for ip in answer]
        monkeypatch.setattr(socket, "getaddrinfo", getaddrinfo)
        return DnsResolver().resolve("a.com", utc(2021, 1, 1))

    def test_dns_answer_is_ip_set(self, monkeypatch):
        assert self._resolve(monkeypatch, ["1.2.3.4", "1.2.3.4", "5.6.7.8"]) == \
            frozenset({"1.2.3.4", "5.6.7.8"})

    def test_dns_noname_is_nxdomain(self, monkeypatch):
        assert self._resolve(monkeypatch, socket.gaierror(socket.EAI_NONAME, "x")) is None

    def test_dns_other_error_is_outage(self, monkeypatch):
        with pytest.raises(BackendUnavailable):
            self._resolve(monkeypatch, socket.gaierror(socket.EAI_AGAIN, "x"))


class TestLifespan:
    def test_still_alive_149_days(self):
        # packing 2020-12-06, final inspection 2021-05-04, still alive
        start = utc(2020, 12, 6)
        t = DomainTimeline(domain="x.com")
        for day in range(0, 150, 7):
            ts = utc(2020, 12, 6, 12) + timedelta(days=day)
            t.add_resolution(Resolution(ts, frozenset({"1.1.1.1"})))
            t.add_probe(Probe(ts + timedelta(minutes=1), True, "2xx"))
        final = utc(2021, 5, 4)
        t.add_resolution(Resolution(final, frozenset({"1.1.1.1"})))
        t.add_probe(Probe(final, True, "2xx"))
        rec = lifespan(t, start)
        assert rec.end_kind == END_STILL_ALIVE
        assert rec.days == 149

    def test_observed_death(self):
        t = simple_timeline("x.com", [(0, ["1.1.1.1"], 200),
                                      (10, ["1.1.1.1"], 200),
                                      (20, ["1.1.1.1"], 503)])
        rec = lifespan(t, utc(2021, 1, 1))
        assert rec.end_kind == END_OBSERVED_DEATH
        assert rec.end == utc(2021, 1, 11)  # last Alive probe
        assert rec.days == 10

    def test_dead_before_first_inspection(self):
        t = simple_timeline("x.com", [(5, None, 500), (6, None, 500)])
        rec = lifespan(t, utc(2021, 1, 1))
        assert rec.end_kind == END_DEAD_BEFORE_FIRST
        assert rec.end == utc(2021, 1, 6)  # first inspection
        assert rec.days == 5

    def test_empty_timeline(self):
        with pytest.raises(EmptyTimeline):
            lifespan(DomainTimeline(domain="x.com"), utc(2021, 1, 1))

    def test_end_clamped_to_start(self):
        t = simple_timeline("x.com", [(0, None, 500)])
        rec = lifespan(t, utc(2021, 6, 1))
        assert rec.days == 0


IP_POOL = ("1.1.1.1", "2.2.2.2", "3.3.3.3", "4.4.4.4", "5.5.5.5")


@dataclass(frozen=True)
class BindingSegment:
    ips: frozenset[str]
    start: datetime
    end: datetime

    @property
    def days(self) -> float:
        return (self.end - self.start).total_seconds() / 86400.0


def binding_segments(t):
    """Oracle for ``binding_summary``: the run-length encoding of the
    resolved IP set; a change of set (or an NXDOMAIN or empty answer)
    starts a new segment."""
    segments = []
    current = None
    start = last = None
    for r in t.resolutions:
        ips = r.ips if r.ips else None
        if ips != current:
            if current is not None:
                segments.append(BindingSegment(current, start, last))
            current, start = ips, r.ts
        last = r.ts
    if current is not None:
        segments.append(BindingSegment(current, start, last))
    return tuple(segments)


def summary_of_segments(segs):
    """What ``binding_summary`` gives for a timeline with these segments."""
    ips = frozenset().union(*[s.ips for s in segs])
    return ips, tuple(s.days for s in segs) if len(ips) > 1 else ()


@st.composite
def binding_timelines_st(draw):
    """Timelines of up to six domains, from answers at a regular cadence:
    IP sets from a small pool (so sets repeat, and IPs are shared in the
    same period or across periods), empty sets, NXDOMAIN (None), or an
    outage that stores a gap and no resolution."""
    timelines = []
    for i in range(draw(st.integers(0, 6))):
        t = DomainTimeline(domain=f"d{i}.example")
        start = utc(2021, 1, 1) + timedelta(days=draw(st.integers(0, 12)))
        step = timedelta(days=draw(st.sampled_from((1, 0.3, 1 / 3))))
        answers = draw(st.lists(st.none() | st.just("gap") | st.frozensets(
            st.sampled_from(IP_POOL), max_size=2), max_size=8))
        for k, ips in enumerate(answers):
            if ips == "gap":
                t.gaps.append((start + k * step, "resolver outage"))
            else:
                t.add_resolution(Resolution(start + k * step, ips))
        timelines.append(t)
    return timelines


def overlap_loop_classes(per_domain):
    """Oracle for ``classify_segments``: each flexible domain's segments
    tested against every other domain's segments holding one of their IPs,
    with a flag for an overlapping (same-period) and a disjoint
    (cross-period) match; either flag makes the domain type I."""
    by_ip = {}
    for domain, segs in per_domain.items():
        for s in segs:
            for ip in s.ips:
                by_ip.setdefault(ip, []).append((domain, s))
    kinds = {}
    for domain, segs in per_domain.items():
        if len(set().union(*[s.ips for s in segs])) < 2:
            kinds[domain] = KIND_FIXED
            continue
        same = cross = False
        for s in segs:
            for ip in s.ips:
                for other_domain, other in by_ip.get(ip, ()):
                    if other_domain == domain:
                        continue
                    if s.start <= other.end and other.start <= s.end:
                        same = True
                    else:
                        cross = True
        kinds[domain] = KIND_FLEXIBLE_I if (same or cross) else KIND_FLEXIBLE_II
    flexible = [d for d, kind in kinds.items() if kind != KIND_FIXED]
    flex_segments = [s for d in flexible for s in per_domain[d]]
    summary = {
        "domains": len(kinds),
        "fixed": sum(1 for kind in kinds.values() if kind == KIND_FIXED),
        "flexible": len(flexible),
        "type1": sum(1 for d in flexible if kinds[d] == KIND_FLEXIBLE_I),
        "type2": sum(1 for d in flexible if kinds[d] == KIND_FLEXIBLE_II),
        "flexible_fraction": len(flexible) / len(kinds) if kinds else 0.0,
        "mean_binding_days": util.round_half_up(
            sum(s.days for s in flex_segments) / len(flex_segments), 2)
        if flex_segments else 0.0,
    }
    return kinds, summary


class TestBindings:
    def test_fixed_single_ip(self):
        t = simple_timeline("x.com", [(d, ["9.9.9.9"], 200) for d in range(5)])
        result, summary = classify_bindings([t])
        assert result["x.com"] == KIND_FIXED
        assert summary["fixed"] == 1

    def test_same_period_sharing_type1(self):
        # two domains bound to 47.74.14.254 in the same period
        a = simple_timeline("yg19.top", [(0, ["47.74.14.254"], 200),
                                         (5, ["1.2.3.4"], 200)])
        b = simple_timeline("yuereee.top", [(0, ["47.74.14.254"], 200),
                                            (5, ["5.6.7.8"], 200)])
        result, _ = classify_bindings([a, b])
        assert result["yg19.top"] == KIND_FLEXIBLE_I
        assert result["yuereee.top"] == KIND_FLEXIBLE_I

    def test_cross_period_reuse_type1(self):
        # 157.240.20.18 used by uk919.com first, facai1788.com later
        a = simple_timeline("uk919.com", [(0, ["157.240.20.18"], 200),
                                          (10, ["9.9.9.1"], 200)])
        b = simple_timeline("facai1788.com", [(20, ["8.8.8.8"], 200),
                                              (30, ["157.240.20.18"], 200)])
        result, _ = classify_bindings([a, b])
        assert result["uk919.com"] == KIND_FLEXIBLE_I
        assert result["facai1788.com"] == KIND_FLEXIBLE_I

    def test_type2_no_sharing(self):
        a = simple_timeline("solo.com", [(0, ["1.1.1.1"], 200),
                                         (5, ["2.2.2.2"], 200)])
        b = simple_timeline("other.com", [(0, ["3.3.3.3"], 200)])
        result, summary = classify_bindings([a, b])
        assert result["solo.com"] == KIND_FLEXIBLE_II
        assert summary["type2"] == 1

    def test_segments_run_length(self):
        t = simple_timeline("x.com", [
            (0, ["1.1.1.1"], 200), (1, ["1.1.1.1"], 200),
            (2, ["2.2.2.2"], 200), (3, None, 500),
            (4, ["1.1.1.1"], 200), (5, [], None), (6, ["1.1.1.1"], 200),
            (8, ["1.1.1.1"], 200)])
        assert binding_summary(t) == (frozenset({"1.1.1.1", "2.2.2.2"}),
                                      (1.0, 0.0, 0.0, 2.0))
        fixed = simple_timeline("y.com", [(0, ["1.1.1.1"], 200), (3, None, 500),
                                          (4, ["1.1.1.1"], 200)])
        assert binding_summary(fixed) == (frozenset({"1.1.1.1"}), ())
        assert binding_summary(DomainTimeline(domain="z.com")) == (frozenset(), ())

    def test_mean_binding_days_hand_arithmetic(self):
        # flexible domain with segments of 2 and 4 days -> mean 3.0
        t = simple_timeline("x.com", [(0, ["1.1.1.1"], 200),
                                      (2, ["1.1.1.1"], 200),
                                      (3, ["2.2.2.2"], 200),
                                      (7, ["2.2.2.2"], 200)])
        _, summary = classify_bindings([t])
        assert summary["mean_binding_days"] == 3.0

    @settings(max_examples=400, deadline=None)
    @given(binding_timelines_st())
    def test_summary_matches_the_segments(self, timelines):
        for t in timelines:
            assert binding_summary(t) == summary_of_segments(binding_segments(t))

    @settings(max_examples=400, deadline=None)
    @given(binding_timelines_st())
    def test_kinds_and_summary_match_the_overlap_loop(self, timelines):
        kinds, summary = classify_segments({t.domain: binding_summary(t) for t in timelines})
        want_kinds, want_summary = overlap_loop_classes(
            {t.domain: binding_segments(t) for t in timelines})
        assert kinds == want_kinds
        assert _json_string(summary) == _json_string(want_summary)


class TestRegistrants:
    def test_table_percentages(self):
        records = [WhoisRecord("Li Ming", "", "")] * 279 + \
                  [WhoisRecord("Wang Fang", "", "")] * 272
        rows = registrant_stats(records, total_domains=1264)
        assert rows[0] == ("Li Ming", 279, 22.07)
        assert rows[1] == ("Wang Fang", 272, 21.52)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            registrant_stats([], 10)
