"""URL extraction, suffix-list reduction, whitelist filtering and paradigm
classification tests."""

import ipaddress
import random
import tracemalloc
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apktriage.apkcore import zipread
from apktriage.apkcore.artifact import ApkArtifact, open_apk
from apktriage.apkcore.certs import load_known_signatures
from apktriage.apkcore.errors import ApkError
from apktriage.extract import urls
from apktriage.extract.paradigm import classify_paradigm
from apktriage.extract.psl import load_suffix_list
from apktriage.extract.urls import (
    extract_urls,
    filter_whitelist,
    load_whitelist,
    normalize_url,
    urlset_from_strings,
)
from apktriage.genscan.fingerprints import detect_generator, load_fingerprints

import url_oracle
from apk_builder import build_apk

PSL = load_suffix_list()
KNOWN = load_known_signatures()


class TestPsl:
    @pytest.mark.parametrize("host,expected", [
        ("www.example.com", "example.com"),
        ("example.com", "example.com"),
        ("a.b.example.co.uk", "example.co.uk"),
        ("shop.taobao.com.cn", "taobao.com.cn"),
        ("single", "single"),
    ])
    def test_registrable(self, host, expected):
        assert PSL.registrable(host) == expected

    def test_wildcard_and_exception(self):
        # *.ck is wildcard; !www.ck is the exception
        assert PSL.registrable("shop.anything.ck") == "shop.anything.ck"
        assert PSL.registrable("www.ck") == "www.ck"


class TestNormalize:
    @pytest.mark.parametrize("raw,expected", [
        ("HTTP://Example.COM/Path", "http://example.com/Path"),
        ("https://example.com:443/x", "https://example.com/x"),
        ("http://example.com:80/", "http://example.com/"),
        ("http://example.com:8080/", "http://example.com:8080/"),
        ("http://example.com/a#frag", "http://example.com/a"),
        ("http://example.com/a?q=1", "http://example.com/a?q=1"),
        ("http://example.com/x),", "http://example.com/x"),
        ("http://[2001:db8::1]:8080/x", "http://[2001:db8::1]:8080/x"),
        ("http://[::1]:80/", "http://[::1]/"),
        ("HTTPS://[FE80::A]:443/p", "https://[fe80::a]/p"),
        # one address, one string: the bracketed host in compressed form
        ("http://[2001:0DB8:0::1]/", "http://[2001:db8::1]/"),
        ("http://[0:0:0:0:0:0:0:1]:8080/a", "http://[::1]:8080/a"),
    ])
    def test_normalization(self, raw, expected):
        assert normalize_url(raw) == expected

    @pytest.mark.parametrize("raw", ["ftp://x.com/", "not a url", "http://",
                                     "http://pay.evil.com:99999/x",
                                     "http://cdn.c.com:8o80/a",
                                     # a bracketed host that is no IPv6 address
                                     "http://[v1.a:b]/", "http://[1:2]/"])
    def test_rejects(self, raw):
        assert normalize_url(raw) is None


class TestUrlExtraction:
    def test_from_strings(self):
        u = urlset_from_strings([
            'fetch("https://api.fraud.example/v1/pay");',
            "backup at http://203.0.113.9:8080/gate",
            "plain ip 198.51.100.7 in config",
        ], PSL)
        assert "https://api.fraud.example/v1/pay" in u.urls
        assert "198.51.100.7" in u.ip_literals
        assert "203.0.113.9" in u.ip_literals
        assert "fraud.example" in u.domains

    def test_from_apk_entries(self):
        apk = open_apk(build_apk(extra_files={
            "assets/config.json": b'{"api": "https://c2.badhost.net/api"}',
            "res/raw/blob.bin": b"\x00\x01http://plain.example/x\x00\x02",
        }), KNOWN)
        u = extract_urls(apk, psl=PSL)
        assert "https://c2.badhost.net/api" in u.urls
        assert "http://plain.example/x" in u.urls
        assert "badhost.net" in u.domains

    def test_ipv6_literal_host_is_an_ip(self):
        u = urlset_from_strings(["see http://[2001:db8::1]:8080/x and http://[::1]:80/"],
                                PSL)
        assert u.urls == {"http://[2001:db8::1]:8080/x", "http://[::1]/"}
        assert u.ip_literals == {"2001:db8::1", "::1"}
        assert u.domains == frozenset()

    def test_bracketed_host_spellings(self):
        u = urlset_from_strings(["http://[2001:0DB8:0::1]/a http://[2001:db8::1]/b",
                                 "http://[v1.a:b]/c"], PSL)
        assert u.urls == {"http://[2001:db8::1]/a", "http://[2001:db8::1]/b"}
        assert u.ip_literals == {"2001:db8::1"}
        assert u.domains == frozenset()

    def test_invalid_ipv4_rejected(self):
        u = urlset_from_strings(["addr 999.1.2.3 nope"], PSL)
        assert not u.ip_literals

    def test_corrupt_entry_skipped(self):
        good = b"\x00http://kept.example/a\x00"
        bad = b"\x00http://lost.example/b\x00" * 4
        data = bytearray(build_apk(extra_files={
            "res/raw/good.bin": good, "res/raw/bad.bin": bad}))
        # An 0xff byte opens a deflate block of the reserved type 3, which
        # makes zlib refuse the stream.
        name = data.find(b"res/raw/bad.bin")
        start = name + len(b"res/raw/bad.bin")
        data[start:start + 4] = b"\xff" * 4
        apk = open_apk(bytes(data), KNOWN)
        with pytest.raises(ApkError):
            apk.read("res/raw/bad.bin")
        u = extract_urls(apk, psl=PSL)
        assert "http://kept.example/a" in u.urls
        assert not any("lost" in x for x in u.urls)

    @pytest.mark.parametrize("host", [
        "", "1.2.3", "01.2.3.4", "\u0661.\u0662.\u0663.\u0664", "fe80::1%eth0", "a.b",
        "1.2.3.4", "255.255.255.256", "1..2.3", "\u00b9.2.3.4", "::", "a:b", "example.com"])
    def test_is_ip_matches_ipaddress(self, host):
        try:
            ipaddress.ip_address(host)
            want = True
        except ValueError:
            want = False
        assert urls._is_ip(host) is want

    @pytest.mark.parametrize("form", [str, bytes])
    def test_repeated_endpoint_parsed_once(self, monkeypatch, form):
        text = "http://a.example/p 1.2.3.4 1:2::3 999.1.2.3 " * 10_000
        calls = {}

        def counted(name, real):
            def call(*args):
                calls[name] = calls.get(name, 0) + 1
                return real(*args)
            return call

        monkeypatch.setattr(urls, "normalize_url", counted("normalize_url", urls.normalize_url))
        monkeypatch.setattr(urls, "ipaddress", types.SimpleNamespace(**{
            name: counted(name, getattr(ipaddress, name))
            for name in ("ip_address", "IPv4Address", "IPv6Address")}))
        u = urlset_from_strings([text if form is str else text.encode()], PSL)
        assert (u.urls, u.ip_literals, u.domains) == url_oracle.oracle_urlset([text], PSL)
        # one parse per distinct candidate, the rejected "999.1.2.3" included
        assert calls == {"normalize_url": 1, "IPv4Address": 2, "IPv6Address": 1}

    def test_each_entry_read_once_through_its_record(self, monkeypatch):
        # a lookup by path per entry would make a scan quadratic in the
        # entry count
        apk = open_apk(build_apk(extra_files={f"res/raw/e{i:04d}.bin": b"\x00x%d" % i
                                              for i in range(3000)}), KNOWN)
        read = []
        real_read = zipread.read_entry

        def counted(data, entry):
            read.append(entry.path)
            return real_read(data, entry)

        def by_path(self, path):
            raise AssertionError(f"entry {path!r} looked up by path")

        monkeypatch.setattr(zipread, "read_entry", counted)
        monkeypatch.setattr(ApkArtifact, "entry", by_path)
        extract_urls(apk, psl=PSL)
        assert sorted(read) == sorted(e.path for e in apk.entries)
        assert len(read) == len(apk.entries) > 3000


# Fragments whose joins and breaks exercise every boundary of the printable
# runs and of the URL and IP patterns.
_FRAGMENTS = [
    "http://a.example/x", "HTTPS://B.Example:443/p?q=1", "hTTp://c.example:8080/",
    "https://pay.evil.com:99999/x", "http://cdn.c.com:8o80/a", "http://[::1]:80/",
    "http://203.0.113.9:8080/gate", "http://[fe80::1/", "http://",
    "1.2.3.4", "10.0.0.1.5", "999.1.2.3", "203.0.113.77", "\u0661", "\u0663.1.2.3",
    "1.2.3.\u0664", "\u0e51", "2001:db8::1", "fe80::1:", "2001:db8::2.", "::ffff:1.2.3.4",
    "a:b:c", "a:b::1", "1:2:3:4:5:6:7:8", "ABCD:ef01::", "http://[2001:0DB8:0::1]/", "http://[v1.a:b]/", "abcde", "abcdef", "12345", "123456",
    "xy", ".", ":", "/", " ", "\n", "\x00", "\x7f", "\xff", "\x1f",
]
_TEXT_NAMES = ["assets/www/app.js", "assets/index.html", "assets/conf.json"]
_BINARY_NAMES = ["lib/armeabi/libx.so", "res/raw/blob.bin", "assets/pack.dat"]


def _entry(fragments) -> bytes:
    # Latin-1 keeps "\x7f" and "\xff" single raw bytes; the Unicode digits
    # are written as UTF-8.
    return b"".join(f.encode("utf-8" if max(f) > "\xff" else "latin-1") for f in fragments)


_entries_st = st.lists(st.lists(st.sampled_from(_FRAGMENTS), max_size=12), max_size=3)


def _check_apk(files: dict[str, bytes]) -> None:
    raw = build_apk(extra_files=files)
    u = extract_urls(open_apk(raw, KNOWN), psl=PSL)
    assert (u.urls, u.ip_literals, u.domains) == url_oracle.oracle_extract(raw, PSL)


def _check_patterns(text: str) -> None:
    assert urls._TEXT.ipv4.findall(text) == url_oracle.IPV4_RE.findall(text)
    assert urls._TEXT.ipv6.findall(text) == url_oracle.IPV6_RE.findall(text)
    # the gated scan of the whole text, against the ungated reference
    u = urlset_from_strings([text], PSL)
    assert (u.urls, u.ip_literals, u.domains) == url_oracle.oracle_urlset([text], PSL)
    # the same text as an entry's bytes, against the reference's printable runs
    data = text.encode()
    u = urlset_from_strings([data], PSL)
    assert (u.urls, u.ip_literals, u.domains) == \
        url_oracle.oracle_urlset(url_oracle.printable_runs(data), PSL)


class TestOracle:
    """``extract_urls`` against the per-run reference in ``url_oracle``."""

    @settings(max_examples=300, deadline=None)
    @given(text=_entries_st, binary=_entries_st)
    def test_extract_urls_matches_oracle(self, text, binary):
        files = {name: _entry(frags) for name, frags in zip(_TEXT_NAMES, text)}
        files.update((name, _entry(frags)) for name, frags in zip(_BINARY_NAMES, binary))
        _check_apk(files)

    @settings(max_examples=1000, deadline=None)
    @given(st.lists(st.tuples(
        st.sampled_from(["1", "25", "255", "1234", "fF", "abcd", "\u0661", "x"]),
        st.sampled_from([".", ".", ".", ":", ":", "::", "\n", ""])),
        max_size=12).map(lambda parts: "".join(a + b for a, b in parts)))
    def test_ip_patterns_match_oracle(self, text):
        _check_patterns(text)

    @pytest.mark.parametrize("text", [
        "1.2.3.4", "11.2.3.4", ".1.2.3.4", "1.2.3.4.", "1.2.3.45678", "1234.1.2.3",
        "\u06611.2.3.4", "1.2.3.4\u0661", "a:b::1", "x:a:b::1", ".a:b::1", ":a:b::1",
        "abcde:1:2", "1:2:3:4:5:6:7:8:9", "fe80::1:", "::1", "ABCD:ef01::",
        # gate edges: the shortest IPv4 match ("1.2.3.4" above) and a longer
        # third octet, one-digit IPv6 groups, and URLs whose only "://" closes
        # the text or whose scheme is not lower case
        "1.2.34.5", "1:2::3", "1.2.3", "a:b:c",
        "see hTTp://a.b", "HTTPS://H.Example:443/p", "x https://",
    ])
    def test_ip_pattern_edges_match_oracle(self, text):
        _check_patterns(text)

    @pytest.mark.parametrize("files", [
        {"res/raw/runs.bin": b"abcde\x001.2.3.4\x00http://r.example/\x7fabcdef"},
        {"res/raw/runs.bin": b"\xff12345\x00a:b:c:d\x002001:db8::1.\x00fe80::1:"},
        {"res/raw/runs.bin": b"\x00a:b::1\x00a:b:c\x00"},  # runs of 6 and 5 bytes
        {"assets/www/app.js": "\u06611.2.3.4 5.6.7.8\u0661 9.9.9.9".encode()},
        {"assets/index.html": b"HtTpS://Mixed.Example:443/a http://x.example:99999/"},
    ])
    def test_boundary_cases_match_oracle(self, files):
        _check_apk(files)


# Printable islands planted between non-printable bytes: endpoint fragments
# too short to report, schemes cut short, chained and mixed-case URLs, and IP
# literals flush against the island edges.
_ISLANDS = [
    "http", "://", "s://", "ttp:/", "p://a", "1.2.3", "a:b:c", "1:2:", "http:", "12345",
    "http://a", "http://a/http://b", "HTTPS://A.B", "xhttps://c.d", "hTtP://[::1]/",
    "1.2.3.4", "203.0.113.9", "1:2::3", "fe80::1:", "a:b::1.", "http://1.2.3.4:80/",
]
# each "://" at text offsets 0-5 of an entry
_OPENINGS = ["://a.b", "s://a.b", "p://a.b", "ps://a.b", "tp://a.b", "tps://a.b", "ttp://a.b",
             "ttps://a.b", "http://a.b", "https://a.b", "xhttp://a.b"]
_NON_PRINTABLE = [b for b in range(256) if not 0x20 <= b <= 0x7E]
_island_st = st.one_of(st.sampled_from(_ISLANDS),
                       st.text(alphabet="htpsHTPS:/.x1a[]", min_size=1, max_size=12))
_gap_st = st.binary(min_size=1, max_size=3).map(
    lambda b: bytes(_NON_PRINTABLE[x % len(_NON_PRINTABLE)] for x in b))

# Bytes that end a printable run (a tab and a newline among them), the
# characters of IP literals and brackets, and the pieces of a scheme.
_byte_fragment_st = st.one_of(
    st.sampled_from([b"\x00", b"\x09", b"\x0a", b"\x1f", b"\x7f", b"\x80", b"\xff"]),
    st.sampled_from([bytes([c]) for c in b"0123456789.:abcdefABCDEF[]"]),
    st.sampled_from([b"://", b"http", b"HTTPS"]))


@st.composite
def _binary_entry_st(draw):
    parts = [draw(st.sampled_from(_OPENINGS)).encode()] if draw(st.booleans()) else []
    for island in draw(st.lists(_island_st, max_size=10)):
        if parts or draw(st.booleans()):
            parts.append(draw(_gap_st))
        parts.append(island.encode())
    return b"".join(parts)


class TestWholeEntryScan:
    """Each non-text entry is scanned whole, with the URL pattern tried only at
    each "://"; the per-run reference in ``url_oracle`` must agree."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(_binary_entry_st(), min_size=1, max_size=3),
           st.lists(st.sampled_from(_OPENINGS + _ISLANDS), max_size=6))
    def test_planted_islands_match_oracle(self, binaries, text):
        files = {name: data for name, data in zip(_BINARY_NAMES, binaries)}
        files["assets/www/app.js"] = " ".join(text).encode()
        _check_apk(files)

    @pytest.mark.parametrize("body", [
        # Unicode case folding: "\u017f" (long s) matches "s", so the oracle
        # takes the whole chain as one match and reports nothing
        "http\u017f://a.example/http://b.example",
        "ttp\u017f://a.example/ HTTP\u017f://b.example/x http\u017f://c.example",
        "://x.example/ s://y.example/ https://z.example/",
    ])
    def test_text_asset_matches_oracle(self, body):
        _check_apk({"assets/index.html": body.encode()})

    def test_url_pattern_tried_only_at_each_separator(self, monkeypatch):
        # a multi-MB entry with k "://": at most 2k anchored matches and no
        # search of the whole text, which would try the pattern at every byte
        rng = random.Random(3)
        filler = bytes(rng.choice(b"\x00\x01abc /.\xff\x7f012") for _ in range(1 << 17))
        planted = [b"http://h%d.example/p" % i for i in range(40)] + [b"ftp://x.y", b"s://z"]
        blob = b"".join(filler + p + b"\x00" for p in planted)
        assert len(blob) > 5_000_000
        apk = open_apk(build_apk(extra_files={"res/raw/blob.bin": blob}), KNOWN)
        k = sum(zipread.read_entry(apk.raw, e).count(b"://") for e in apk.entries)
        calls = []

        class Counted:
            def __init__(self, real):
                self.real = real

            def match(self, text, pos=0):
                calls.append(pos)
                return self.real.match(text, pos)

            def __getattr__(self, name):
                raise AssertionError(f"URL pattern .{name} used")

        for form in ("_TEXT", "_BYTES"):  # both compiled URL patterns
            patterns = getattr(urls, form)
            monkeypatch.setattr(urls, form, patterns._replace(url=Counted(patterns.url)))
        u = extract_urls(apk, psl=PSL)
        assert {f"http://h{i}.example/p" for i in range(40)} <= u.urls
        assert k >= len(planted) and 0 < len(calls) <= 2 * k

    def test_entries_scanned_one_at_a_time(self):
        # holding every entry's text until the scan would take n entries' worth
        size, n = 1 << 21, 8
        blob = random.Random(5).randbytes(size)
        apk = open_apk(build_apk(extra_files={f"res/raw/b{i}.bin": blob for i in range(n)}), KNOWN)
        tracemalloc.start()
        try:
            extract_urls(apk, psl=PSL)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * size

    @pytest.mark.parametrize("form", ["_TEXT", "_BYTES"])
    def test_ip_patterns_searched_once_per_match(self, monkeypatch, form):
        # multi-MB text that hits both gates at nearly every character, with
        # k planted addresses: a search per gate hit, or a finditer that
        # tries the pattern at every digit, would cost far more calls or time
        k = 30
        text = "".join(".1" * 40_000 + f" 10.{i}.0.1 " + "1a:" * 30_000 + f" 2001:db8::{i + 1:x} "
                       for i in range(k))
        assert len(text) > 5_000_000
        calls = {}

        class Counted:
            def __init__(self, name, real):
                self.name, self.real = name, real

            def search(self, text, pos=0):
                calls[self.name] = calls.get(self.name, 0) + 1
                return self.real.search(text, pos)

            def __getattr__(self, name):
                raise AssertionError(f"{self.name}.{name} used")

        patterns = getattr(urls, form)
        monkeypatch.setattr(urls, form, patterns._replace(**{
            name: Counted(name, getattr(patterns, name))
            for name in ("ipv4", "ipv6", "ipv4_gate", "ipv6_gate")}))
        u = urlset_from_strings([text if form == "_TEXT" else text.encode()], PSL)
        assert (u.urls, u.ip_literals, u.domains) == url_oracle.oracle_urlset([text], PSL)
        assert {f"10.{i}.0.1" for i in range(k)} | {f"2001:db8::{i + 1:x}" for i in range(k)} \
            == u.ip_literals
        v4, v6 = (len(p.findall(text)) for p in (url_oracle.IPV4_RE, url_oracle.IPV6_RE))
        assert v4 == k and v6 == 2 * k  # each "1a:" run is one IPv6 match, then rejected
        assert calls["ipv4_gate"] <= v4 + 1 and calls["ipv4"] <= v4 + 1
        assert calls["ipv6_gate"] <= v6 + 1 and calls["ipv6"] <= v6 + 1

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(st.lists(_byte_fragment_st, max_size=40), min_size=1, max_size=3))
    def test_byte_alphabet_matches_oracle(self, entries):
        # the same bytes as binary entries and as text assets
        blobs = [b"".join(fragments) for fragments in entries]
        files = dict(zip(_BINARY_NAMES, blobs))
        files.update(zip(_TEXT_NAMES, blobs))
        _check_apk(files)


class TestWhitelist:
    def test_curated_list_loads(self):
        wl = load_whitelist()
        assert "facebook.com" in wl or "google.com" in wl

    def test_ranked_file(self, tmp_path):
        p = tmp_path / "top.csv"
        p.write_text("1,google.com\n2,baidu.com  # rank 2\n# note\n\nexample.org\n")
        wl = load_whitelist(p)
        assert wl == load_whitelist() | {"google.com", "baidu.com", "example.org"}

    def test_limit(self, tmp_path):
        # only the first 10,000 lines of a ranked file count
        p = tmp_path / "top.csv"
        p.write_text("".join(f"{i},site{i}.example\n" for i in range(10_005)))
        ranked = load_whitelist(p) - load_whitelist()
        assert ranked == {f"site{i}.example" for i in range(10_000)}

    def test_filter_and_idempotence(self):
        u = urlset_from_strings([
            "https://www.google.com/gen_204",
            "https://api.fraud.example/pay",
            "http://203.0.113.9/gate",
        ], PSL)
        wl = frozenset({"google.com"})
        once = filter_whitelist(u, wl, PSL)
        assert all("google" not in x for x in once.urls)
        assert "203.0.113.9" in once.ip_literals  # IPs never whitelisted
        assert filter_whitelist(once, wl, PSL) == once


class TestParadigm:
    DB = load_fingerprints()

    def test_native(self):
        apk = open_apk(build_apk(extra_files={"assets/model.bin": bytes(1000)}), KNOWN)
        assert classify_paradigm(apk, None) == "Native"

    def test_hybrid_by_generator(self):
        apk = open_apk(build_apk(main_activity="io.dcloud.PandoraEntry"), KNOWN)
        match = detect_generator(apk, self.DB)
        assert match is not None
        assert classify_paradigm(apk, match) == "Hybrid"
        assert classify_paradigm(apk, None) == "Native"  # the match alone decides

    def test_hybrid_by_web_assets(self):
        apk = open_apk(build_apk(extra_files={
            "assets/www/app.html": b"<html>" + b"x" * 5000,
            "assets/data.bin": bytes(100)}), KNOWN)
        assert classify_paradigm(apk, None) == "Hybrid"

    def test_hybrid_by_browser_lib(self):
        apk = open_apk(build_apk(extra_files={
            "lib/armeabi/libxwalkcore.so": b"\x7fELF"}), KNOWN)
        assert classify_paradigm(apk, None) == "Hybrid"

