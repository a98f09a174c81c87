"""The JSON-lines readers of ``report`` and ``payclass`` against an
independent oracle: the line loops they had before the shared checked
reader, copied here. The oracle imports nothing from ``apktriage``, so on
every well-formed file the records must agree field for field."""

import gc
import json
import re
from datetime import datetime, timedelta, timezone
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apktriage.assoc.features import read_features_jsonl
from apktriage.assoc.graph import build_graph
from apktriage.infrawatch.timeline import TimelineStore, WhoisRecord, _ts
from apktriage.payclass.sessions import read_observations_jsonl
from apktriage.reportcli.taxonomy import read_labels_jsonl
from apktriage.util import gc_paused, json_lines

CASES = settings(max_examples=100, deadline=None)


def oracle_labels(path):
    labels = []
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            labels.append((rec["sample_id"], rec["top"], rec["sub"],
                           frozenset(rec.get("tactics", ())),
                           dict(rec.get("behavior", {}))))
    return labels


def oracle_observations(path):
    sessions = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            o = (rec["session_id"], int(rec["request_index"]),
                 Decimal(str(rec["amount"])), rec["payment_domain"],
                 rec["recipient_id"], rec.get("channel_hint", "Unknown"))
            sessions.setdefault(o[0], []).append(o)
    return sessions


# escapes, control and non-ASCII characters, and line separators that
# JSON leaves unescaped
text_st = st.text(st.sampled_from(list('aZ9 "\\/\n\r\t\x00\x0c\x85é€\u2028\U0001f600')),
                  max_size=8)
# keys neither reader knows
extra_st = st.dictionaries(st.sampled_from(["note", "source", "x"]), st.integers(), max_size=2)


def _records(required, optional):
    return st.tuples(extra_st, st.fixed_dictionaries(required, optional=optional)).map(
        lambda t: {**t[0], **t[1]})


name_st = st.one_of(st.none(), st.sampled_from(["Sex", "Gambling", "Lotteries"]), text_st)
label_st = _records(
    {"sample_id": text_st, "top": name_st, "sub": name_st},
    {"tactics": st.lists(st.sampled_from(["P1", "P3", "P12", ""]), max_size=4),
     "behavior": st.dictionaries(text_st, st.sampled_from(["Major", "Minor", "x"]),
                                 max_size=3)})
observation_st = _records(
    {"session_id": st.sampled_from(["s1", "s2", "s3"]),
     "request_index": st.integers(min_value=-(10 ** 20), max_value=10 ** 20),
     "amount": st.one_of(
         st.decimals(min_value=Decimal("0.01"), max_value=Decimal(10) ** 12,
                     allow_nan=False, allow_infinity=False).map(str),
         st.integers(min_value=1, max_value=10 ** 30),
         st.floats(min_value=1e-9, max_value=1e15)),
     "payment_domain": text_st, "recipient_id": text_st},
    {"channel_hint": st.sampled_from(
        ["ThirdPartyRail", "BankTransfer", "DigitalCurrency", "Unknown"])})

# padding both readers strip; "\x0c" and "\u3000" are not JSON whitespace
pad_st = st.sampled_from(["", " ", "\t", "\x0c", "\u3000"])


def file_st(record_st):
    """The text of a JSON-lines file of ``record_st`` records: padded
    lines, either escaping, with blank lines between them."""
    line_st = st.tuples(pad_st, record_st, st.booleans(), pad_st,
                        st.sampled_from(["\n", "\n\n", "\n \n"]))
    return st.lists(line_st, max_size=6).map(lambda lines: "".join(
        lead + json.dumps(r, ensure_ascii=ascii) + trail + end
        for lead, r, ascii, trail, end in lines))


@CASES
@given(text=file_st(label_st))
def test_labels_match_the_oracle(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "labels.jsonl"
    path.write_text(text, encoding="utf-8")
    assert [(l.sample_id, l.top, l.sub, l.tactics, l.behavior)
            for l in read_labels_jsonl(path)] == oracle_labels(path)


@CASES
@given(text=file_st(observation_st))
def test_observations_match_the_oracle(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "obs.jsonl"
    path.write_text(text, encoding="utf-8")
    got = {sid: [(o.session_id, o.request_index, o.amount, o.payment_domain,
                  o.recipient_id, o.channel_hint) for o in obs]
           for sid, obs in read_observations_jsonl(path).items()}
    want = oracle_observations(path)
    assert list(got) == list(want)
    assert got == want
    # Decimal equality ignores the exponent; the written form must agree too
    assert [str(o[2]) for obs in got.values() for o in obs] == \
        [str(o[2]) for obs in want.values() for o in obs]


def test_json_lines_numbers_every_line():
    seen = json_lines("f.jsonl", ["1\n", "\n", "  \n", "[2]\n"], lambda obj: obj)
    assert seen == [1, [2]]
    with pytest.raises(ValueError, match=r"^f\.jsonl, line 4: "):
        json_lines("f.jsonl", ["1", "", " ", "{"], lambda obj: obj)


def test_json_lines_keeps_program_faults():
    def parse(obj):
        return obj["a"] + 1  # a TypeError is a fault of the parse, not of the input

    with pytest.raises(TypeError):
        json_lines("f.jsonl", ['{"a": "x"}'], parse)


DEEP = "[" * 100_000 + "]" * 100_000  # json recurses out on it
json_st = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | text_st,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(text_st, inner, max_size=3),
    max_leaves=8)
# a JSON text, or a value json.loads rejects: a BOM, trailing data, a cut
# value, a bare word, or nesting too deep
value_st = st.one_of(
    json_st.map(json.dumps),
    json_st.map(lambda v: json.dumps(v, indent=1)),
    st.tuples(json_st, json_st).map(lambda t: f"{json.dumps(t[0])} {json.dumps(t[1])}"),
    json_st.map(lambda v: "\ufeff" + json.dumps(v)),
    json_st.map(lambda v: json.dumps(v)[:-1]),
    st.sampled_from(["NaN", "-Infinity", "nan", "[NaN, Infinity]", "1e400", "-0",
                     "{}x", "tru", '"\\ud800"', '"a\tb"', "[1,]", DEEP]),
    text_st)
# padding str.strip removes; of it, only " ", "\t", "\n" and "\r" is JSON
# whitespace
strip_pad_st = st.text(st.sampled_from(" \t\r\n\x0b\x0c\x1c\x85\xa0\u2028\u3000"), max_size=2)


def _loads_each(lines):
    """Per-line ``json.loads`` of each stripped non-blank line: the
    decoded objects, then the error of the first line it rejects."""
    out = []
    for n, line in enumerate(lines, 1):
        line = line.strip()
        if line:
            try:
                out.append(json.loads(line))
            except (ValueError, RecursionError) as e:
                return out, f"f.jsonl, line {n}: {e}"
    return out, None


@CASES
@given(lines=st.lists(st.tuples(strip_pad_st, value_st, strip_pad_st).map("".join), max_size=5))
def test_json_lines_decodes_as_json_loads(lines):
    want, error = _loads_each(lines)
    seen = []
    try:
        json_lines("f.jsonl", lines, lambda obj: seen.append(obj) or obj)
    except ValueError as e:
        assert str(e) == error
    else:
        assert error is None
    # repr tells NaN, -0.0 and 1.0 apart from what == would let pass
    assert repr(seen) == repr(want)


def test_json_lines_restores_the_collector_on_error():
    for enabled in (True, False):
        (gc.enable if enabled else gc.disable)()
        try:
            with pytest.raises(ValueError):
                json_lines("f.jsonl", ["1", "{"], lambda obj: obj)
            assert gc.isenabled() is enabled
        finally:
            gc.enable()


@pytest.mark.parametrize("enabled", [True, False])
def test_gc_paused_restores_the_previous_state(enabled):
    (gc.enable if enabled else gc.disable)()
    try:
        with gc_paused():
            assert not gc.isenabled()
        assert gc.isenabled() is enabled
        with pytest.raises(KeyError):
            with gc_paused():
                raise KeyError("x")
        assert gc.isenabled() is enabled
        with gc_paused():
            with gc_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()  # the inner pause leaves the outer one
        assert gc.isenabled() is enabled
    finally:
        gc.enable()


def _hash_line(h):
    return json.dumps({"sample_id": "b", "fingerprints": [{"hash": h}]}) + "\n"


@pytest.mark.parametrize("h,value", [("0", 0), ("f" * 16, 2 ** 64 - 1), ("00aBcD", 0xABCD)])
def test_fingerprint_hash_is_one_to_sixteen_hex_digits(tmp_path, h, value):
    path = tmp_path / "f.jsonl"
    path.write_text(_hash_line(h))
    assert read_features_jsonl(path)[0].fingerprints == (value,)


# a hash is 1 to 16 ASCII hex digits; int(h, 16) also takes the first five
@pytest.mark.parametrize("h,error", [
    (" 1 ", "must be ASCII hex digits"), ("1_0", "must be ASCII hex digits"),
    ("0x_1", "must be ASCII hex digits"), ("0X1", "must be ASCII hex digits"),
    ("\uff11", "must be ASCII hex digits"), ("", "must be ASCII hex digits"),
    ("1" + "0" * 16, "hash must fit in 64 bits"), ("0" * 17, "hash must fit in 64 bits"),
], ids=["padded", "underscore", "0x-underscore", "0X", "full-width-one", "empty",
        "65-bit", "17-digits"])
def test_fingerprint_hash_of_another_form_is_an_input_error(tmp_path, h, error):
    path = tmp_path / "f.jsonl"
    path.write_text(json.dumps({"sample_id": "a"}) + "\n" + _hash_line(h))
    with pytest.raises(ValueError, match=f"^{path}, line 2: .*{error}"):
        read_features_jsonl(path)


@pytest.mark.parametrize("label", [5, ["x"], True], ids=["number", "list", "true"])
def test_label_of_another_type_is_an_input_error(tmp_path, label):
    path = tmp_path / "f.jsonl"
    path.write_text(json.dumps({"sample_id": "a", "label": "Sex"}) + "\n"
                    + json.dumps({"sample_id": "b", "label": label}) + "\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}, line 2: "
                                         "'label' must be a string, an object or null$"):
        read_features_jsonl(path)


def test_label_is_a_top_name_an_object_or_null(tmp_path):
    labels = ["Sex", {"top": "Gambling", "sub": "x"}, {"top": None}, {}, None, "Nope"]
    path = tmp_path / "f.jsonl"
    path.write_text("".join(json.dumps({"sample_id": f"s{i}", "label": label}) + "\n"
                            for i, label in enumerate(labels)))
    assert [f.label for f in read_features_jsonl(path)] == labels


def _features_file(path, n):
    """n features records in developer groups of five: shared DN fields,
    domains, IPs and near-equal dHashes, so every rule fires within a
    group and none across groups."""
    with open(path, "w", encoding="utf-8") as f:
        for i in range(n):
            g = i // 5
            f.write(json.dumps({
                "sample_id": f"s{i:05d}",
                "signature": {"fingerprint": f"fp{i}", "signature_class": "DeveloperSpecific",
                              "dn_fields": {"commonName": f"dev{g}", "organization": f"org{g}",
                                            "locality": "x", "country": str(i)}},
                "domains": [f"{x}{g}.example" for x in "abc"] + [f"e{i}.example"],
                "urls": [], "ip_literals": [], "resolved_ips": [f"10.0.{g % 250}.1"],
                "fingerprints": [{"hash": f"{(g * 0x9E3779B97F4A7C15) % 2 ** 64 ^ (1 << i % 5):016x}",
                                  "source": "icon"}],
                "label": {"top": "Sex"}}) + "\n")


def _labels_file(path, n):
    with open(path, "w", encoding="utf-8") as f:
        for i in range(n):
            f.write(json.dumps({"sample_id": f"s{i}", "top": "Gambling", "sub": "Lotteries",
                                "tactics": ["P1"], "behavior": {"U1": "Major"}}) + "\n")


def _observations_file(path, n):
    with open(path, "w", encoding="utf-8") as f:
        for i in range(n):
            f.write(json.dumps({"session_id": f"s{i // 3}", "request_index": i % 3,
                                "amount": f"{i}.50", "payment_domain": "pay.example",
                                "recipient_id": f"acct-{i}"}) + "\n")


def _store(root, n):
    store = TimelineStore(root)
    t0 = datetime(2021, 1, 1, tzinfo=timezone.utc)
    store.set_whois("x.example", t0, WhoisRecord("reg", "CN", "2020-01-01"))
    for i in range(n):
        ts = t0 + timedelta(days=i)
        for kind, payload in (("resolution", [f"10.0.0.{i % 9}"]),
                              ("probe", {"alive": i % 4 != 0,
                                         "detail": "2xx" if i % 4 else "timeout"}),
                              ("gap", "resolver unavailable")):
            store.append("x.example", {"ts": _ts(ts), "kind": kind, "payload": payload})
    store.close()
    return store


def _garbage(build):
    """How many unreachable objects the collector finds once the result
    of ``build()``, run with the collector off, is dropped: what a pause
    would leave to the collector, had the builder made cycles."""
    gc.collect()
    gc.disable()
    try:
        result = build()
        del result
        return gc.collect()
    finally:
        gc.enable()


@pytest.mark.parametrize("builder", ["features", "graph", "labels", "observations", "store"])
def test_builders_run_paused_make_no_cycles(tmp_path, builder):
    # the collector is paused while these build their records, which is
    # safe only when what they build is acyclic: ten times the input must
    # leave no more for the collector than the small input does
    found = []
    for n in (30, 300):
        d = tmp_path / str(n)
        d.mkdir()
        if builder in ("features", "graph"):
            _features_file(d / "f.jsonl", n)
            feats = read_features_jsonl(d / "f.jsonl")
            build = {"features": lambda: read_features_jsonl(d / "f.jsonl"),
                     "graph": lambda: build_graph(feats)}[builder]
        elif builder == "labels":
            _labels_file(d / "l.jsonl", n)
            build = lambda: read_labels_jsonl(d / "l.jsonl")
        elif builder == "observations":
            _observations_file(d / "o.jsonl", n)
            build = lambda: read_observations_jsonl(d / "o.jsonl")
        else:
            store = _store(d / "store", n)
            build = lambda: store.load("x.example")
        result = build()
        assert result and (builder != "graph" or result.edges)  # the input is not trivial
        del result
        found.append(_garbage(build))
    assert found[1] <= found[0], found
