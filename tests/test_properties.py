"""Generative property suites: rule symmetry, whitelist idempotence,
threshold monotonicity, partition invariants, percentage-sum bounds and
emission determinism."""

import enum
import json
import re
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apktriage.apkcore.certs import SignerIdentity
from apktriage.assoc.graph import build_graph
from apktriage.assoc.rules import fired_rules
from apktriage.extract.psl import load_suffix_list
from apktriage.extract.urls import UrlSet, filter_whitelist
from apktriage.genscan import ciphers
from apktriage.payclass.sessions import KIND_FOURTH_PARTY, PaymentClassification, channel_breakdown
from apktriage.reportcli.aggregate import category_distribution
from apktriage.reportcli.emit import _csv_string, _json_string
from apktriage.util import pct, round_half_up

import dhash_oracle
from test_assoc import make_sample

PSL = load_suffix_list()
CASES = settings(max_examples=500, deadline=None)

domain_st = st.sampled_from(
    [f"d{i}.com" for i in range(12)] + [f"host{i}.example" for i in range(6)])
ip_st = st.sampled_from([f"10.0.0.{i}" for i in range(12)])
hash_st = st.integers(min_value=0, max_value=(1 << 64) - 1)
dn_st = st.fixed_dictionaries({
    "commonName": st.sampled_from(["", "A", "B", "C"]),
    "organization": st.sampled_from(["", "Org1", "Org2"]),
    "locality": st.sampled_from(["", "L1", "L2"]),
    "country": st.sampled_from(["", "CN", "US"]),
})


@st.composite
def sample_st(draw, sid):
    return make_sample(
        sid,
        dn=draw(st.none() | dn_st),
        fingerprint=draw(st.none() | st.sampled_from(["f1", "f2", "f3"])),
        domains=draw(st.frozensets(domain_st, max_size=6)),
        resolved_ips=draw(st.frozensets(ip_st, max_size=3)),
        hashes=draw(st.lists(hash_st, max_size=2)),
    )


@CASES
@given(st.data())
def test_rule_symmetry(data):
    a = data.draw(sample_st("a"))
    b = data.draw(sample_st("b"))
    assert fired_rules(a, b) == fired_rules(b, a)


@CASES
@given(urls=st.frozensets(
    st.sampled_from([f"http://sub{i}.d{i % 8}.com/p" for i in range(16)]),
    max_size=8),
    wl=st.frozensets(st.sampled_from([f"d{i}.com" for i in range(8)]),
                     max_size=8))
def test_whitelist_idempotent(urls, wl):
    u = UrlSet(urls, frozenset(), frozenset(PSL.registrable(x.split("//")[1].split("/")[0]) for x in urls))
    once = filter_whitelist(u, wl, PSL)
    twice = filter_whitelist(once, wl, PSL)
    assert once == twice
    assert once.urls <= u.urls


@CASES
@given(a=hash_st, b=hash_st,
       t1=st.floats(min_value=0.01, max_value=1.0),
       t2=st.floats(min_value=0.01, max_value=1.0))
def test_snapshot_threshold_monotonicity(a, b, t1, t2):
    # raising the threshold can only turn matches off, never on
    lo, hi = sorted((t1, t2))
    sim = dhash_oracle.similarity(a, b)
    assert 0.0 <= sim <= 1.0
    if sim >= hi:
        assert sim >= lo


@CASES
@given(st.data())
def test_partition_invariants(data):
    n = data.draw(st.integers(min_value=1, max_value=8))
    samples = [data.draw(sample_st(f"s{i}")) for i in range(n)]
    g = build_graph(samples)
    # groups partition the node set exactly
    flat = [x for comp in g.groups for x in comp]
    assert sorted(flat) == sorted(g.nodes)
    assert len(set(flat)) == len(flat)
    # every emitted edge joins nodes of the same group
    membership = {x: i for i, comp in enumerate(g.groups) for x in comp}
    for a, b, rules in g.edges:
        assert membership[a] == membership[b]
        assert rules
    # edges are exactly the pairs some rule fires on
    fired = {}
    for i, x in enumerate(samples):
        for y in samples[i + 1:]:
            a, b = sorted((x, y), key=lambda s: s.sample_id)
            if rules := fired_rules(a, b):
                fired[(a.sample_id, b.sample_id)] = rules
    assert {(a, b): rules for a, b, rules in g.edges} == fired


@CASES
@given(st.lists(st.sampled_from(
    ["Sex", "Gambling", "Financial", "Service", "AuxiliaryTool"]),
    min_size=1, max_size=60))
def test_percentage_sum_bounds(labels):
    dist = category_distribution(labels)
    assert abs(sum(v[1] for v in dist.values()) - 100.0) <= 0.02


@CASES
@given(st.lists(st.sampled_from(
    ["ThirdPartyRail", "BankTransfer", "DigitalCurrency", "Unknown"]),
    min_size=1, max_size=50))
def test_channel_percentages_sum(channels):
    cs = [PaymentClassification(f"s{i}", KIND_FOURTH_PARTY, ch)
          for i, ch in enumerate(channels)]
    rows, _ = channel_breakdown(cs)
    assert abs(sum(p for _, _, p in rows) - 100.0) <= 0.1


@CASES
@given(st.lists(st.lists(st.text(
    alphabet=string.ascii_letters + ',"\n ', max_size=8), max_size=4),
    max_size=6))
def test_emission_determinism(rows):
    header = ["A", "B", "C", "D"]
    assert _csv_string(header, rows) == _csv_string(header, rows)
    assert _json_string(rows) == _json_string(rows)


# leaves of every JSON type: non-ASCII, control and surrogate-free astral
# characters, ints past 64 bits, signed zero, extremes and non-finite floats
leaf_st = st.one_of(
    st.none(), st.booleans(),
    st.integers(), st.integers(min_value=-(10 ** 40), max_value=10 ** 40),
    st.floats(), st.sampled_from([-0.0, 0.0, 1e300, -1e-300, 5e-324, 1e16, 0.1,
                                  float("nan"), float("inf"), float("-inf")]),
    st.text(), st.text(st.sampled_from('a"\\/\x00\x1f\x7f\n\té€\u2028\U0001f600')))
json_tree_st = st.recursive(
    leaf_st,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=30)


@CASES
@given(json_tree_st)
def test_json_string_writes_what_json_dumps_writes(obj):
    assert _json_string(obj) == json.dumps(obj, indent=2, sort_keys=True) + "\n"


class _Kind(enum.IntEnum):
    A = 1


class _Str(str):
    pass


class _Float(float):
    def __repr__(self):
        return "F"


@pytest.mark.parametrize("obj", [
    {3: "a", 2.5: [None], False: 1},  # keys json converts
    {None: {"a": 1}},
    {"a": _Kind.A, "b": [_Str("x")], "c": _Float(1.5)},  # subclasses of leaves
    [{"a": {"b": [[]]}}, {}, ()],
    [[[[[]]]]] * 3,
], ids=["number-keys", "null-key", "subclasses", "empty", "nested"])
def test_json_string_matches_json_dumps_on_odd_inputs(obj):
    assert _json_string(obj) == json.dumps(obj, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("obj", ["cycle", {"a": 1, 2: 3}, {"a": {1, 2}}, "deep"])
def test_json_string_raises_where_json_dumps_raises(obj):
    if obj == "cycle":
        obj = []
        obj.append(obj)
    elif obj == "deep":
        obj = []
        for _ in range(100_000):
            obj = [obj]
    with pytest.raises(Exception) as want:
        json.dumps(obj, indent=2, sort_keys=True)
    with pytest.raises(want.type, match=f"^{re.escape(str(want.value))}$"):
        _json_string(obj)


@CASES
@given(data=st.binary(max_size=256),
       key=st.binary(min_size=1, max_size=32))
def test_rc4_involution(data, key):
    assert ciphers.rc4(ciphers.rc4(data, key), key) == data


@CASES
@given(data=st.binary(max_size=128), key=st.binary(min_size=16, max_size=16))
def test_tea_round_trip(data, key):
    assert ciphers.tea_decrypt(ciphers.tea_encrypt(data, key), key) == data


@CASES
@given(num=st.integers(min_value=0, max_value=10_000),
       denom=st.integers(min_value=1, max_value=10_000))
def test_pct_bounds(num, denom):
    p = pct(min(num, denom), denom)
    assert 0.0 <= p <= 100.0
    assert round_half_up(p, 2) == p
