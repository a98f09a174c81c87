"""Acceptance gate: the ten primary criteria, one pass/fail line each.

Run with `pytest -v tests/test_acceptance.py -s` to see the lines as the
criteria complete; each test prints its verdict only after every
assertion in it has held.
"""

import random
import subprocess
import sys
import time
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest

from apktriage.assoc.graph import build_graph
from apktriage.assoc.stats import group_stats
from apktriage.genscan import ciphers
from apktriage.infrawatch.bindings import (
    KIND_FIXED,
    KIND_FLEXIBLE_I,
    KIND_FLEXIBLE_II,
    classify_bindings,
)
from apktriage.infrawatch.lifespan import (
    END_DEAD_BEFORE_FIRST,
    END_OBSERVED_DEATH,
    END_STILL_ALIVE,
    lifespan,
)
from apktriage.infrawatch.registrants import registrant_stats
from apktriage.infrawatch.timeline import DomainTimeline, Probe, Resolution, WhoisRecord
from apktriage.payclass.sessions import (
    KIND_FOURTH_PARTY,
    KIND_INDETERMINATE,
    KIND_THIRD_PARTY,
    PaymentClassification,
    channel_breakdown,
    classify_session,
)
from apktriage.reportcli.aggregate import category_distribution

from apktriage.apkcore.errors import ManifestUndecodable
from apktriage.apkcore.manifest import parse_manifest

import cipher_oracles as oracle
from axml_writer import build_manifest
from test_assoc import bfs_oracle_edges, brute_components, make_sample, random_corpus
from test_axml import GOLDEN, _mutate
from test_payclass import obs as pay_obs


def verdict(n, ok, text):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {n}: {text}"
    print(line)
    assert ok, line


def test_criterion_1_cipher_correctness():
    rng = random.Random(0xACCE)
    t0 = time.perf_counter()
    spec = {
        "RC4": (lambda: rng.randbytes(rng.randint(1, 32)),
                ciphers.rc4, lambda d, k: ciphers.rc4(d, k), oracle.oracle_rc4),
        "TEA": (lambda: rng.randbytes(16), ciphers.tea_encrypt,
                ciphers.tea_decrypt, oracle.oracle_tea_encrypt),
        "AES_CBC": (lambda: rng.randbytes(rng.choice((16, 24, 32))),
                    ciphers.aes_cbc_encrypt, ciphers.aes_cbc_decrypt,
                    oracle.oracle_aes_cbc_encrypt),
        "DES_CBC": (lambda: rng.randbytes(8), ciphers.des_cbc_encrypt,
                    ciphers.des_cbc_decrypt, oracle.oracle_des_cbc_encrypt),
    }
    for name, (keygen, enc, dec, orc) in spec.items():
        for _ in range(1000):
            key = keygen()
            data = rng.randbytes(rng.randint(0, 64))
            assert dec(enc(data, key), key) == data, name
        for _ in range(10):
            key = keygen()
            data = rng.randbytes(48)
            assert enc(data, key) == orc(data, key), name
    elapsed = time.perf_counter() - t0
    verdict(1, elapsed < 10.0,
            f"4 ciphers x 1000 round-trips + 10 oracle vectors each "
            f"in {elapsed:.1f}s")


def test_criterion_2_axml_parser():
    goldens = [build_manifest(**g) for g in GOLDEN]
    parsed = [parse_manifest(d) for d in goldens]
    assert len(parsed) == 5
    for spec, m in zip(GOLDEN, parsed):
        assert m.package_name == spec["package"]
        assert m.permissions == frozenset(spec["permissions"])
    rejected = 0
    for what in ("magic", "truncate", "tiny", "chunk_size", "unbalanced"):
        try:
            parse_manifest(_mutate(goldens[1], what))
        except ManifestUndecodable:
            rejected += 1
    deterministic = all(parse_manifest(d) == m
                        for d, m in zip(goldens, parsed))
    verdict(2, rejected == 5 and deterministic,
            "5 golden fixtures field-exact, 5 mutations rejected, "
            "deterministic re-parse")


def test_criterion_3_algorithm1_oracle_equivalence():
    rng = random.Random(843)
    t0 = time.perf_counter()
    for _ in range(200):
        n = rng.randint(2, 12)
        samples, names, true_edges = random_corpus(rng, n)
        g = build_graph(samples)
        assert g.groups == brute_components(names, true_edges)
        for i_max in (1, 2):
            assert {(a, b) for a, b, _ in g.edges} == \
                bfs_oracle_edges(names, true_edges, i_max)
    elapsed = time.perf_counter() - t0
    verdict(3, elapsed < 30.0,
            f"200 random corpora match brute-force components and "
            f"bounded-BFS oracle in {elapsed:.1f}s")


def test_criterion_4_group_table_rank1():
    composition = [("Sex", 20), ("Gambling", 11), ("Financial", 52),
                   ("Service", 2)]
    samples = []
    i = 0
    for top, count in composition:
        for _ in range(count):
            samples.append(make_sample(f"g{i:03d}", fingerprint="dev-1",
                                       label={"top": top}))
            i += 1
    g = build_graph(samples)
    rows = group_stats(g, {s.sample_id: s.label for s in samples},
                       corpus_size=843)
    row = rows[0]
    ok = (row.size == 85 and row.corpus_pct == 10.08
          and abs(row.category_pcts["Sex"] - 23.5) <= 0.1
          and abs(row.category_pcts["Gambling"] - 12.9) <= 0.1
          and abs(row.category_pcts["Financial"] - 61.2) <= 0.1
          and abs(row.category_pcts["Service"] - 2.4) <= 0.1)
    verdict(4, ok, f"rank-1 group row {row.size} ({row.corpus_pct}%) - "
            f"{row.category_pcts['Sex']}% / {row.category_pcts['Gambling']}% "
            f"/ {row.category_pcts['Financial']}% / "
            f"{row.category_pcts['Service']}%")


def test_criterion_5_category_distribution():
    labels = (["Financial"] * 356 + ["Gambling"] * 261 + ["Sex"] * 110
              + ["Service"] * 108 + ["AuxiliaryTool"] * 8)
    dist = category_distribution(labels)
    expected = {"Financial": 42.24, "Gambling": 30.96, "Sex": 13.04,
                "Service": 12.82, "AuxiliaryTool": 0.95}
    ok = all(abs(dist[top][1] - v) <= 0.02 for top, v in expected.items())
    verdict(5, ok, "counts {356,261,110,108,8}/843 reproduce the published "
            "category percentages within 0.02")


def utc(*args):
    return datetime(*args, tzinfo=timezone.utc)


def _weekly_alive(domain, start, end):
    t = DomainTimeline(domain=domain)
    ts = start
    while ts < end:
        t.add_resolution(Resolution(ts, frozenset({"1.1.1.1"})))
        t.add_probe(Probe(ts + timedelta(minutes=1), True, "2xx"))
        ts += timedelta(days=7)
    t.add_resolution(Resolution(end, frozenset({"1.1.1.1"})))
    t.add_probe(Probe(end, True, "2xx"))
    return t


def test_criterion_6_lifespan_math():
    start = utc(2020, 12, 6)
    alive = lifespan(_weekly_alive("a.com", utc(2020, 12, 7), utc(2021, 5, 4)),
                     start)
    ok1 = alive.days == 149 and alive.end_kind == END_STILL_ALIVE

    t = DomainTimeline(domain="b.com")
    for day, code in ((0, 200), (9, 200), (18, 503)):
        ts = utc(2021, 1, 1) + timedelta(days=day)
        t.add_resolution(Resolution(ts, frozenset({"2.2.2.2"})))
        t.add_probe(Probe(ts, code < 500, str(code)))
    dead = lifespan(t, utc(2021, 1, 1))
    ok2 = dead.end_kind == END_OBSERVED_DEATH and dead.end == utc(2021, 1, 10)

    t2 = DomainTimeline(domain="c.com")
    first = utc(2021, 2, 1)
    t2.add_resolution(Resolution(first, None))
    t2.add_probe(Probe(first, False, "nxdomain"))
    never = lifespan(t2, utc(2021, 1, 25))
    ok3 = (never.end_kind == END_DEAD_BEFORE_FIRST and never.end == first
           and never.days == 7)
    verdict(6, ok1 and ok2 and ok3,
            f"149-day still-alive span, observed-death and "
            f"dead-before-first endpoints exact")


def _binding_timeline(domain, segments):
    t = DomainTimeline(domain=domain)
    for day, ips in segments:
        ts = utc(2021, 1, 1) + timedelta(days=day)
        t.add_resolution(Resolution(ts, frozenset(ips)))
    return t


def test_criterion_7_binding_classification():
    # same-period sharing of 47.74.14.254
    a = _binding_timeline("yg19.top", [(0, ["47.74.14.254"]), (6, ["3.3.3.3"])])
    b = _binding_timeline("yuereee.top", [(0, ["47.74.14.254"]),
                                          (6, ["4.4.4.4"])])
    r1, _ = classify_bindings([a, b])
    ok1 = all(r1[d].kind == KIND_FLEXIBLE_I for d in r1)

    # cross-period reuse of 157.240.20.18
    c = _binding_timeline("uk919.com", [(0, ["157.240.20.18"]),
                                        (8, ["5.5.5.5"])])
    d = _binding_timeline("facai1788.com", [(20, ["6.6.6.6"]),
                                            (28, ["157.240.20.18"])])
    r2, _ = classify_bindings([c, d])
    ok2 = all(r2[x].kind == KIND_FLEXIBLE_I for x in r2)

    fixed = _binding_timeline("fix.com", [(i, ["9.9.9.9"]) for i in range(5)])
    r3, _ = classify_bindings([fixed])
    ok3 = r3["fix.com"].kind == KIND_FIXED

    lone = _binding_timeline("lone.com", [(0, ["7.7.7.7"]), (4, ["8.8.8.8"])])
    r4, _ = classify_bindings([lone, fixed])
    ok4 = r4["lone.com"].kind == KIND_FLEXIBLE_II

    # hand arithmetic: flexible segments of 2 and 4 days -> mean 3.0
    m = _binding_timeline("mean.com", [(0, ["1.1.1.1"]), (2, ["1.1.1.1"]),
                                       (3, ["2.2.2.2"]), (7, ["2.2.2.2"])])
    _, summary = classify_bindings([m])
    ok5 = summary["mean_binding_days"] == 3.0
    verdict(7, ok1 and ok2 and ok3 and ok4 and ok5,
            "same-period and cross-period sharing -> FlexibleTypeI; "
            "Fixed and FlexibleTypeII scenarios; mean binding days exact")


def test_criterion_8_registrant_table():
    records = ([WhoisRecord("Registrant A", "", "")] * 279
               + [WhoisRecord("Registrant B", "", "")] * 272)
    rows = registrant_stats(records, total_domains=1264)
    ok = rows[0][1:] == (279, 22.07) and rows[1][1:] == (272, 21.52)
    verdict(8, ok, f"279/1264 -> {rows[0][2]}% and 272/1264 -> {rows[1][2]}%")


def test_criterion_9_payment_classification():
    licensed = frozenset({"pay.licensed.example"})
    third = classify_session([pay_obs(i) for i in (1, 2, 3)], licensed)
    fourth = classify_session([pay_obs(i, recipient=f"acct-{i}")
                               for i in (1, 2, 3)], licensed)
    indet = classify_session([pay_obs(1)], licensed)
    ok_kinds = (third.service_kind == KIND_THIRD_PARTY
                and fourth.service_kind == KIND_FOURTH_PARTY
                and indet.service_kind == KIND_INDETERMINATE)

    fixture = ([PaymentClassification(f"r{i}", KIND_FOURTH_PARTY,
                                      "ThirdPartyRail") for i in range(31)]
               + [PaymentClassification(f"b{i}", KIND_FOURTH_PARTY,
                                        "BankTransfer") for i in range(11)]
               + [PaymentClassification(f"d{i}", KIND_FOURTH_PARTY,
                                        "DigitalCurrency") for i in range(4)]
               + [PaymentClassification(f"u{i}", KIND_FOURTH_PARTY,
                                        "Unknown") for i in range(1)])
    rows, _ = channel_breakdown(fixture)
    by = {ch: p for ch, _, p in rows}
    ok_pct = (by["ThirdPartyRail"] == 65.96 and by["BankTransfer"] == 23.40
              and by["DigitalCurrency"] == 8.51)
    verdict(9, ok_kinds and ok_pct,
            "three classification scenarios pass; 31/11/4 of 47 -> "
            "65.96% / 23.40% / 8.51%")


def test_criterion_10_property_suites():
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q",
         str(Path(__file__).parent / "test_properties.py")],
        capture_output=True, text=True)
    elapsed = time.perf_counter() - t0
    verdict(10, proc.returncode == 0 and elapsed < 60.0,
            f"six generative suites (>=500 cases each) green in {elapsed:.1f}s")
