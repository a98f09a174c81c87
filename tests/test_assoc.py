"""Association rules, blocked graph construction and group statistics."""

import io
import json
import random
from collections import deque
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apktriage.apkcore.certs import (CLASS_DEBUG, CLASS_DEVELOPER,
                                     CLASS_GENERATOR, DN_FIELDS, SignerIdentity)
from apktriage.assoc.features import SampleFeatures, features_from_json
from apktriage.assoc.graph import AssociationGraph, DuplicateSampleId, build_graph, graph_to_json
from apktriage.assoc.rules import SNAPSHOT_MAX_BITS, fired_rules, overlap
from apktriage.assoc.stats import GroupRow, group_stats

import dhash_oracle


def make_sample(sid, dn=None, fingerprint=None, domains=(),
                resolved_ips=(), hashes=(), label=None, sig_class=CLASS_DEVELOPER):
    sig = None
    if dn is not None or fingerprint is not None:
        sig = SignerIdentity(
            fingerprint=fingerprint or f"fp-{sid}",
            dn_fields=dn or {},
            signature_class=sig_class)
    return SampleFeatures(
        sample_id=sid,
        signature=sig,
        domains=frozenset(domains),
        resolved_ips=frozenset(resolved_ips),
        fingerprints=tuple(hashes),
        label=label)


FULL_DN = {"commonName": "A", "organization": "B", "locality": "C",
           "country": "CN"}


class TestRules:
    def test_signature_fingerprint_equality(self):
        a = make_sample("a", fingerprint="same")
        b = make_sample("b", fingerprint="same")
        assert "Signature" in fired_rules(a, b)

    def test_signature_dn_fields(self):
        a = make_sample("a", dn=FULL_DN)
        b = make_sample("b", dn=dict(FULL_DN, commonName="Z"))
        # 3 equal non-blank fields >= MIN_SIGNATURE_FIELD_MATCHES
        assert "Signature" in fired_rules(a, b)
        c = make_sample("c", dn={"commonName": "A", "organization": "B"})
        assert "Signature" not in fired_rules(a, c)

    def test_blank_fields_never_match(self):
        blank = {"commonName": "", "organization": " ", "locality": "",
                 "country": ""}
        a = make_sample("a", dn=blank)
        b = make_sample("b", dn=blank)
        assert "Signature" not in fired_rules(a, b)

    def test_debug_signature_excluded(self):
        a = make_sample("a", dn=FULL_DN, fingerprint="same",
                        sig_class=CLASS_DEBUG)
        b = make_sample("b", dn=FULL_DN, fingerprint="same",
                        sig_class=CLASS_DEBUG)
        assert "Signature" not in fired_rules(a, b)

    def test_url_overlap_coefficient(self):
        a = make_sample("a", domains={"x.com", "y.com", "z.com"})
        b = make_sample("b", domains={"x.com", "y.com", "w.com", "v.com"})
        # |inter| / min = 2/3 < 0.7
        assert "Url" not in fired_rules(a, b)
        c = make_sample("c", domains={"x.com", "y.com", "z.com", "q.com"})
        # 3/3 = 1.0 >= 0.7
        assert "Url" in fired_rules(a, c)

    def test_shared_ip(self):
        a = make_sample("a", resolved_ips={"47.74.14.254"})
        b = make_sample("b", resolved_ips={"47.74.14.254", "1.2.3.4"})
        assert "SharedIp" in fired_rules(a, b)

    def test_snapshot_threshold(self):
        a = make_sample("a", hashes=[0])
        b = make_sample("b", hashes=[0b111])  # 3 differing bits: sim 61/64
        assert "Snapshot" in fired_rules(a, b)
        c = make_sample("c", hashes=[(1 << 20) - 1])  # 20 bits differ
        assert "Snapshot" not in fired_rules(a, c)
        # the best-matching pair of fingerprints decides
        d = make_sample("d", hashes=[(1 << 20) - 1, 0b11])
        assert "Snapshot" in fired_rules(c, d) and "Snapshot" in fired_rules(a, d)

    def test_rules_symmetric(self):
        a = make_sample("a", dn=FULL_DN, domains={"x.com"},
                        resolved_ips={"1.1.1.1"}, hashes=[5])
        b = make_sample("b", dn=FULL_DN, domains={"x.com"},
                        resolved_ips={"1.1.1.1"}, hashes=[5])
        assert fired_rules(a, b) == fired_rules(b, a)

    def test_overlap_metric(self):
        a, b = frozenset("abc"), frozenset("abcd")
        assert overlap(a, b) == 1.0
        assert overlap(frozenset(), b) == 0.0


class TestGraph:
    def _chain(self):
        # A-B by signature, B-C by shared IP, D isolated
        a = make_sample("A", fingerprint="s1")
        b = make_sample("B", fingerprint="s1", resolved_ips={"9.9.9.9"})
        c = make_sample("C", resolved_ips={"9.9.9.9"})
        d = make_sample("D")
        return [a, b, c, d]

    def test_chain_components(self):
        g = build_graph(self._chain())
        assert ("A", "B", ("Signature",)) in g.edges
        assert ("B", "C", ("SharedIp",)) in g.edges
        assert g.groups[0] == ("A", "B", "C")
        assert ("D",) in g.groups

    def test_order_invariance(self):
        samples = self._chain()
        g1 = build_graph(samples)
        g2 = build_graph(list(reversed(samples)))
        assert g1 == g2

    def test_duplicate_ids_rejected(self):
        with pytest.raises(DuplicateSampleId):
            build_graph([make_sample("X"), make_sample("X")])

    def test_seed_neighborhood(self):
        g = build_graph(self._chain())
        assert seed_neighborhood(g, "A", 1) == ("A", "B")
        assert seed_neighborhood(g, "A", 2) == ("A", "B", "C")
        with pytest.raises(KeyError):
            seed_neighborhood(g, "nope", 1)

    def test_graph_json_deterministic(self):
        g = build_graph(self._chain())
        assert graph_json(g) == graph_json(build_graph(self._chain()))


def graph_json(g):
    """What ``graph_to_json`` writes to a text file."""
    buf = io.StringIO()
    graph_to_json(g, buf)
    return buf.getvalue()


def stdlib_graph_json(g):
    """Oracle for ``graph_to_json``: the stdlib encoder on the same object."""
    obj = {"nodes": list(g.nodes),
           "edges": [{"a": a, "b": b, "rules": list(rules)} for a, b, rules in g.edges],
           "groups": [list(c) for c in g.groups]}
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


RULE_SETS = [rules for k in range(1, 5)
             for rules in combinations(("Signature", "Url", "SharedIp", "Snapshot"), k)]
# quotes, backslashes, control and non-ASCII characters all take escapes
SAMPLE_ID_ST = st.text(st.sampled_from('a"\\/\b\f\n\r\t\x00\x1f\x7f\xe9\u2028\U0001f600')
                       | st.characters(), max_size=6)


@st.composite
def graph_st(draw):
    nodes = tuple(sorted(draw(st.sets(SAMPLE_ID_ST, max_size=8))))
    pairs = list(combinations(nodes, 2))
    edges = tuple((a, b, draw(st.sampled_from(RULE_SETS)))
                  for a, b in sorted(draw(st.sets(st.sampled_from(pairs))) if pairs else ()))
    groups = tuple(tuple(c) for c in draw(st.lists(
        st.lists(st.sampled_from(nodes)) if nodes else st.just([]), max_size=4)))
    return AssociationGraph(nodes=nodes, edges=edges, groups=groups)


class TestGraphJson:
    @settings(max_examples=300, deadline=None)
    @given(graph_st())
    def test_matches_stdlib_encoder(self, g):
        assert graph_json(g) == stdlib_graph_json(g)

    def test_empty_graph(self):
        g = AssociationGraph(nodes=(), edges=(), groups=())
        assert graph_json(g) == stdlib_graph_json(g)
        assert graph_json(g) == '{\n  "edges": [],\n  "groups": [],\n  "nodes": []\n}\n'

    def test_every_rule_subset(self):
        assert len(RULE_SETS) == 15
        nodes = tuple(f"s{i:02d}" for i in range(16))
        g = AssociationGraph(
            nodes=nodes,
            edges=tuple((nodes[0], nodes[i + 1], rules) for i, rules in enumerate(RULE_SETS)),
            groups=(nodes,))
        assert graph_json(g) == stdlib_graph_json(g)


def all_pairs_edges(samples):
    """Reference edge list: fired_rules on every pair, in sorted (a, b) order."""
    ordered = sorted(samples, key=lambda s: s.sample_id)
    return tuple((x.sample_id, y.sample_id, rules)
                 for i, x in enumerate(ordered) for y in ordered[i + 1:]
                 if (rules := fired_rules(x, y)))


RANDOMS = st.randoms(use_true_random=False)


@st.composite
def near_duplicate_st(draw, bases, d):
    """A base hash with 0, d, d + 1 or d + 2 bits flipped: either at
    random, or one bit at the first or last position of each block of an
    even split into as many blocks as there are flips, so every block of
    a split into fewer blocks differs."""
    base = draw(st.sampled_from(bases))
    flips = min(64, draw(st.sampled_from([0, d, d + 1, d + 2])))
    edge = draw(st.sampled_from([None, 0, 1]))
    if edge is None:
        bits = draw(RANDOMS).sample(range(64), flips)
    else:
        bits = [64 * (i + edge) // flips - edge for i in range(flips)]
    for bit in bits:
        base ^= 1 << bit
    return base


@st.composite
def dn_variant_st(draw, base):
    """The base DN with each value kept, padded with whitespace, blanked
    or replaced, so stripped values match where raw values differ and a
    pair shares fewer than, exactly or more than k = 3 fields."""
    rng = draw(RANDOMS)
    return {f: rng.choice([v, v, f" {v}", f"{v} ", f"\t{v} ", "", "  ", "B"])
            for f, v in base.items()}


DN_BASE_ST = st.dictionaries(st.sampled_from(DN_FIELDS),
                             st.sampled_from(["A", "C", "", " "]), min_size=2)
SIG_CLASS_ST = st.sampled_from([CLASS_DEVELOPER, CLASS_DEVELOPER, CLASS_DEVELOPER,
                                CLASS_DEBUG, CLASS_GENERATOR])
DOMAINS_ST = st.frozensets(st.sampled_from(["a.com", "b.com", "c.net", "d.org"]),
                           max_size=3)
IPS_ST = st.frozensets(st.sampled_from(["10.0.0.1", "10.0.0.2", "10.0.0.3"]),
                       max_size=2)
NOTHING = st.just(None)


def workload_shaped_corpus(rng, d=SNAPSHOT_MAX_BITS):
    """500 samples shaped like the benchmark's association corpus: two
    dense groups whose members share DN triples and, mostly, one
    fingerprint; domain sets overlapping by exactly 7 of 10 (fires) and
    2 of 3 (does not); shared IPs; and hashes 0, d or d + 1 bits from a
    few bases, flipped at random or one to a block of an even split, so
    that d flips leave a single block of the d + 1 unchanged."""
    pool_ips = [f"10.1.0.{i}" for i in range(40)]
    bases = [rng.getrandbits(64) for _ in range(4)]

    def near(base):
        flips = rng.choice([0, d, d + 1])
        bits = (rng.sample(range(64), flips) if rng.random() < 0.5
                else [64 * i // flips for i in range(flips)])
        for bit in bits:
            base ^= 1 << bit
        return base

    def extras():
        return dict(resolved_ips=set(rng.sample(pool_ips, 1)) if rng.random() < 0.15 else (),
                    hashes=[near(rng.choice(bases))] if rng.random() < 0.2 else
                    [rng.getrandbits(64)] if rng.random() < 0.3 else [])

    samples = []
    for g in range(2):
        dn = {f: f"{f}-{g}" for f in DN_FIELDS[:5]}
        for m in range(120):
            member_dn = {f: v if rng.random() < 0.7 else rng.choice(["", " ", f" {v}", "x"])
                         for f, v in dn.items()}
            samples.append(make_sample(
                f"g{g}-{m:03d}", dn=member_dn,
                fingerprint=f"group-{g}" if rng.random() < 0.7 else None,
                domains={f"g{g}-{rng.randrange(12)}.com" for _ in range(rng.randint(1, 4))},
                **extras()))
    ten = [f"t{i}.net" for i in range(13)]
    samples += [make_sample("u7of10-a", domains=ten[:10]),
                make_sample("u7of10-b", domains=ten[:7] + ten[10:]),
                make_sample("u2of3-a", domains=["p.org", "q.org", "r.org"]),
                make_sample("u2of3-b", domains=["p.org", "q.org", "s.org", "z.org"])]
    while len(samples) < 500:
        i = len(samples)
        sig_class = rng.choice([CLASS_DEVELOPER, CLASS_DEBUG])
        samples.append(make_sample(
            f"s{i:03d}", fingerprint=rng.choice(["debug", None, None]), sig_class=sig_class,
            domains=set(rng.sample(ten, rng.choice([3, 10]))) if rng.random() < 0.3
            else {f"own{i}.com"},
            **extras()))
    rng.shuffle(samples)
    return samples


class TestBlocking:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_blocked_edges_match_all_pairs(self, data):
        # each link kind is on or off for the whole corpus, so pairs linked
        # by one kind alone are common
        on = data.draw(st.fixed_dictionaries(
            {k: st.booleans() for k in ("dn", "fp", "dom", "ip", "snap")}))
        dn_base = data.draw(DN_BASE_ST)
        bases = data.draw(st.lists(
            st.integers(min_value=0, max_value=(1 << 64) - 1),
            min_size=1, max_size=2))
        row = st.tuples(
            dn_variant_st(dn_base) | NOTHING if on["dn"] else NOTHING,
            st.sampled_from(["f1", "f2"]) | NOTHING if on["fp"] else NOTHING,
            SIG_CLASS_ST,
            DOMAINS_ST if on["dom"] else st.just(()),
            IPS_ST if on["ip"] else st.just(()),
            st.lists(near_duplicate_st(bases, SNAPSHOT_MAX_BITS), max_size=2)
            if on["snap"] else st.just(()))
        samples = [make_sample(f"s{i}", dn=dn, fingerprint=fp, sig_class=cls,
                               domains=doms, resolved_ips=ips, hashes=hashes)
                   for i, (dn, fp, cls, doms, ips, hashes)
                   in enumerate(data.draw(st.lists(row, min_size=2, max_size=10)))]
        assert build_graph(samples).edges == all_pairs_edges(samples)

    def test_workload_shaped_corpus_matches_all_pairs(self):
        samples = workload_shaped_corpus(random.Random(1606))
        assert len(samples) == 500
        edges = build_graph(samples).edges
        assert edges == all_pairs_edges(samples)
        # every kind of link the corpus plants is among the edges
        assert {r for _, _, rules in edges for r in rules} == {
            "Signature", "Url", "SharedIp", "Snapshot"}
        assert ("u7of10-a", "u7of10-b", ("Url",)) in edges
        assert not any(a == "u2of3-a" and b == "u2of3-b" for a, b, _ in edges)

    def test_key_kinds_never_meet(self):
        # one string as a fingerprint, a domain, a resolved IP and a DN
        # value: no two samples share a key of one kind
        v = "10.0.0.1"
        samples = [make_sample("fp", fingerprint=v),
                   make_sample("dn", dn={"commonName": v, "organization": v,
                                         "locality": v}),
                   make_sample("dom", domains={v}),
                   make_sample("ip", resolved_ips={v})]
        assert build_graph(samples).edges == all_pairs_edges(samples) == ()

    def test_padded_dn_fields_link(self):
        # equal once stripped, different raw: the DN keys must be stripped
        a = make_sample("a", dn={"commonName": " A", "organization": "B ",
                                 "locality": "C", "country": " "})
        b = make_sample("b", dn={"commonName": "A", "organization": "\tB",
                                 "locality": " C ", "country": ""})
        assert build_graph([a, b]).edges == (("a", "b", ("Signature",)),)

    # the paper's similarity threshold and the exact similarity of d = 6
    # differing bits both admit d = 6 bits and no more
    @pytest.mark.parametrize("t,d", [(0.9, 6), (1.0 - 6 / 64.0, 6)])
    def test_snapshot_pair_at_max_distance_is_an_edge(self, t, d):
        assert SNAPSHOT_MAX_BITS == d
        # d flipped bits, one in each block of a d-block split, so only
        # d + 1 blocks find the pair; one more bit puts it out of range
        near = sum(1 << (64 * i // d) for i in range(d))
        far = near | 1 << 63
        assert dhash_oracle.similarity(0, near) >= t
        assert dhash_oracle.similarity(0, far) < t
        samples = [make_sample(sid, hashes=[h])
                   for sid, h in (("a", 0), ("b", near), ("c", far))]
        edges = build_graph(samples).edges
        assert ("a", "b", ("Snapshot",)) in edges
        assert ("a", "c", ("Snapshot",)) not in edges


def brute_components(nodes, edges):
    """Union-find oracle for connected components."""
    parent = {n: n for n in nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        parent[find(a)] = find(b)
    comps = {}
    for n in nodes:
        comps.setdefault(find(n), set()).add(n)
    out = [tuple(sorted(c)) for c in comps.values()]
    out.sort(key=lambda c: (-len(c), c[0]))
    return tuple(out)


def adjacency(nodes, edges):
    """Neighbour sets of an undirected edge list."""
    adj = {n: set() for n in nodes}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    return adj


def bfs_depths(adj, seed, i_max):
    """Hop depth of each node within i_max hops of seed."""
    depths = {seed: 0}
    queue = deque([seed])
    while queue:
        u = queue.popleft()
        if depths[u] >= i_max:
            continue
        for v in adj[u]:
            if v not in depths:
                depths[v] = depths[u] + 1
                queue.append(v)
    return depths


def seed_neighborhood(g, seed, i_max):
    """Samples reachable from a seed within i_max association hops."""
    if seed not in g.nodes:
        raise KeyError(seed)
    adj = adjacency(g.nodes, ((a, b) for a, b, _ in g.edges))
    return tuple(sorted(bfs_depths(adj, seed, i_max)))


def bfs_oracle_edges(nodes, edges, i_max):
    """Reference emission semantics: an edge is emitted when some seed's
    bounded BFS reaches one endpoint at depth < i_max."""
    adj = adjacency(nodes, edges)
    emitted = set()
    for seed in nodes:
        for u, d in bfs_depths(adj, seed, i_max).items():
            if d < i_max:
                for v in adj[u]:
                    emitted.add((min(u, v), max(u, v)))
    return emitted


def random_corpus(rng, n):
    """Random pairwise-rule outcomes realized through shared IPs."""
    names = [f"s{i:02d}" for i in range(n)]
    pair_on = {}
    for i in range(n):
        for j in range(i + 1, n):
            pair_on[(names[i], names[j])] = rng.random() < 0.25
    ips = {name: set() for name in names}
    for (a, b), on in pair_on.items():
        if on:
            ip = f"10.0.{hash((a, b)) % 250}.{rng.randrange(250)}-{a}-{b}"
            ips[a].add(ip)
            ips[b].add(ip)
    samples = [make_sample(name, resolved_ips=ips[name]) for name in names]
    true_edges = [pair for pair, on in pair_on.items() if on]
    return samples, names, true_edges


def test_oracle_equivalence_random_corpora():
    rng = random.Random(1264)
    for trial in range(60):
        n = rng.randint(2, 12)
        samples, names, true_edges = random_corpus(rng, n)
        g = build_graph(samples)
        # exact connected components of the rule relation
        assert g.groups == brute_components(names, true_edges)
        # every sample seeds a bounded BFS, so every fired edge is emitted
        got = {(a, b) for a, b, _ in g.edges}
        for i_max in (1, 2):
            assert got == bfs_oracle_edges(names, true_edges, i_max), \
                f"trial={trial} i_max={i_max}"


def test_long_chain_is_one_group():
    # consecutive samples of a shuffled chain share one resolved IP and no
    # other, so the union-find sees links in an order unrelated to the ids
    names = [f"c{i:04d}" for i in range(5000)]
    chain = names[:]
    random.Random(3001).shuffle(chain)
    ips = {name: set() for name in names}
    for k, (a, b) in enumerate(zip(chain, chain[1:])):
        ips[a].add(f"ip-{k}")
        ips[b].add(f"ip-{k}")
    g = build_graph([make_sample(name, resolved_ips=ips[name]) for name in chain])
    links = [tuple(sorted(pair)) for pair in zip(chain, chain[1:])]
    assert [(a, b) for a, b, _ in g.edges] == sorted(links)
    assert g.groups == brute_components(names, links) == (tuple(names),)


def test_equal_size_groups_come_in_first_id_order():
    # three pairs and a triple linked by shared IPs, given in an order that
    # is neither first-id nor last-id order, and two singletons
    ips = {"b": "1", "y": "1", "a": "2", "z": "2", "c": "3", "d": "3",
           "x": "4", "n": "4", "m": "4"}
    samples = [make_sample(sid, resolved_ips={ip}) for sid, ip in ips.items()]
    samples += [make_sample("e"), make_sample("0")]
    g = build_graph(samples)
    assert g.groups == (("m", "n", "x"), ("a", "z"), ("b", "y"), ("c", "d"), ("0",), ("e",))
    assert g.groups == brute_components(g.nodes, [(a, b) for a, b, _ in g.edges])


class SpyFile:
    """A text file stand-in that keeps each write."""

    def __init__(self):
        self.writes = []

    def write(self, s):
        self.writes.append(s)
        return len(s)


def laid_out(obj, depth):
    """``obj`` as ``json.dumps(indent=2, sort_keys=True)`` lays it out
    ``depth`` levels deep in a document."""
    return json.dumps(obj, indent=2, sort_keys=True).replace("\n", "\n" + "  " * depth)


def test_graph_json_is_written_in_pieces():
    rng = random.Random(3002)
    graphs = [build_graph(random_corpus(rng, rng.randint(2, 12))[0]) for _ in range(40)]
    graphs.append(AssociationGraph(nodes=(), edges=(), groups=()))
    frame = ',\n  "groups": '  # the longest piece of the fixed frame
    for g in graphs:
        spy = SpyFile()
        graph_to_json(g, spy)
        doc = stdlib_graph_json(g)
        assert "".join(spy.writes) == doc
        # each write is at most one edge record or group array with the
        # separator before it, or a piece of the frame: no write holds the
        # document or a whole array of records
        records = [laid_out({"a": a, "b": b, "rules": list(rules)}, 2) for a, b, rules in g.edges]
        records += [laid_out(list(c), 2) for c in g.groups]
        bound = max(map(len, records), default=0) + len(frame)
        assert max(map(len, spy.writes)) <= bound
        assert len(doc) > bound or not g.nodes


class TestGroupStats:
    def test_basic_row(self):
        samples = [make_sample(f"m{i}", fingerprint="shared") for i in range(4)]
        labels = {"m0": "Sex", "m1": "Financial", "m2": "Financial",
                  "m3": {"top": "Gambling"}}
        g = build_graph(samples)
        rows = group_stats(g, labels, corpus_size=8)
        assert rows[0].size == 4
        assert rows[0].corpus_pct == 50.0
        assert rows[0].category_pcts == {"Sex": 25.0, "Gambling": 25.0, "Financial": 50.0,
                                         "Service": 0.0, "AuxiliaryTool": 0.0}

    def test_corpus_size_validation(self):
        g = build_graph([make_sample("a")])
        with pytest.raises(ValueError):
            group_stats(g, {}, corpus_size=0)


def test_features_from_json_reads_every_field():
    obj = {
        "sample_id": "rt",
        "signature": {"fingerprint": "fp1", "dn_fields": FULL_DN,
                      "signature_class": CLASS_DEVELOPER},
        "urls": ["http://x.com/a"], "ip_literals": [], "domains": ["x.com"],
        "resolved_ips": ["1.2.3.4"], "fingerprints": [{"hash": "0000000000003039"}],
        "label": {"top": "Sex"}}
    assert features_from_json(obj) == make_sample(
        "rt", dn=FULL_DN, fingerprint="fp1", domains={"x.com"},
        resolved_ips={"1.2.3.4"}, hashes=[12345], label={"top": "Sex"})
