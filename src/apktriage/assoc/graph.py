"""Association graph construction.

A pair of samples becomes an edge carrying the rules that fire on it.
Each sample is posted under blocking keys in one table per rule, and
each rule is decided from the keys of its own table that a pair shares,
so only pairs that share a key are looked at:

- Signature: an equal developer fingerprint, or ``k`` or more equal
  non-blank ``(DN field, stripped value)`` pairs
  (``k = MIN_SIGNATURE_FIELD_MATCHES``). A sample is posted under its
  fingerprint and its distinct DN tuple. Which distinct DNs share ``k``
  fields is worked out once per DN, when it first appears: through a
  shared ``k``-subset, which exists exactly when ``k`` fields are equal.
- Url: the number of registrable-domain postings a pair shares is
  ``|a & b|``, so the overlap coefficient comes from that count as
  ``overlap`` computes it, without intersecting the sets.
- SharedIp: a shared resolved IP.
- Snapshot: a pair within Hamming distance ``d`` agrees exactly on at
  least one of ``d + 1`` blocks of the 64-bit dHash (pigeonhole;
  ``d = SNAPSHOT_MAX_BITS``). A shared block makes a pair only a
  candidate: this is the one rule checked again, by popcount of the
  XOR of the two hashes, which each block posting holds next to the
  sample.

Keys in different tables never meet, so a domain equal to an IP or a DN
value links nothing. ``fired_rules`` in ``rules.py`` is the per-pair
reference these decisions agree with. Groups are the connected
components of the edge set, found by union-find over the fired pairs,
so the output is independent of input ordering. Nothing built here holds
a cycle, so ``build_graph`` runs with the cyclic garbage collector
paused.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import chain, combinations, product
from json.encoder import encode_basestring_ascii as _quote

from apktriage.apkcore.certs import DN_FIELDS
from apktriage.assoc.features import SampleFeatures
from apktriage.assoc.rules import (MIN_SIGNATURE_FIELD_MATCHES, RULE_SHARED_IP,
                                   RULE_SIGNATURE, RULE_SNAPSHOT, RULE_URL,
                                   SNAPSHOT_MAX_BITS, URL_OVERLAP_THRESHOLD)
from apktriage.util import gc_paused


class DuplicateSampleId(ValueError):
    """Two or more samples share an id; an input error."""


@dataclass(frozen=True)
class AssociationGraph:
    nodes: tuple[str, ...]  # sorted sample ids
    edges: tuple[tuple[str, str, tuple[str, ...]], ...]  # (a, b, rules), a < b
    # connected components, each sorted, by size descending then first id
    groups: tuple[tuple[str, ...], ...]


def _snapshot_blocks(d: int) -> list[tuple[int, int]]:
    """(shift, mask) of the d + 1 near-equal blocks of a 64-bit hash."""
    bounds = [64 * i // (d + 1) for i in range(d + 2)]
    return [(lo, (1 << (hi - lo)) - 1) for lo, hi in zip(bounds, bounds[1:])]


_SNAPSHOT_BLOCKS = _snapshot_blocks(SNAPSHOT_MAX_BITS)

# the fired rules, in canonical order, for each (Signature, Url, SharedIp,
# Snapshot) combination of hits
_RULES = {hits: tuple(r for r, hit in zip(
    (RULE_SIGNATURE, RULE_URL, RULE_SHARED_IP, RULE_SNAPSHOT), hits) if hit)
    for hits in product((False, True), repeat=4)}


def _dn(s: SampleFeatures):
    """The developer fingerprint and the non-blank, stripped DN pairs, in
    DN_FIELDS order; None without a developer signature."""
    sig = s.developer_signature
    if sig is None:
        return None
    dn = sig.dn_fields
    return sig.fingerprint, tuple((f, v) for f in DN_FIELDS if (v := dn.get(f, "").strip()))


def _link_dn(dn: tuple, dn_links: dict, by_subset: defaultdict) -> list:
    """Record a newly seen distinct DN in ``dn_links``: the distinct DNs
    it shares k or more fields with, itself included, found through the
    k-subsets (``by_subset``) they share; each of those gains it too."""
    subsets = [by_subset[c] for c in combinations(dn, MIN_SIGNATURE_FIELD_MATCHES)]
    links = dn_links[dn] = list(dict.fromkeys(chain.from_iterable(subsets)))
    for other in links:
        dn_links[other].append(dn)
    if subsets:  # fewer than k fields match nothing, itself included
        links.append(dn)
    for posting in subsets:
        posting.append(dn)
    return links


def _fired_rows(ordered: list[SampleFeatures]) -> list[list[tuple[int, tuple[str, ...]]]]:
    """For each index i, (j, rules) for every j > i on which a rule fires,
    in increasing j: the pairs in sorted order, with no sort."""
    by_fp, by_dn, by_dom, by_ip, by_snap, by_subset = (defaultdict(list) for _ in range(6))
    dn_links: dict[tuple, list[tuple]] = {}
    n_domains: list[int] = []
    rows: list[list] = [[] for _ in ordered]
    for j, s in enumerate(ordered):
        sig_p, sig_own = [], ()
        if (signer := _dn(s)) is not None:
            fp, dn = signer
            links = dn_links.get(dn)
            if links is None:
                links = _link_dn(dn, dn_links, by_subset)
            sig_own = by_fp[fp], by_dn[dn]
            sig_p = [by_fp[fp], *(by_dn[d] for d in links)]
        dom_p = [by_dom[d] for d in s.domains]
        ip_p = [by_ip[ip] for ip in s.resolved_ips]
        # earlier samples only: j joins its postings after they are read
        sig_hits = set().union(*sig_p)
        shared_domains = Counter(chain.from_iterable(dom_p))
        ip_hits = set().union(*ip_p)
        snap_hits = set()
        snap_p = []
        for h in set(s.fingerprints):
            for b, (lo, mask) in enumerate(_SNAPSHOT_BLOCKS):
                posting = by_snap[b, (h >> lo) & mask]
                for i, g in posting:
                    if (g ^ h).bit_count() <= SNAPSHOT_MAX_BITS:
                        snap_hits.add(i)
                snap_p.append((posting, h))
        for posting in chain(sig_own, dom_p, ip_p):
            posting.append(j)
        for posting, h in snap_p:
            posting.append((j, h))
        n = len(s.domains)
        n_domains.append(n)
        url_hits = {i for i, c in shared_domains.items()
                    if c / min(n_domains[i], n) >= URL_OVERLAP_THRESHOLD}
        for i in sig_hits | url_hits | ip_hits | snap_hits:
            rows[i].append((j, _RULES[i in sig_hits, i in url_hits, i in ip_hits, i in snap_hits]))
    return rows


def _root(parent: list[int], x: int) -> int:
    """The root of x's set, halving the path on the way."""
    while (up := parent[x]) != x:
        parent[x] = x = parent[up]
    return x


def build_graph(samples: list[SampleFeatures]) -> AssociationGraph:
    with gc_paused():  # postings, pairs and edges hold no cycle
        dupes = sorted(i for i, n in Counter(s.sample_id for s in samples).items() if n > 1)
        if dupes:
            raise DuplicateSampleId("duplicate sample ids: " + ", ".join(dupes))

        ordered = sorted(samples, key=lambda s: s.sample_id)
        nodes = tuple(s.sample_id for s in ordered)
        edges = []
        parent = list(range(len(nodes)))  # union-find over node indices
        rows = _fired_rows(ordered)
        for i, a in enumerate(nodes):
            row, rows[i] = rows[i], None
            root = _root(parent, i)
            for j, rules in row:
                edges.append((a, nodes[j], rules))
                parent[_root(parent, j)] = root
        members: dict[int, list[str]] = {}
        for i, n in enumerate(nodes):  # in node order, so each group is sorted
            members.setdefault(_root(parent, i), []).append(n)
        groups = sorted(map(tuple, members.values()), key=lambda c: (-len(c), c[0]))
    return AssociationGraph(nodes=nodes, edges=tuple(edges), groups=tuple(groups))


def _array_pieces(parts, indent: int):
    """A JSON array of already-encoded items, laid out as ``indent=2``
    lays it out at ``indent`` columns, in pieces of one item each with
    the separator before it; ``[]`` when empty."""
    items = iter(parts)
    first = next(items, None)
    if first is None:
        yield "[]"
        return
    inner = "\n" + " " * (indent + 2)
    yield "[" + inner + first
    for part in items:
        yield "," + inner + part
    yield "\n" + " " * indent + "]"


def _array(parts, indent: int) -> str:
    return "".join(_array_pieces(parts, indent))


def graph_to_json(g: AssociationGraph, f) -> None:
    """Write the graph to the text file ``f`` as ``json.dump(obj, f,
    sort_keys=True, indent=2)`` and a newline would write
    ``{"edges": [{"a", "b", "rules"}], "groups", "nodes"}``.

    The shape is fixed and every leaf is a string, so the layout is written
    directly, one edge record, group or node at a time: ``json`` runs its
    pure-Python encoder whenever ``indent`` is set. Strings go through the
    stdlib's C escaper, each node id once (edges and groups name nodes),
    and each distinct rule tuple is formatted once."""
    quoted = dict(zip(g.nodes, map(_quote, g.nodes)))
    rules_json: dict[tuple[str, ...], str] = {}

    def edge_records():
        for a, b, rules in g.edges:
            r = rules_json.get(rules)
            if r is None:
                r = rules_json[rules] = _array(map(_quote, rules), 6)
            yield (f'{{\n      "a": {quoted[a]},\n      "b": {quoted[b]},'
                   f'\n      "rules": {r}\n    }}')

    groups = (_array([quoted[n] for n in c], 4) for c in g.groups)
    nodes = (quoted[n] for n in g.nodes)
    for head, parts in (('{\n  "edges": ', edge_records()), (',\n  "groups": ', groups),
                        (',\n  "nodes": ', nodes)):
        f.write(head)
        for piece in _array_pieces(parts, 2):
            f.write(piece)
    f.write("\n}\n")
