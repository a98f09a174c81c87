"""Association graph construction.

A pair of samples becomes an edge carrying the rules that fire on it.
Each sample is posted under blocking keys in one table per rule, and
each rule is decided from the keys of its own table that a pair shares,
so only pairs that share a key are looked at:

- Signature: an equal developer fingerprint, or a shared ``k``-subset of
  the non-blank ``(DN field, stripped value)`` pairs, which is exactly
  ``k`` or more equal non-blank fields (``k = MIN_SIGNATURE_FIELD_MATCHES``).
- Url: the number of registrable-domain postings a pair shares is
  ``|a & b|``, so the overlap coefficient comes from that count as
  ``overlap`` computes it, without intersecting the sets.
- SharedIp: a shared resolved IP.
- Snapshot: a pair within Hamming distance ``d`` agrees exactly on at
  least one of ``d + 1`` blocks of the 64-bit dHash (pigeonhole;
  ``d = SNAPSHOT_MAX_BITS``). A shared block makes a pair only a
  candidate: this is the one rule checked again, by popcount.

Keys in different tables never meet, so a domain equal to an IP or a DN
value links nothing. ``fired_rules`` in ``rules.py`` is the per-pair
reference these decisions agree with. Groups are the connected
components of the edge set, so the output is independent of input
ordering.
"""

from __future__ import annotations

from collections import Counter, defaultdict, deque
from dataclasses import dataclass
from itertools import chain, combinations, product
from json.encoder import encode_basestring_ascii as _quote

from apktriage.apkcore.certs import DN_FIELDS
from apktriage.assoc.features import SampleFeatures
from apktriage.assoc.rules import (MIN_SIGNATURE_FIELD_MATCHES, RULE_SHARED_IP,
                                   RULE_SIGNATURE, RULE_SNAPSHOT, RULE_URL,
                                   SNAPSHOT_MAX_BITS, URL_OVERLAP_THRESHOLD,
                                   assoc_snapshot)


class DuplicateSampleId(ValueError):
    """Two or more samples share an id; an input error."""


@dataclass(frozen=True)
class AssociationGraph:
    nodes: tuple[str, ...]  # sorted sample ids
    edges: tuple[tuple[str, str, tuple[str, ...]], ...]  # (a, b, rules), a < b
    groups: tuple[tuple[str, ...], ...]  # connected components, each sorted


def _components(nodes, adj) -> tuple[tuple[str, ...], ...]:
    seen: set[str] = set()
    comps = []
    for n in sorted(nodes):
        if n in seen:
            continue
        comp = {n}
        queue = deque([n])
        seen.add(n)
        while queue:
            u = queue.popleft()
            for v in adj.get(u, ()):
                if v not in seen:
                    seen.add(v)
                    comp.add(v)
                    queue.append(v)
        comps.append(tuple(sorted(comp)))
    comps.sort(key=lambda c: (-len(c), c[0]))
    return tuple(comps)


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


def _signature_keys(s: SampleFeatures) -> list:
    """The fingerprint (a str) and every k-subset of the non-blank,
    stripped DN pairs (tuples), so the two kinds of key never collide."""
    sig = s.developer_signature
    if sig is None:
        return []
    dn = [(f, v) for f in DN_FIELDS if (v := sig.dn_fields.get(f, "").strip())]
    return [sig.fingerprint, *combinations(dn, MIN_SIGNATURE_FIELD_MATCHES)]


def _fired_pairs(ordered: list[SampleFeatures]) -> list[tuple[int, int, tuple[str, ...]]]:
    """(i, j, rules) for every index pair i < j on which a rule fires."""
    by_sig, by_dom, by_ip, by_snap = (defaultdict(list) for _ in range(4))
    n_domains: list[int] = []
    fired = []
    for j, s in enumerate(ordered):
        domains = s.url_set.domains
        snap_keys = {(b, (v.hash_bits >> lo) & mask) for v in s.fingerprints
                     for b, (lo, mask) in enumerate(_SNAPSHOT_BLOCKS)}
        sig_p = [by_sig[k] for k in _signature_keys(s)]
        dom_p = [by_dom[d] for d in domains]
        ip_p = [by_ip[ip] for ip in s.resolved_ips]
        snap_p = [by_snap[k] for k in snap_keys]
        # earlier samples only: j joins its postings after they are read
        sig_hits = set().union(*sig_p)
        shared_domains = Counter(chain.from_iterable(dom_p))
        ip_hits = set().union(*ip_p)
        snap_cands = set().union(*snap_p)
        for posting in chain(sig_p, dom_p, ip_p, snap_p):
            posting.append(j)
        n = len(domains)
        n_domains.append(n)
        url_hits = {i for i, c in shared_domains.items()
                    if c / min(n_domains[i], n) >= URL_OVERLAP_THRESHOLD}
        snap_hits = {i for i in snap_cands if assoc_snapshot(ordered[i], s)}
        fired.extend((i, j, _RULES[i in sig_hits, i in url_hits, i in ip_hits, i in snap_hits])
                     for i in sig_hits | url_hits | ip_hits | snap_hits)
    fired.sort()
    return fired


def build_graph(samples: list[SampleFeatures]) -> AssociationGraph:
    dupes = sorted(i for i, n in Counter(s.sample_id for s in samples).items() if n > 1)
    if dupes:
        raise DuplicateSampleId("duplicate sample ids: " + ", ".join(dupes))

    ordered = sorted(samples, key=lambda s: s.sample_id)
    nodes = tuple(s.sample_id for s in ordered)
    edges = []
    adj: dict[str, set[str]] = {n: set() for n in nodes}
    for i, j, rules in _fired_pairs(ordered):
        a, b = nodes[i], nodes[j]
        edges.append((a, b, rules))
        adj[a].add(b)
        adj[b].add(a)
    return AssociationGraph(nodes=nodes, edges=tuple(edges),
                            groups=_components(nodes, adj))


def _array(parts, indent: int) -> str:
    """A JSON array of already-encoded items, laid out as ``indent=2``
    lays it out at ``indent`` columns; ``[]`` when empty."""
    if not parts:
        return "[]"
    inner = "\n" + " " * (indent + 2)
    return "[" + inner + ("," + inner).join(parts) + "\n" + " " * indent + "]"


def graph_to_json(g: AssociationGraph) -> str:
    """The graph as ``json.dumps(obj, sort_keys=True, indent=2) + "\\n"``
    would write ``{"edges": [{"a", "b", "rules"}], "groups", "nodes"}``.

    The shape is fixed and every leaf is a string, so the layout is written
    directly: ``json.dumps`` runs its pure-Python encoder whenever
    ``indent`` is set. Strings go through the stdlib's C escaper, and each
    distinct rule tuple is formatted once."""
    rules_json: dict[tuple[str, ...], str] = {}
    edges = []
    for a, b, rules in g.edges:
        r = rules_json.get(rules)
        if r is None:
            r = rules_json[rules] = _array(list(map(_quote, rules)), 6)
        edges.append(f'{{\n      "a": {_quote(a)},\n      "b": {_quote(b)},'
                     f'\n      "rules": {r}\n    }}')
    groups = [_array(list(map(_quote, c)), 4) for c in g.groups]
    nodes = list(map(_quote, g.nodes))
    return (f'{{\n  "edges": {_array(edges, 2)},\n  "groups": {_array(groups, 2)},'
            f'\n  "nodes": {_array(nodes, 2)}\n}}\n')
