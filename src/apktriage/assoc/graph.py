"""Association graph construction.

A pair of samples becomes an edge carrying the rules that fire on it.
``fired_rules`` is evaluated only on candidate pairs: samples that share
at least one blocking key. Each rule implies a shared key, so blocking
loses no edge:

- Signature: equal developer fingerprints, or at least ``k`` equal
  non-blank DN fields, which means a shared ``k``-subset of
  ``(field, stripped value)`` pairs (``k = MIN_SIGNATURE_FIELD_MATCHES``).
- Url: an overlap above 0 needs a shared registrable domain.
- SharedIp: a shared resolved IP.
- Snapshot: a pair within Hamming distance ``d`` agrees exactly on at
  least one of ``d + 1`` blocks of the 64-bit dHash (pigeonhole;
  ``d = SNAPSHOT_MAX_BITS``).

Groups are the connected components of the edge set, so the output is
independent of input ordering. ``seed_neighborhood`` gives the samples
within ``i_max`` hops of one seed.
"""

from __future__ import annotations

from collections import Counter, defaultdict, deque
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import combinations
from json.encoder import encode_basestring_ascii as _quote

from apktriage.apkcore.certs import DN_FIELDS
from apktriage.assoc.features import SampleFeatures
from apktriage.assoc.rules import (MIN_SIGNATURE_FIELD_MATCHES, SNAPSHOT_MAX_BITS,
                                   fired_rules)


class DuplicateSampleId(ValueError):
    """Two or more samples share an id; an input error."""


@dataclass(frozen=True)
class AssociationGraph:
    nodes: tuple[str, ...]  # sorted sample ids
    edges: tuple[tuple[str, str, tuple[str, ...]], ...]  # (a, b, rules), a < b
    groups: tuple[tuple[str, ...], ...]  # connected components, each sorted

    def adjacency(self) -> dict[str, set[str]]:
        adj: dict[str, set[str]] = {n: set() for n in self.nodes}
        for a, b, _ in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        return adj


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


def _blocking_keys(s: SampleFeatures) -> set:
    """One key per way a rule could fire for s (see the module docstring)."""
    keys = set()
    sig = s.developer_signature
    if sig is not None:
        keys.add(("fp", sig.fingerprint))
        dn = [(f, v) for f in DN_FIELDS if (v := sig.dn_fields.get(f, "").strip())]
        keys.update(("dn", c)
                    for c in combinations(dn, MIN_SIGNATURE_FIELD_MATCHES))
    keys.update(("dom", d) for d in s.url_set.domains)
    keys.update(("ip", ip) for ip in s.resolved_ips)
    keys.update(("snap", i, (v.hash_bits >> lo) & mask)
                for v in s.fingerprints for i, (lo, mask) in enumerate(_SNAPSHOT_BLOCKS))
    return keys


def _candidate_pairs(ordered: list[SampleFeatures]) -> Iterator[tuple[int, int]]:
    """Yield index pairs (i, j), i < j, of samples sharing a blocking key."""
    postings: dict[tuple, list[int]] = defaultdict(list)
    for j, s in enumerate(ordered):
        earlier: set[int] = set()
        for key in _blocking_keys(s):
            posting = postings[key]
            earlier.update(posting)
            posting.append(j)
        for i in earlier:
            yield i, j


def build_graph(samples: list[SampleFeatures]) -> AssociationGraph:
    dupes = sorted(i for i, n in Counter(s.sample_id for s in samples).items() if n > 1)
    if dupes:
        raise DuplicateSampleId("duplicate sample ids: " + ", ".join(dupes))

    ordered = sorted(samples, key=lambda s: s.sample_id)
    nodes = tuple(s.sample_id for s in ordered)
    edges = []
    adj: dict[str, set[str]] = {n: set() for n in nodes}
    fired = sorted((i, j, rules) for i, j in _candidate_pairs(ordered)
                   if (rules := fired_rules(ordered[i], ordered[j])))
    for i, j, rules in fired:
        a, b = nodes[i], nodes[j]
        edges.append((a, b, rules))
        adj[a].add(b)
        adj[b].add(a)
    return AssociationGraph(nodes=nodes, edges=tuple(edges),
                            groups=_components(nodes, adj))


def seed_neighborhood(g: AssociationGraph, seed: str, i_max: int) -> tuple[str, ...]:
    """Samples reachable from a seed within i_max association hops."""
    if seed not in g.nodes:
        raise KeyError(seed)
    adj = g.adjacency()
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
    return tuple(sorted(depths))


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
