"""Association graph construction.

Every pair of samples is tested against the pairwise rules; a pair for
which at least one rule fires becomes an edge carrying those rules.
Groups are the connected components of the edge set, so the output is
independent of input ordering. ``i_max = 0`` disables association (no
edges, every sample its own group); ``seed_neighborhood`` gives the
samples within ``i_max`` hops of one seed.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass

from apktriage.assoc.features import SampleFeatures
from apktriage.assoc.rules import AssocConfig, fired_rules


class DuplicateSampleId(Exception):
    pass


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


def build_graph(samples: list[SampleFeatures], cfg: AssocConfig) -> AssociationGraph:
    ids = [s.sample_id for s in samples]
    if len(set(ids)) != len(ids):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        raise DuplicateSampleId(", ".join(dupes))

    ordered = sorted(samples, key=lambda s: s.sample_id)
    nodes = tuple(s.sample_id for s in ordered)
    edges = []
    adj: dict[str, set[str]] = {n: set() for n in nodes}
    if cfg.i_max >= 1:
        for i, x in enumerate(ordered):
            for y in ordered[i + 1:]:
                rules = fired_rules(x, y, cfg)
                if rules:
                    edges.append((x.sample_id, y.sample_id, rules))
                    adj[x.sample_id].add(y.sample_id)
                    adj[y.sample_id].add(x.sample_id)
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


def graph_to_json(g: AssociationGraph) -> str:
    obj = {
        "nodes": list(g.nodes),
        "edges": [{"a": a, "b": b, "rules": list(rules)} for a, b, rules in g.edges],
        "groups": [list(c) for c in g.groups],
    }
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"
