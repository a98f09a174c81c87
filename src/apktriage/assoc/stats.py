"""Ranked group statistics over an association graph."""

from __future__ import annotations

from dataclasses import dataclass

from apktriage.assoc.graph import AssociationGraph
from apktriage.reportcli.taxonomy import TOP_CATEGORIES, top_of
from apktriage.util import pct


@dataclass(frozen=True)
class GroupRow:
    rank: int
    size: int
    corpus_pct: float  # size / corpus_size, 2 decimals
    category_counts: dict[str, int]
    category_pcts: dict[str, float]  # in-group, 1 decimal
    members: tuple[str, ...]


def group_stats(g: AssociationGraph, labels: dict, corpus_size: int) -> list[GroupRow]:
    """Groups sorted by size descending, Table-style composition columns."""
    if corpus_size < len(g.nodes):
        raise ValueError("corpus_size smaller than the graph's node count")
    rows = []
    ordered = sorted(g.groups, key=lambda c: (-len(c), c[0]))
    for rank, comp in enumerate(ordered, start=1):
        counts = {c: 0 for c in TOP_CATEGORIES}
        for sid in comp:
            top = top_of(labels.get(sid))
            if top in counts:
                counts[top] += 1
        rows.append(GroupRow(
            rank=rank,
            size=len(comp),
            corpus_pct=pct(len(comp), corpus_size, 2),
            category_counts=counts,
            category_pcts={c: pct(n, len(comp), 1) for c, n in counts.items()},
            members=comp,
        ))
    return rows


def group_table(rows):
    """(header, rows, mirror) of group rows: Rank, Apps (with corpus
    percentage), then one column per top category."""
    header = ["Rank", "Apps"] + list(TOP_CATEGORIES)
    table = [[r.rank, f"{r.size} ({r.corpus_pct}%)"]
             + [f"{r.category_pcts.get(c, 0.0)}%" for c in TOP_CATEGORIES]
             for r in sorted(rows, key=lambda r: r.rank)]
    mirror = [{"rank": r.rank, "size": r.size, "corpus_pct": r.corpus_pct,
               "category_pcts": dict(r.category_pcts),
               "members": list(r.members)} for r in rows]
    return header, table, mirror
