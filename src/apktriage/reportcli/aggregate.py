"""Corpus-level aggregation: category distribution, paradigm/generator
usage, and permission averages shaped like a per-category table."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from apktriage.reportcli.taxonomy import TOP_CATEGORIES, top_of
from apktriage.util import round_half_up

PLACES = 2           # decimal places of percentages and permission means
FRACTION_PLACES = 4  # decimal places of the hybrid and generator-usage fractions


@dataclass(frozen=True)
class CorpusReport:
    n: int
    category_distribution: dict            # top -> (count, percentage)
    paradigm: dict = field(default_factory=dict)       # hybrid fraction + counts
    generator_usage: dict = field(default_factory=dict)
    permission_averages: dict = field(default_factory=dict)
    notices: tuple[str, ...] = ()


def category_distribution(labels) -> dict:
    """Per-top counts as percentages of the corpus, 2 decimals.

    A label without a known top counts in the corpus size only.
    Percentages use largest-remainder allocation so the rounded values
    sum to the half-up rounded share of labels with a known top, exactly
    100 when every label has one; on ties the plain half-up value survives.
    """
    if not labels:
        raise ValueError("no labels supplied")
    counts = Counter(top_of(label) for label in labels)
    n = len(labels)
    tops = [top for top in TOP_CATEGORIES if counts[top]]
    unit = 10 ** PLACES
    exact = {top: counts[top] * 100 * unit / n for top in tops}
    floored = {top: int(exact[top]) for top in tops}
    known = sum(counts[top] for top in tops)
    # the known tops' total share rounded half up; 100 * unit when all are known
    target = (2 * known * 100 * unit + n) // (2 * n)
    shortfall = target - sum(floored.values())
    for top in sorted(tops, key=lambda t: (floored[t] - exact[t], t))[:shortfall]:
        floored[top] += 1
    return {top: (counts[top], floored[top] / unit) for top in tops}


def permission_aggregate(profiles):
    """Per-top-category and total means of (dangerous, normal, all)
    permission counts.

    `profiles` maps sample_id -> (PermissionProfile, TaxonomyLabel or top
    name). Empty categories are omitted and listed in the notices.
    """
    if not profiles:
        raise ValueError("no permission profiles supplied")
    buckets: dict[str, list] = {top: [] for top in TOP_CATEGORIES}
    everything = []
    for profile, label in profiles.values():
        top = top_of(label)
        if top not in buckets:
            raise ValueError(f"unknown top category {top!r}")
        buckets[top].append(profile)
        everything.append(profile)

    def means(items):
        k = len(items)
        return (
            round_half_up(sum(p.dangerous_count for p in items) / k, PLACES),
            round_half_up(sum(p.normal_count for p in items) / k, PLACES),
            round_half_up(sum(p.all_count for p in items) / k, PLACES),
        )

    rows = {top: means(items) for top, items in buckets.items() if items}
    rows["Total"] = means(everything)
    notices = tuple(f"category {top} has no samples; row omitted"
                    for top in TOP_CATEGORIES if not buckets[top])
    return rows, notices


def paradigm_stats(paradigms) -> dict:
    """Fraction of hybrid apps over classified samples."""
    counts = Counter(paradigms)
    total = sum(counts.values())
    hybrid = counts.get("Hybrid", 0)
    return {
        "total": total,
        "hybrid": hybrid,
        "native": counts.get("Native", 0),
        "hybrid_fraction": round_half_up(hybrid / total, FRACTION_PLACES) if total else 0.0,
    }


def generator_stats(matches, total: int) -> dict:
    """Per-generator breakdown plus the overall usage fraction.

    `matches` is an iterable of GeneratorMatch or None (no generator)."""
    counts = Counter(m.generator_id for m in matches if m is not None)
    used = sum(counts.values())
    return {
        "total": total,
        "with_generator": used,
        "usage_fraction": round_half_up(used / total, FRACTION_PLACES) if total else 0.0,
        "per_generator": dict(sorted(counts.items(),
                                     key=lambda kv: (-kv[1], kv[0]))),
    }


def corpus_table(report: CorpusReport):
    """(header, rows, mirror) of a corpus report: the category
    distribution as CSV rows, every field in the JSON mirror."""
    header = ["Category", "Count", "Percent"]
    rows = [[top, count, p]
            for top, (count, p) in report.category_distribution.items()]
    mirror = {
        "n": report.n,
        "category_distribution": {
            top: {"count": c, "percent": p}
            for top, (c, p) in report.category_distribution.items()},
        "paradigm": report.paradigm,
        "generator_usage": report.generator_usage,
        "permission_averages": {
            top: {"dangerous": d, "normal": n, "all": a}
            for top, (d, n, a) in report.permission_averages.items()},
        "notices": list(report.notices),
    }
    return header, rows, mirror


def corpus_report(labels, paradigms=(), generator_matches=(),
                  permission_profiles=None) -> CorpusReport:
    dist = category_distribution(labels)
    perm, notices = (permission_aggregate(permission_profiles)
                     if permission_profiles else ({}, ()))
    return CorpusReport(
        n=len(labels),
        category_distribution=dist,
        paradigm=paradigm_stats(paradigms) if paradigms else {},
        generator_usage=(generator_stats(generator_matches, len(labels))
                         if generator_matches else {}),
        permission_averages=perm,
        notices=notices,
    )
