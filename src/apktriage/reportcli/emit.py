"""Deterministic report emission: RFC-4180 CSV plus a mirrored JSON file.

Identical inputs always produce byte-identical outputs; every writer
sorts its rows and serializes JSON with sorted keys and a fixed layout.
"""

from __future__ import annotations

import csv
import io
import json
import os

from apktriage.assoc.stats import TOP_CATEGORIES as GROUP_CATEGORIES
from apktriage.infrawatch.lifespan import LifespanRecord
from apktriage.reportcli.aggregate import CorpusReport


class IoFailure(OSError):
    """Report files could not be written."""


def _write(path: str, data: str) -> None:
    try:
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="") as f:
            f.write(data)
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def _csv_string(header, rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\r\n")
    w.writerow(header)
    for row in rows:
        w.writerow(row)
    return buf.getvalue()


def _json_string(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, default=str) + "\n"


def group_table(rows):
    """Group rows in the fixed column order: Rank, Apps (with corpus
    percentage), then one column per top category."""
    header = ["Rank", "Apps"] + list(GROUP_CATEGORIES)
    table = []
    for r in sorted(rows, key=lambda r: r.rank):
        table.append(
            [r.rank, f"{r.size} ({r.corpus_pct}%)"]
            + [f"{r.category_pcts.get(c, 0.0)}%" for c in GROUP_CATEGORIES])
    return header, table


def corpus_table(report: CorpusReport):
    header = ["Category", "Count", "Percent"]
    rows = [[top, count, p]
            for top, (count, p) in report.category_distribution.items()]
    return header, rows


def lifespan_table(records):
    header = ["Domain", "Start", "End", "EndKind", "Days"]
    rows = [[r.domain, r.start.isoformat(), r.end.isoformat(), r.end_kind, r.days]
            for r in sorted(records, key=lambda r: r.domain)]
    return header, rows


def _payload(obj):
    if isinstance(obj, CorpusReport):
        header, rows = corpus_table(obj)
        mirror = {
            "n": obj.n,
            "category_distribution": {
                top: {"count": c, "percent": p}
                for top, (c, p) in obj.category_distribution.items()},
            "paradigm": obj.paradigm,
            "generator_usage": obj.generator_usage,
            "permission_averages": {
                top: {"dangerous": d, "normal": n, "all": a}
                for top, (d, n, a) in obj.permission_averages.items()},
            "notices": list(obj.notices),
        }
        return header, rows, mirror
    seq = list(obj)
    if seq and isinstance(seq[0], LifespanRecord):
        header, rows = lifespan_table(seq)
        mirror = [{"domain": r.domain, "start": r.start.isoformat(),
                   "end": r.end.isoformat(), "end_kind": r.end_kind,
                   "days": r.days} for r in sorted(seq, key=lambda r: r.domain)]
        return header, rows, mirror
    if seq and hasattr(seq[0], "rank"):
        header, rows = group_table(seq)
        mirror = [{"rank": r.rank, "size": r.size, "corpus_pct": r.corpus_pct,
                   "category_pcts": dict(r.category_pcts),
                   "members": list(r.members)} for r in seq]
        return header, rows, mirror
    if not seq:
        return ["Rank", "Apps"] + list(GROUP_CATEGORIES), [], []
    raise TypeError(f"cannot emit objects of type {type(seq[0]).__name__}")


def emit_report(obj, out_base: str) -> tuple[str, str]:
    """Write <out_base>.csv and <out_base>.json; returns both paths."""
    header, rows, mirror = _payload(obj)
    csv_path, json_path = out_base + ".csv", out_base + ".json"
    _write(csv_path, _csv_string(header, rows))
    _write(json_path, _json_string(mirror))
    return csv_path, json_path
