"""Planted-truth checks: compare each verb's output files with what the
generator planted. Every checker returns (attempted, failed, problems),
where an operation is one unit of the verb's output (an APK record, a
sample's group, a category count, a session, a domain-tick, ...).
The oracle is ``truth.json`` alone, never an earlier run of the program.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from datetime import datetime

TOP_CATEGORIES = ("Sex", "Gambling", "Financial", "Service", "AuxiliaryTool")
SCAN_FIELDS = ("sample_id", "package", "generator", "urls", "domains", "ip_literals")


def _read_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def _result(attempted: int, problems: list[str], failed: int | None = None):
    failed = len(problems) if failed is None else failed
    return attempted, min(failed, attempted), problems


def check_scan(output: str, truth: dict):
    expected = truth["apks"]
    problems, seen = [], Counter()
    with open(output, encoding="utf-8") as f:
        records = [json.loads(line) for line in f if line.strip()]
    for rec in records:
        name = os.path.basename(rec.get("path", ""))
        seen[name] += 1
        want = expected.get(name)
        if want is None:
            problems.append(f"unexpected record {name!r}")
            continue
        for field in SCAN_FIELDS:
            if rec.get(field) != want[field]:
                problems.append(f"{name}: {field} {rec.get(field)!r} != {want[field]!r}")
                break
        else:
            signers = [s.get("fingerprint") for s in rec.get("signers", ())]
            if signers != [want["signer"]]:
                problems.append(f"{name}: signers {signers} != {[want['signer']]}")
            elif want.get("wrong_key") and set(want["protected_urls"]) & set(rec["urls"]):
                problems.append(f"{name}: wrong-key sample leaked protected endpoints")
    for name in expected:
        if seen[name] != 1:
            problems.append(f"{name}: {seen[name]} records, want 1")
    return _result(len(expected), problems)


def check_assoc(base: str, truth: dict):
    planted = {sid: frozenset(g) for g in truth["groups"] for sid in g}
    graph = _read_json(base + ".graph.json")
    found = {sid: frozenset(g) for g in graph["groups"] for sid in g}
    problems = [f"sample {sid[:12]}: group of {len(found.get(sid, ()))}, "
                f"planted {len(g)}" for sid, g in planted.items() if found.get(sid) != g]
    rows = _read_json(base + ".json")
    sizes = sorted((r["size"] for r in rows), reverse=True)
    want = sorted((len(g) for g in truth["groups"]), reverse=True)
    if sizes != want:
        problems.append(f"group table sizes differ from planted groups ({len(sizes)} rows)")
    return _result(len(planted), problems)


def check_report(base: str, truth: dict):
    report = _read_json(base + ".json")
    if report.get("n") != truth["labels"]:
        return _result(len(TOP_CATEGORIES), [f"n={report.get('n')} != {truth['labels']}"],
                       failed=len(TOP_CATEGORIES))
    dist = report.get("category_distribution", {})
    problems = []
    for top in TOP_CATEGORIES:
        got = dist.get(top, {}).get("count", 0)
        if got != truth["label_counts"].get(top, 0):
            problems.append(f"{top}: count {got} != {truth['label_counts'].get(top, 0)}")
    return _result(len(TOP_CATEGORIES), problems)


def check_payclass(output: str, truth: dict):
    want = truth["sessions"]
    got = {s["session_id"]: s for s in _read_json(output)["sessions"]}
    problems = []
    for sid, planted in want.items():
        s = got.get(sid)
        if s is None:
            problems.append(f"session {sid[:12]} missing")
        elif (s["service_kind"], s["channel"]) != (planted["kind"], planted["channel"]):
            problems.append(f"session {sid[:12]}: {s['service_kind']}/{s['channel']} "
                            f"!= {planted['kind']}/{planted['channel']}")
    return _result(len(want), problems)


# ---------------------------------------------------------------------------
# watch


def _store_ts(iso: str) -> str:
    return iso[:10] + "T00:00:00Z"


def planted_event(tick) -> str:
    """'gap', 'alive' or 'dead' for one planted [ips, status] tick."""
    ips, status = tick
    if ips == "gap" or (ips is not None and status == "gap"):
        return "gap"
    return "alive" if ips is not None and status < 500 else "dead"


def planted_lifespan(truth: dict, domain: str, n_ticks: int):
    """(end iso, end kind, days) over the first n ticks, or None when the
    domain was never probed."""
    days = truth["days"][:n_ticks]
    events = [planted_event(t) for t in truth["plan"][domain][:n_ticks]]
    probes = [(d, e) for d, e in zip(days, events) if e != "gap"]
    if not probes:
        return None
    alive = [d for d, e in probes if e == "alive"]
    if not alive:
        end, kind = probes[0][0], "DeadBeforeFirstInspection"
    elif probes[-1][1] == "alive":
        end, kind = probes[-1][0], "StillAliveAtWindowEnd"
    else:
        end, kind = alive[-1], "ObservedDeath"
    start = truth["packed"][domain]
    span = datetime.fromisoformat(end) - datetime.fromisoformat(start)
    return end, kind, max(int(span.total_seconds()) // 86400, 0)


def planted_bindings(truth: dict, n_ticks: int) -> dict:
    ips = {d: {ip for t in ticks[:n_ticks] if isinstance(t[0], list) for ip in t[0]}
           for d, ticks in truth["plan"].items()}
    owners = Counter(ip for s in ips.values() for ip in s)
    flexible = [d for d, s in ips.items() if len(s) >= 2]
    type1 = sum(1 for d in flexible if any(owners[ip] > 1 for ip in ips[d]))
    return {"domains": len(ips), "fixed": len(ips) - len(flexible),
            "flexible": len(flexible), "type1": type1, "type2": len(flexible) - type1}


def check_watch_output(base: str, truth: dict, n_ticks: int):
    """Lifespan rows and binding summary after an invocation covering the
    first n ticks of the window."""
    problems, attempted = [], 0
    rows = {r["domain"]: r for r in _read_json(base + ".lifespan.json")}
    for domain in truth["plan"]:
        want = planted_lifespan(truth, domain, n_ticks)
        if want is None:
            if domain in rows:
                problems.append(f"{domain}: lifespan row for a never-probed domain")
            continue
        attempted += 1
        r = rows.get(domain)
        got = r and (r["end"], r["end_kind"], r["days"])
        if got != want:
            problems.append(f"{domain}: lifespan {got} != {want}")
    summary = _read_json(base + ".bindings.json")
    for key, value in planted_bindings(truth, n_ticks).items():
        attempted += 1
        if summary.get(key) != value:
            problems.append(f"bindings {key}: {summary.get(key)} != {value}")
    return _result(attempted, problems)


def check_watch_store(store: str, truth: dict, n_ticks: int):
    """Exactly one probe or gap per domain-tick, matching the plan."""
    problems, attempted = [], 0
    for domain, ticks in truth["plan"].items():
        events: dict[str, list[str]] = {}
        path = os.path.join(store, domain.replace("/", "_") + ".jsonl")
        with open(path, encoding="utf-8") as f:
            for line in f:
                rec = json.loads(line)
                if rec["kind"] == "probe":
                    kind = "alive" if rec["payload"]["alive"] else "dead"
                elif rec["kind"] == "gap":
                    kind = "gap"
                else:
                    continue
                events.setdefault(rec["ts"], []).append(kind)
        for day, tick in zip(truth["days"][:n_ticks], ticks):
            attempted += 1
            got = events.pop(_store_ts(day), [])
            if got != [planted_event(tick)]:
                problems.append(f"{domain} {day[:10]}: {got} != {[planted_event(tick)]}")
        if events:
            attempted += 1
            problems.append(f"{domain}: events outside the window {sorted(events)}")
    return _result(attempted, problems)


def check_invocation(inv: dict, truth: dict):
    """Dispatch on the invocation's verb."""
    verb, out = inv["verb"], inv["output"]
    if verb == "scan":
        return check_scan(out, truth)
    if verb == "assoc":
        return check_assoc(out, truth)
    if verb == "report":
        return check_report(out, truth)
    if verb == "payclass":
        return check_payclass(out, truth)
    if verb in ("watch-fresh", "watch-resume"):
        a1, f1, p1 = check_watch_output(out, truth, inv["ticks"])
        a2, f2, p2 = check_watch_store(inv["store"], truth, inv["ticks"])
        return a1 + a2, f1 + f2, p1 + p2
    raise ValueError(f"no checker for {verb!r}")


def expected_operations(inv: dict, truth: dict) -> int:
    """Operations an invocation would have been checked on; all of them
    fail when it exits non-zero."""
    verb = inv["verb"]
    if verb == "scan":
        return len(truth["apks"])
    if verb == "assoc":
        return sum(len(g) for g in truth["groups"])
    if verb == "report":
        return len(TOP_CATEGORIES)
    if verb == "payclass":
        return len(truth["sessions"])
    n = inv["ticks"]
    probed = sum(1 for d in truth["plan"] if planted_lifespan(truth, d, n) is not None)
    return len(truth["plan"]) * n + probed + 5
