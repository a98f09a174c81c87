"""Command-line surface tying the toolkit together.

Verbs: scan, assoc, watch, payclass, report. Each setting is a flag.
Exit codes: 0 success, 1 input or usage error, 2 internal error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from contextlib import nullcontext
from datetime import datetime, timedelta, timezone

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INTERNAL = 2


def _iter_apks(path: str):
    if os.path.isdir(path):
        for root, dirs, files in os.walk(path):
            dirs.sort()  # os.walk descends in this order
            for name in sorted(files):
                if name.lower().endswith(".apk"):
                    yield os.path.join(root, name)
    else:
        yield path


# APKs per pool task: enough to spread the pool's cost per task (~0.4 ms
# of the parent's CPU), few enough to keep the workers evenly loaded
_CHUNK = 4
# Domains per pool task: enough to spread each task's store, tick list and
# pickled results, few enough to keep the workers evenly loaded
_WATCH_CHUNK = 32
# Tasks in flight per worker: enough to keep each worker busy while the
# parent writes, few enough that memory does not grow with the corpus.
_TASKS_PER_WORKER = 2

# The reference data of the running scan, loaded once by cmd_scan; forked
# workers inherit it, so none of it is loaded or pickled again.
_refs = None
# The store root, window, cadence, backends and packing times of the
# running watch, set by cmd_watch; forked workers inherit them, and the
# parent drops the backends once it has a first result.
_watch_job = None


def _scan_one(apk_path: str) -> tuple[str, str | None]:
    """The JSONL line of one APK and, when the file is unreadable or not a
    valid APK, the line for stderr; any other exception propagates."""
    from apktriage.apkcore.artifact import open_apk
    from apktriage.apkcore.errors import ApkError
    from apktriage.apkcore.permissions import permission_profile
    from apktriage.extract.paradigm import classify_paradigm
    from apktriage.extract.urls import extract_urls, filter_whitelist
    from apktriage.genscan.ciphers import KeyUnavailable
    from apktriage.genscan.content import decrypt_assets
    from apktriage.genscan.fingerprints import detect_generator

    fingerprints, dangerous, suffixes, whitelist, known_signatures = _refs
    try:
        with open(apk_path, "rb") as f:
            apk = open_apk(f.read(), known_signatures)
        match = detect_generator(apk, fingerprints)
        decrypted = None
        if match is not None and match.fingerprint.cipher.algo is not None:
            try:
                decrypted = decrypt_assets(apk, match).decrypted
            except KeyUnavailable:
                pass
        urls = extract_urls(apk, suffixes, decrypted)
        if whitelist:
            urls = filter_whitelist(urls, whitelist, suffixes)
        paradigm = classify_paradigm(apk, match)
        profile = (permission_profile(apk.manifest, dangerous)
                   if apk.manifest else None)
    except (ApkError, OSError) as exc:
        # one bad or unreadable file costs its own record, never the
        # rest of the run
        return (json.dumps({"path": apk_path, "error_kind": type(exc).__name__,
                            "error": str(exc)}, sort_keys=True) + "\n",
                f"error: {apk_path}: {exc}")
    rec = {
        "sample_id": apk.sample_id,
        "path": apk_path,
        "package": apk.package_name,
        "manifest_valid": apk.manifest is not None,
        "manifest_mtime": apk.manifest_mtime.isoformat(),
        "generator": match.generator_id if match else None,
        "generator_confidence": match.confidence if match else None,
        "paradigm": paradigm,
        "urls": sorted(urls.urls),
        "domains": sorted(urls.domains),
        "ip_literals": sorted(urls.ip_literals),
        "permissions": {
            "dangerous": profile.dangerous_count,
            "normal": profile.normal_count,
            "all": profile.all_count,
        } if profile else None,
        "signers": [
            {"fingerprint": s.fingerprint,
             "class": s.signature_class,
             "completeness": s.completeness}
            for s in apk.signers
        ],
    }
    return json.dumps(rec, sort_keys=True) + "\n", None


def _scan_task(apk_paths):
    return map(_scan_one, apk_paths)


def _run_task(task, items) -> tuple[list, Exception | None]:
    """task's results for items up to the first exception, and that
    exception (or None), so that the results before it still count."""
    results = []
    try:
        for result in task(items):
            results.append(result)
    except Exception as exc:  # re-raised by the parent, in input order
        return results, exc
    return results, None


def _in_tasks(task, items, size):
    """The results of task over tasks of ``size`` items, in input order.
    Tasks go to one worker per usable CPU, but to no more workers than
    tasks. One worker runs task on all the items in this process; more
    run in a pool that the generator's close shuts down. An exception
    that task raises is raised again after the results before it."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    items = iter(items)
    # the fewest items that show whether there is a task for every CPU
    head = list(itertools.islice(items, (cpus - 1) * size + 1))
    workers = (len(head) + size - 1) // size
    items = itertools.chain(head, items)
    if workers < 2:
        # in this process, without importing the pool (~35 ms cold)
        yield from task(items)
        return

    import gc
    import multiprocessing
    from collections import deque
    from concurrent.futures import ProcessPoolExecutor

    # fork, so that the workers inherit the running verb's state; the
    # executor forks every worker before it starts a thread. Each worker
    # freezes what it inherited, so its collections never traverse (and
    # copy on write) the parent's objects.
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                               initializer=gc.freeze)
    try:
        chunks = iter(lambda: list(itertools.islice(items, size)), [])
        window = deque(pool.submit(_run_task, task, chunk)
                       for chunk in itertools.islice(chunks, _TASKS_PER_WORKER * workers))
        while window:
            future = window.popleft()
            chunk = next(chunks, None)
            if chunk is not None:
                window.append(pool.submit(_run_task, task, chunk))
            results, exc = future.result()
            yield from results
            if exc is not None:
                raise exc
    finally:
        pool.shutdown(cancel_futures=True)


def cmd_scan(args) -> int:
    from apktriage.apkcore.certs import load_known_signatures
    from apktriage.apkcore.permissions import load_dangerous_db
    from apktriage.extract.psl import load_suffix_list
    from apktriage.extract.urls import load_whitelist
    from apktriage.genscan.fingerprints import load_fingerprints
    from apktriage.reportcli.emit import open_output

    global _refs
    refs = (load_fingerprints(args.fingerprint_db),
            load_dangerous_db(args.dangerous_permission_file),
            load_suffix_list(args.suffix_list),
            load_whitelist(args.whitelist) if args.whitelist else frozenset(),
            load_known_signatures())

    failed = 0
    _refs = refs
    results = _in_tasks(_scan_task, _iter_apks(args.input), _CHUNK)
    try:
        with open_output(args.output) if args.output else nullcontext(sys.stdout) as out:
            for line, error in results:
                if error is not None:
                    failed += 1
                    print(error, file=sys.stderr)
                out.write(line)
    finally:
        results.close()
        _refs = None
    return EXIT_INPUT if failed else EXIT_OK


def cmd_assoc(args) -> int:
    from apktriage.assoc.features import read_features_jsonl
    from apktriage.assoc.graph import build_graph, graph_to_json
    from apktriage.assoc.stats import group_stats, group_table
    from apktriage.reportcli.emit import emit_report, open_output

    features = read_features_jsonl(args.features)
    graph = build_graph(features)
    with open_output(args.output + ".graph.json") as f:
        graph_to_json(graph, f)
    corpus_size = len(features) if args.corpus_size is None else args.corpus_size
    labels = {s.sample_id: s.label for s in features if s.label}
    emit_report(args.output, *group_table(group_stats(graph, labels, corpus_size)))
    return EXIT_OK


def _watch_outcome(t):
    """The lifespan record of timeline t (None without probes) and its
    binding summary."""
    from apktriage.infrawatch.bindings import binding_summary
    from apktriage.infrawatch.lifespan import lifespan

    _root, window, _cadence, _backends, mtimes = _watch_job
    record = lifespan(t, mtimes.get(t.domain, window.start)) if t.probes else None
    return record, binding_summary(t)


def _watch_task(domains):
    """(domain, _watch_outcome) of each domain, in order, after schedule
    runs them with a store of their own."""
    from apktriage.infrawatch.schedule import schedule
    from apktriage.infrawatch.timeline import TimelineStore

    root, window, cadence, backends, _mtimes = _watch_job
    watched = schedule(domains, window, cadence, *backends, TimelineStore(root))
    return [(d, _watch_outcome(t)) for d, t in watched.items()]


def cmd_watch(args) -> int:
    from apktriage.infrawatch.backends import (DnsResolver, HttpProber, ScriptedProber,
                                               ScriptedResolver, ScriptedWhois)
    from apktriage.infrawatch.bindings import classify_segments
    from apktriage.infrawatch.lifespan import lifespan_table
    from apktriage.infrawatch.schedule import Window
    from apktriage.infrawatch.timeline import TimelineStore
    from apktriage.reportcli.emit import _json_string, _write, emit_report
    from apktriage.util import list_file_entries, read_json

    def scripted(script):
        if type(script) is not dict:
            raise ValueError("must be a JSON object")
        return (ScriptedResolver(script.get("resolutions", {})),
                ScriptedProber(script.get("probes", {})),
                ScriptedWhois(script.get("whois", {})))

    window = Window(start=_parse_ts(args.window_start), end=_parse_ts(args.window_end))
    try:
        cadence = timedelta(days=args.cadence_days)
    except OverflowError:  # beyond timedelta's 999999999 days
        raise ValueError(f"--cadence-days {args.cadence_days} is out of range") from None
    with open(args.domains, encoding="utf-8") as f:
        domains = list_file_entries(f)
    if args.script:
        backends = read_json(args.script, scripted)
    else:
        backends = DnsResolver(), HttpProber(), None
    mtimes = read_json(args.manifest_mtimes, _timestamps) if args.manifest_mtimes else {}

    store = TimelineStore(args.store)
    domains = sorted(set(domains))
    for d in domains:  # every name, before any tick
        store.path(d)
    global _watch_job
    _watch_job = (args.store, window, cadence, backends, mtimes)
    backends = None
    try:
        results = _in_tasks(_watch_task, domains, _WATCH_CHUNK)
        watched = dict(itertools.islice(results, 1))
        # every worker has forked, or serially every tick has run: the
        # parent drops the backends and the script they hold
        _watch_job = (args.store, window, cadence, None, mtimes)
        watched.update(results)
        # sorted store order, kept by the lifespan rows and classify_segments' sums
        outcomes = {d: watched[d] if d in watched else _watch_outcome(store.load(d))
                    for d in store.domains()}
    finally:
        _watch_job = None
    records = [record for record, _summary in outcomes.values() if record is not None]
    emit_report(args.output + ".lifespan", *lifespan_table(records))
    _kinds, summary = classify_segments({d: s for d, (_r, s) in outcomes.items()})
    _write(args.output + ".bindings.json", _json_string(summary))
    return EXIT_OK


def cmd_payclass(args) -> int:
    from apktriage.payclass.sessions import (channel_breakdown, classify_session,
                                             load_licensed_db, read_observations_jsonl)
    from apktriage.reportcli.emit import _json_string, _write

    licensed = load_licensed_db(args.licensed_db)
    sessions = read_observations_jsonl(args.observations)
    classifications = [classify_session(obs, licensed)
                       for _sid, obs in sorted(sessions.items())]
    rows, notice = channel_breakdown(classifications)
    result = {
        "sessions": [{"session_id": c.session_id, "service_kind": c.service_kind,
                      "channel": c.channel, "evidence": list(c.evidence)}
                     for c in classifications],
        "fourth_party_channels": [
            {"channel": ch, "count": n, "percent": p} for ch, n, p in rows],
        "notice": notice,
    }
    text = _json_string(result)
    if args.output:
        _write(args.output, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_report(args) -> int:
    from apktriage.reportcli.aggregate import corpus_report, corpus_table
    from apktriage.reportcli.emit import emit_report
    from apktriage.reportcli.taxonomy import read_labels_jsonl, validate_label

    labels = read_labels_jsonl(args.labels)
    bad = {l.sample_id: v for l in labels if (v := validate_label(l))}
    if bad and not args.ignore_invalid:
        for sample, violations in sorted(bad.items()):
            print(f"invalid label {sample}: {'; '.join(violations)}",
                  file=sys.stderr)
        return EXIT_INPUT
    emit_report(args.output, *corpus_table(corpus_report(labels)))
    return EXIT_OK


def _timestamps(obj) -> dict[str, datetime]:
    if type(obj) is not dict or not all(type(v) is str for v in obj.values()):
        raise ValueError("must be a JSON object of timestamp strings")
    return {k: _parse_ts(v) for k, v in obj.items()}


def _parse_ts(value) -> datetime:
    """An aware timestamp (UTC when no offset is given) that has a UTC form."""
    ts = datetime.fromisoformat(str(value))
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    try:
        ts.astimezone(timezone.utc)
    except OverflowError:
        raise ValueError(f"{value}: out of range in UTC") from None
    return ts


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="apktriage",
        description="Static analysis and infrastructure monitoring for "
                    "profit-motivated fraud Android apps.")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("scan", help="parse APKs, detect generators, extract URLs")
    p.add_argument("input", help="APK file or directory")
    p.add_argument("--output", help="JSONL output (default stdout)")
    p.add_argument("--fingerprint-db")
    p.add_argument("--whitelist")
    p.add_argument("--suffix-list")
    p.add_argument("--dangerous-permission-file")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("assoc", help="build the developer-association graph")
    p.add_argument("features", help="features JSONL from prior analysis")
    p.add_argument("--output", required=True, help="output base path")
    p.add_argument("--corpus-size", type=int,
                   help="group-table denominator (default: number of samples)")
    p.set_defaults(func=cmd_assoc)

    p = sub.add_parser("watch", help="run or resume remote-server monitoring")
    p.add_argument("domains", help="file with one domain per line")
    p.add_argument("--store", required=True, help="timeline store directory")
    p.add_argument("--output", required=True, help="output base path")
    p.add_argument("--window-start", required=True)
    p.add_argument("--window-end", required=True)
    p.add_argument("--cadence-days", type=int, default=1)
    p.add_argument("--script", help="scripted backend JSON (offline runs)")
    p.add_argument("--manifest-mtimes", help="JSON map domain -> packing timestamp")
    p.set_defaults(func=cmd_watch)

    p = sub.add_parser("payclass", help="classify payment sessions")
    p.add_argument("observations", help="payment observations JSONL")
    p.add_argument("--licensed-db")
    p.add_argument("--output")
    p.set_defaults(func=cmd_payclass)

    p = sub.add_parser("report", help="aggregate labels into a corpus report")
    p.add_argument("labels", help="taxonomy labels JSONL")
    p.add_argument("--output", required=True, help="output base path")
    p.add_argument("--ignore-invalid", action="store_true")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed the usage or the help
        return EXIT_OK if exc.code == 0 else EXIT_INPUT
    try:
        return args.func(args)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
