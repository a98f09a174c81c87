"""Benchmark child process: runs one workload's CLI invocations in-process,
pass after pass, for a time budget, and writes its measurements as JSON.

    python3 measure.py SPEC --seconds S --trace 0|1 --result OUT

With --trace 0 every pass is untraced and the end-to-end metrics are
reported. With --trace 1 untraced and traced passes alternate: the
untraced ones give the verb-level rates and the per-item latency, the
traced ones the per-layer spans and counters, and the two together the
tracing overhead; the span table of the last traced pass goes into the
result. Each pass's outputs are checked against the planted truth
outside the timed region. Runs in one thread.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
from metrics import LAYERS, PER_LAYER  # noqa: E402

MODULES = (
    "apktriage.apkcore", "apktriage.genscan", "apktriage.extract", "apktriage.assoc",
    "apktriage.infrawatch", "apktriage.payclass", "apktriage.reportcli",
    "apktriage.reportcli.cli",
)


# counter hooks: (counters, call args, result) after a traced call returns

def _bytes_out(counters, args, result):
    counters["apkcore.read_entry.bytes_out"] += len(result)


def _decrypt_bytes(counters, args, result):
    counters[f"genscan.decrypt.{args[0]}.bytes"] += len(args[1])


def _decrypt_entries(counters, args, result):
    counters["genscan.decrypt.ok_entries"] += len(result.decrypted)
    counters["genscan.decrypt.failed_entries"] += len(result.failed)


def _generator_hit(counters, args, result):
    if result is not None:
        counters["genscan.detect_generator.hits"] += 1


def _urls_found(counters, args, result):
    counters["extract.urls"] += len(result.urls)


def _pair_fired(counters, args, result):
    if result:
        counters["assoc.fired_rules.fired_pairs"] += 1


def _graph_size(counters, args, result):
    counters["assoc.edges"] += len(result.edges)
    counters["assoc.groups"] += len(result.groups)


def _gap_appended(counters, args, result):
    if args[2]["kind"] == "gap":
        counters["infrawatch.gaps"] += 1


TARGETS = [
    ("apktriage.apkcore.zipread", "list_entries", "apkcore.list_entries", None),
    ("apktriage.apkcore.zipread", "read_entry", "apkcore.read_entry", _bytes_out),
    ("apktriage.apkcore.manifest", "parse_manifest", "apkcore.parse_manifest", None),
    ("apktriage.apkcore.certs", "extract_signers", "apkcore.extract_signers", None),
    ("apktriage.apkcore.certs", "load_known_signatures", "apkcore.load_known_signatures", None),
    ("apktriage.apkcore.artifact", "open_apk", "apkcore.open_apk", None),
    ("apktriage.apkcore.permissions", "permission_profile", "apkcore.permission_profile", None),
    ("apktriage.genscan.ciphers", "decrypt", lambda a: f"genscan.decrypt.{a[0]}", _decrypt_bytes),
    ("apktriage.genscan.content", "decrypt_assets", "genscan.decrypt_assets", _decrypt_entries),
    ("apktriage.genscan.fingerprints", "detect_generator", "genscan.detect_generator",
     _generator_hit),
    ("apktriage.genscan.fingerprints", "load_fingerprints", "genscan.load_fingerprints", None),
    ("apktriage.extract.urls", "extract_urls", "extract.extract_urls", _urls_found),
    ("apktriage.extract.psl", "SuffixList.registrable", "extract.registrable", None),
    ("apktriage.extract.urls", "filter_whitelist", "extract.filter_whitelist", None),
    ("apktriage.extract.paradigm", "classify_paradigm", "extract.classify_paradigm", None),
    ("apktriage.assoc.features", "read_features_jsonl", "assoc.read_features_jsonl", None),
    ("apktriage.assoc.rules", "fired_rules", "assoc.fired_rules", _pair_fired),
    ("apktriage.assoc.graph", "build_graph", "assoc.build_graph", _graph_size),
    ("apktriage.assoc.stats", "group_stats", "assoc.group_stats", None),
    ("apktriage.assoc.graph", "graph_to_json", "assoc.graph_to_json", None),
    ("apktriage.infrawatch.timeline", "TimelineStore.append", "infrawatch.store.append",
     _gap_appended),
    ("apktriage.infrawatch.timeline", "TimelineStore.load", "infrawatch.store.load", None),
    ("apktriage.infrawatch.schedule", "monitor_tick", "infrawatch.monitor_tick", None),
    ("apktriage.infrawatch.schedule", "schedule", "infrawatch.schedule", None),
    ("apktriage.infrawatch.lifespan", "lifespan", "infrawatch.lifespan", None),
    ("apktriage.infrawatch.bindings", "classify_bindings", "infrawatch.classify_bindings", None),
    ("apktriage.payclass.sessions", "read_observations_jsonl",
     "payclass.read_observations_jsonl", None),
    ("apktriage.payclass.sessions", "classify_session", "payclass.classify_session", None),
    ("apktriage.payclass.sessions", "channel_breakdown", "payclass.channel_breakdown", None),
    ("apktriage.reportcli.taxonomy", "read_labels_jsonl", "reportcli.read_labels_jsonl", None),
    ("apktriage.reportcli.taxonomy", "validate_label", "reportcli.validate_label", None),
    ("apktriage.reportcli.aggregate", "corpus_report", "reportcli.corpus_report", None),
    ("apktriage.reportcli.emit", "emit_report", "reportcli.emit_report", None),
] + [("apktriage.reportcli.cli", f"cmd_{verb}", f"reportcli.cmd_{verb}", None)
     for verb in ("scan", "assoc", "watch", "payclass", "report")]

# invocation verb -> its rate metric (items per second); assoc reports wall time
VERB_METRICS = {
    "scan": "scan_apks_per_s",
    "report": "report_rows_per_s",
    "payclass": "payclass_obs_per_s",
    "watch-fresh": "watch_fresh_ticks_per_s",
    "watch-resume": "watch_resume_ticks_per_s",
}


def _reset(paths) -> None:
    for path in paths:
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path)


class Runner:
    def __init__(self, spec: dict):
        from apktriage.reportcli import cli
        self.cli = cli
        self.spec = spec
        with open(spec["truth"], encoding="utf-8") as f:
            self.truth = json.load(f)
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    def check(self, inv: dict, rc: int) -> None:
        if rc != 0:
            attempted = checks.expected_operations(inv, self.truth)
            failed, problems = attempted, [f"{inv['verb']} exited {rc}"]
        else:
            try:
                attempted, failed, problems = checks.check_invocation(inv, self.truth)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                attempted = checks.expected_operations(inv, self.truth)
                failed, problems = attempted, [f"{inv['verb']} output unreadable: {exc!r}"]
        self.attempted += attempted
        self.failed += failed
        self.problems += problems[:5]

    def run_pass(self, tracer: tracing.Tracer | None = None) -> dict[str, float]:
        """Wall seconds per invocation verb, plus 'pass' for their sum.
        Each traced invocation is one root span; resets and checks lie
        outside both the timer and the spans."""
        walls = {}
        for inv in self.spec["invocations"]:
            _reset(inv["reset"])
            root = tracer.open(tracer.name_id(tracing.ROOT_SPAN)) if tracer else None
            t0 = perf_counter()
            rc = self.cli.main(inv["argv"])
            walls[inv["verb"]] = perf_counter() - t0
            if tracer:
                tracer.close(root)
            self.check(inv, rc)
        walls["pass"] = sum(walls.values())
        return walls

    def warm_up(self) -> None:
        """One-item invocations: finishes imports and lazy set-up."""
        for inv in self.spec["setup"]:
            _reset(inv["reset"])
            self.cli.main(inv["argv"])


def _median_of(dicts: list[dict], key: str) -> float:
    return statistics.median(d.get(key, 0.0) for d in dicts)


def _verb_rates(spec: dict, walls: list[dict]) -> dict[str, float]:
    out = {}
    for inv in spec["invocations"]:
        wall = _median_of(walls, inv["verb"])
        if inv["verb"] == "assoc":
            out["assoc_wall_s"] = wall
        else:
            out[VERB_METRICS[inv["verb"]]] = inv["items"] / wall
    return out


def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_values(agg: dict, counters) -> dict[str, float]:
    """Flatten one traced pass into per-layer metric values."""
    values = {}
    for span, row in agg.items():
        for key in ("calls", "s", "self_s"):
            values[f"{span}.{key}"] = row[key]
    values.update(counters)
    urls_calls = agg.get("extract.extract_urls", {}).get("calls", 0)
    values["extract.urls_per_sample"] = counters["extract.urls"] / urls_calls if urls_calls else 0.0
    pairs = agg.get("assoc.fired_rules", {}).get("calls", 0)
    values["assoc.fired_rules.fired"] = (counters["assoc.fired_rules.fired_pairs"] / pairs
                                         if pairs else 0.0)
    root = agg[tracing.ROOT_SPAN]
    for layer in LAYERS:
        values[f"layer.{layer}.self_s"] = sum(
            row["self_s"] for span, row in agg.items() if span.startswith(layer + "."))
    values["trace.self_coverage"] = 1.0 - root["self_s"] / root["s"]
    return values


def measure(spec: dict, seconds: float, traced: bool) -> dict:
    runner = Runner(spec)
    runner.warm_up()
    deadline = perf_counter() + seconds
    plain_walls, traced_walls, layer_passes, item_s = [], [], [], []
    instr = tracing.Instrumentation(TARGETS)
    if traced:
        cli = runner.cli
        cli._iter_apks = tracing.timed_items(cli._iter_apks, item_s)
    round_s: list[float] = []
    last_trace = None
    while not round_s or perf_counter() + statistics.median(round_s) <= deadline:
        t0 = perf_counter()
        plain_walls.append(runner.run_pass())
        if traced:
            untraced_items = len(item_s)
            tracer = tracing.Tracer()
            instr.install(tracer)
            try:
                traced_walls.append(runner.run_pass(tracer))
            finally:
                instr.uninstall()
            del item_s[untraced_items:]     # latency comes from untraced passes
            agg = tracer.aggregate()
            layer_passes.append(layer_values(agg, tracer.counters))
            last_trace = {"spans": agg, "counters": dict(tracer.counters)}
            del tracer          # frees the span arrays before the next pass
        round_s.append(perf_counter() - t0)

    if not traced:
        metrics = {
            "items_per_s": spec["items"] / _median_of(plain_walls, "pass"),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    else:
        metrics = {name: _median_of(layer_passes, name) for name, _unit, _b in PER_LAYER}
        metrics.update(_verb_rates(spec, plain_walls))
        metrics["trace.overhead_frac"] = (_median_of(traced_walls, "pass")
                                          / _median_of(plain_walls, "pass") - 1.0)
        if item_s:
            metrics["reportcli.cmd_scan.item_ms.p50"] = 1000 * statistics.median(item_s)
            metrics["reportcli.cmd_scan.item_ms.p95"] = 1000 * _percentile(item_s, 0.95)
            metrics["reportcli.cmd_scan.items"] = len(item_s)
    return {"attempted": runner.attempted, "failed": runner.failed,
            "problems": runner.problems[:20], "passes": len(plain_walls),
            "metrics": metrics, "trace": last_trace}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("spec")
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--result", required=True)
    args = p.parse_args(argv)
    with open(args.spec, encoding="utf-8") as f:
        spec = json.load(f)
    for name in MODULES:
        __import__(name)
    result = measure(spec, args.seconds, bool(args.trace))
    with open(args.result, "w", encoding="utf-8") as f:
        json.dump(result, f, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
