"""Metric names, units and better-direction; BENCHMARK.json lists the same.

End-to-end metrics come from untraced runs (--trace 0) and per-layer
metrics from traced runs (--trace 1). A per-layer metric a workload does
not exercise reads 0 there.
"""

# (name, unit, better, bound as a share of the parent's median)
END_TO_END = (
    ("items_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("setup_s", "s", "lower", 0.25),
)


LAYERS = ("apkcore", "genscan", "extract", "assoc", "infrawatch", "payclass", "reportcli")


def _timed(*names):
    return tuple((name, "s", "lower") for name in names)


# (name, unit, better)
PER_LAYER = (
    # verb level, from the untraced passes of a traced run
    ("scan_apks_per_s", "1/s", "higher"),
    ("assoc_wall_s", "s", "lower"),
    ("report_rows_per_s", "1/s", "higher"),
    ("payclass_obs_per_s", "1/s", "higher"),
    ("watch_fresh_ticks_per_s", "1/s", "higher"),
    ("watch_resume_ticks_per_s", "1/s", "higher"),
    ("failed_fraction", "frac", "lower"),
    # apkcore
    *_timed("apkcore.list_entries.s", "apkcore.read_entry.s"),
    ("apkcore.read_entry.bytes_out", "bytes", "lower"),
    *_timed("apkcore.parse_manifest.s", "apkcore.extract_signers.s",
            "apkcore.open_apk.self_s", "apkcore.permission_profile.s"),
    ("apkcore.load_known_signatures.calls", "count", "lower"),
    # genscan
    *((f"genscan.decrypt.{algo}.{key}", unit, "lower")
      for algo in ("RC4", "TEA", "AES_CBC", "DES_CBC")
      for key, unit in (("s", "s"), ("bytes", "bytes"))),
    *_timed("genscan.decrypt_assets.self_s"),
    ("genscan.decrypt.ok_entries", "count", "higher"),
    ("genscan.decrypt.failed_entries", "count", "lower"),
    *_timed("genscan.detect_generator.s"),
    ("genscan.detect_generator.hits", "count", "higher"),
    *_timed("genscan.load_fingerprints.s"),
    # extract
    *_timed("extract.extract_urls.self_s"),
    ("extract.registrable.calls", "count", "lower"),
    *_timed("extract.registrable.s", "extract.filter_whitelist.s",
            "extract.classify_paradigm.s"),
    ("extract.urls_per_sample", "count", "higher"),
    # assoc
    *_timed("assoc.read_features_jsonl.s"),
    ("assoc.fired_rules.calls", "count", "lower"),
    *_timed("assoc.fired_rules.s"),
    ("assoc.fired_rules.fired", "frac", "higher"),
    *_timed("assoc.build_graph.self_s", "assoc.group_stats.s", "assoc.graph_to_json.s"),
    ("assoc.edges", "count", "higher"),
    ("assoc.groups", "count", "higher"),
    # infrawatch
    ("infrawatch.store.append.calls", "count", "lower"),
    *_timed("infrawatch.store.append.s"),
    ("infrawatch.monitor_tick.calls", "count", "lower"),
    *_timed("infrawatch.monitor_tick.self_s", "infrawatch.schedule.self_s"),
    ("infrawatch.store.load.calls", "count", "lower"),
    *_timed("infrawatch.store.load.s", "infrawatch.lifespan.s",
            "infrawatch.classify_bindings.s"),
    ("infrawatch.gaps", "count", "lower"),
    # payclass
    *_timed("payclass.read_observations_jsonl.s"),
    ("payclass.classify_session.calls", "count", "lower"),
    *_timed("payclass.classify_session.s", "payclass.channel_breakdown.s"),
    # reportcli
    *_timed("reportcli.read_labels_jsonl.s", "reportcli.validate_label.s",
            "reportcli.corpus_report.s", "reportcli.emit_report.s",
            "reportcli.cmd_scan.self_s"),
    ("reportcli.cmd_scan.item_ms.p50", "ms", "lower"),
    ("reportcli.cmd_scan.item_ms.p95", "ms", "lower"),
    ("reportcli.cmd_scan.items", "count", "higher"),
    # self time per layer, and how much of the traced wall time they cover
    *_timed(*(f"layer.{layer}.self_s" for layer in LAYERS)),
    ("trace.self_coverage", "frac", "higher"),
    ("trace.overhead_frac", "frac", "lower"),
)
