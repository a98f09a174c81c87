from apktriage.assoc.features import (
    SampleFeatures,
    features_from_json,
    read_features_jsonl,
)
from apktriage.assoc.graph import (
    AssociationGraph,
    DuplicateSampleId,
    build_graph,
    graph_to_json,
)
from apktriage.assoc.rules import (
    assoc_signature,
    assoc_snapshot,
    fired_rules,
    overlap,
    shared_ip,
)
from apktriage.assoc.stats import GroupRow, group_stats, group_table

__all__ = [
    "SampleFeatures", "features_from_json", "read_features_jsonl",
    "AssociationGraph", "DuplicateSampleId", "build_graph", "graph_to_json",
    "assoc_signature", "assoc_snapshot",
    "fired_rules", "overlap", "shared_ip",
    "GroupRow", "group_stats", "group_table",
]
