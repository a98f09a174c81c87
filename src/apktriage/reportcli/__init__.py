from apktriage.reportcli.aggregate import (
    CorpusReport,
    category_distribution,
    corpus_report,
    corpus_table,
    generator_stats,
    paradigm_stats,
    permission_aggregate,
)
from apktriage.reportcli.emit import IoFailure, emit_report
from apktriage.reportcli.taxonomy import (
    BEHAVIOR_FLAGS,
    SUB_BY_NAME,
    SUB_CATEGORIES,
    TACTICS,
    TOP_CATEGORIES,
    TaxonomyLabel,
    read_labels_jsonl,
    validate_label,
)

__all__ = [
    "CorpusReport", "category_distribution", "corpus_report", "corpus_table",
    "generator_stats", "paradigm_stats", "permission_aggregate",
    "IoFailure", "emit_report",
    "BEHAVIOR_FLAGS", "SUB_BY_NAME", "SUB_CATEGORIES", "TACTICS",
    "TOP_CATEGORIES", "TaxonomyLabel", "read_labels_jsonl", "validate_label",
]
