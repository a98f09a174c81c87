from apktriage.extract.paradigm import ParadigmLabel, classify_paradigm
from apktriage.extract.psl import SuffixList, load_suffix_list
from apktriage.extract.snapshot import (
    ImageUndecodable,
    VisualFingerprint,
    snapshot_fingerprint,
)
from apktriage.extract.urls import (
    UrlSet,
    extract_urls,
    filter_whitelist,
    load_whitelist,
    normalize_url,
    urlset_from_strings,
)

__all__ = [
    "ParadigmLabel", "classify_paradigm", "SuffixList", "load_suffix_list",
    "ImageUndecodable", "VisualFingerprint", "snapshot_fingerprint",
    "UrlSet", "extract_urls", "filter_whitelist", "load_whitelist",
    "normalize_url", "urlset_from_strings",
]
