"""Taxonomy of profit-motivated fraud apps: 5 top categories, 18
sub-categories, profit tactics P1-P11, and the nine behaviour-phase flags
(user seducement U1-U3, purchase & deposit D1-D3, follow-up F1-F3).

Labels are human-assigned; this module validates and aggregates them, it
never auto-classifies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from apktriage.util import read_json_lines

TOP_SEX = "Sex"
TOP_GAMBLING = "Gambling"
TOP_FINANCIAL = "Financial"
TOP_SERVICE = "Service"
TOP_AUXILIARY = "AuxiliaryTool"

TOP_CATEGORIES = (TOP_SEX, TOP_GAMBLING, TOP_FINANCIAL, TOP_SERVICE, TOP_AUXILIARY)


def top_of(label) -> str | None:
    """The top category of a label given as None, a top name, a dict or an
    object with ``.top``; None when it has none."""
    if label is None or isinstance(label, str):
        return label
    if isinstance(label, dict):
        return label.get("top")
    return getattr(label, "top", None)

TACTICS = tuple(f"P{i}" for i in range(1, 12))

BEHAVIOR_FLAGS = ("U1", "U2", "U3", "D1", "D2", "D3", "F1", "F2", "F3")
MAJOR = "Major"
MINOR = "Minor"
ABSENT = "Absent"
BEHAVIOR_LEVELS = (MAJOR, MINOR, ABSENT)


@dataclass(frozen=True)
class SubCategory:
    name: str
    top: str
    tactics: frozenset[str]          # allowed profit tactics; empty = any
    behavior: dict                   # canonical flag levels for reference
    miscellany: bool = False


def _sub(name, top, tactics, behavior, miscellany=False):
    full = {f: ABSENT for f in BEHAVIOR_FLAGS}
    full.update(behavior)
    return SubCategory(name=name, top=top, tactics=frozenset(tactics),
                       behavior=full, miscellany=miscellany)


SUB_CATEGORIES: tuple[SubCategory, ...] = (
    _sub("Live Porn", TOP_SEX, {"P2", "P10", "P11"},
         {"U3": MAJOR, "D1": MAJOR, "F3": MAJOR}),
    _sub("Pornography Trading", TOP_SEX, {"P4"},
         {"U1": MAJOR, "U3": MINOR, "D2": MAJOR, "F1": MAJOR}),
    _sub("Sex Trafficking", TOP_SEX, {"P2"},
         {"U1": MAJOR, "D2": MINOR, "F1": MAJOR, "F3": MAJOR}),
    _sub("Sex Miscellany", TOP_SEX, (), {}, miscellany=True),
    _sub("Gambling Games", TOP_GAMBLING, {"P3", "P11"},
         {"U3": MAJOR, "D3": MAJOR, "F2": MAJOR}),
    _sub("Sports & E-sports Betting", TOP_GAMBLING, {"P3", "P11"},
         {"U1": MAJOR, "D3": MAJOR, "F2": MAJOR}),
    _sub("Lotteries", TOP_GAMBLING, {"P1", "P3"},
         {"U1": MAJOR, "D2": MAJOR, "F1": MAJOR, "F2": MINOR}),
    _sub("Gambling Miscellany", TOP_GAMBLING, (), {}, miscellany=True),
    _sub("Cryptocurrency Trading", TOP_FINANCIAL, {"P6"},
         {"U1": MAJOR, "D1": MINOR, "D2": MAJOR, "F2": MAJOR}),
    _sub("Loan & Credit Platform", TOP_FINANCIAL, {"P1", "P5", "P11"},
         {"U1": MAJOR, "U2": MAJOR, "D2": MAJOR, "F1": MAJOR}),
    _sub("Insurance Products", TOP_FINANCIAL, {"P1", "P4", "P7", "P11"},
         {"U1": MAJOR, "U2": MAJOR, "D2": MAJOR, "F1": MAJOR}),
    _sub("Financial Investment", TOP_FINANCIAL, {"P1", "P6", "P9"},
         {"U1": MAJOR, "U2": MAJOR, "D2": MAJOR, "F2": MAJOR}),
    _sub("Financial Miscellany", TOP_FINANCIAL, (), {}, miscellany=True),
    _sub("Social Media", TOP_SERVICE, {"P1", "P2", "P8", "P11"},
         {"U2": MAJOR, "F3": MAJOR}),
    _sub("Ecommerce Platform", TOP_SERVICE, {"P1", "P4"},
         {"U1": MAJOR, "U2": MINOR, "D2": MAJOR, "F1": MAJOR}),
    _sub("Sharing Platform", TOP_SERVICE, {"P8"},
         {"U1": MAJOR, "U2": MINOR, "D1": MINOR}),
    _sub("Service Miscellany", TOP_SERVICE, (), {}, miscellany=True),
    _sub("Advertising Service", TOP_AUXILIARY, {"P1", "P9"},
         {"U2": MAJOR}),
)

SUB_BY_NAME = {s.name: s for s in SUB_CATEGORIES}


@dataclass(frozen=True)
class TaxonomyLabel:
    sample_id: str
    top: str
    sub: str
    tactics: frozenset[str] = frozenset()
    behavior: dict = field(default_factory=dict)


def validate_label(label: TaxonomyLabel) -> list[str]:
    """Return a list of violations; empty means the label is consistent
    with the taxonomy. Violations are data, not failures."""
    violations: list[str] = []
    if label.top not in TOP_CATEGORIES:
        violations.append(f"unknown top category {label.top!r}")
    sub = SUB_BY_NAME.get(label.sub)
    if sub is None:
        violations.append(f"unknown sub-category {label.sub!r}")
        return violations
    if label.top in TOP_CATEGORIES and sub.top != label.top:
        violations.append(
            f"sub not under top: {label.sub!r} belongs to {sub.top}, "
            f"not {label.top}")
    unknown = set(label.tactics) - set(TACTICS)
    if unknown:
        violations.append(f"unknown tactics {sorted(unknown)}")
    # Miscellany rows leave the tactic column blank and admit any tactic.
    if not sub.miscellany:
        extra = set(label.tactics) - sub.tactics - unknown
        if extra:
            violations.append(
                f"tactic not listed for sub: {sorted(extra)} not in "
                f"{sorted(sub.tactics)} for {sub.name!r}")
    for flag, level in label.behavior.items():
        if flag not in BEHAVIOR_FLAGS:
            violations.append(f"unknown behaviour flag {flag!r}")
        elif level not in BEHAVIOR_LEVELS:
            violations.append(f"unknown behaviour level {level!r} for {flag}")
    return violations


def _label(rec) -> TaxonomyLabel:
    """One label from its decoded JSON line; ``ValueError`` when ``rec`` is
    not one. A null ``top`` or ``sub`` is read, and ``validate_label``
    reports it."""
    if type(rec) is not dict:
        raise ValueError("a label is a JSON object")
    if type(rec.get("sample_id")) is not str:
        raise ValueError("'sample_id' must be a string")
    for key in ("top", "sub"):
        if key not in rec or rec[key] is not None and type(rec[key]) is not str:
            raise ValueError(f"{key!r} must be a string or null")
    tactics, behavior = rec.get("tactics", []), rec.get("behavior", {})
    if type(tactics) is not list or not all(type(t) is str for t in tactics):
        raise ValueError("'tactics' must be a list of strings")
    if type(behavior) is not dict or not all(type(v) is str for v in behavior.values()):
        raise ValueError("'behavior' must be an object of strings")
    return TaxonomyLabel(sample_id=rec["sample_id"], top=rec["top"], sub=rec["sub"],
                         tactics=frozenset(tactics), behavior=behavior)


def read_labels_jsonl(path) -> list[TaxonomyLabel]:
    """Label file: JSON-lines {sample_id, top, sub, tactics[], behavior{}}."""
    return read_json_lines(path, _label)
