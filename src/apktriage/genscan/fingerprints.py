"""App-generator fingerprint database and detection.

Each fingerprint carries evidence rules (main-activity name, package
prefix, asset path, native library), an optional cipher scheme and the
path prefixes of the assets that cipher protects. The shipped database
covers the 47 known generators; pass a JSON file with the same schema to
extend or override it.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass

from apktriage.apkcore.artifact import ApkArtifact
from apktriage.util import read_data_text, read_json

RULE_MAIN_ACTIVITY = "main_activity"
RULE_PACKAGE_PREFIX = "package_prefix"
RULE_ASSET_PATH = "asset_path"
RULE_NATIVE_LIB = "native_lib"

_RULE_KINDS = {RULE_MAIN_ACTIVITY, RULE_PACKAGE_PREFIX, RULE_ASSET_PATH, RULE_NATIVE_LIB}


@dataclass(frozen=True)
class EvidenceRule:
    kind: str
    value: str


@dataclass(frozen=True)
class CipherScheme:
    algo: str | None  # RC4 | TEA | AES_CBC | DES_CBC | None
    key_source: dict | None  # None or an unknown type: no key


@dataclass(frozen=True)
class GeneratorFingerprint:
    generator_id: str
    evidence_rules: tuple[EvidenceRule, ...]
    cipher: CipherScheme
    protected_paths: tuple[str, ...] = ()


@dataclass(frozen=True)
class GeneratorMatch:
    fingerprint: GeneratorFingerprint
    confidence: float

    @property
    def generator_id(self) -> str:
        return self.fingerprint.generator_id


def _check_key_source(gid: str, source: dict) -> None:
    """Reject a key source whose fields ``content._resolve_key`` reads
    are missing or wrong-shaped; other types resolve to no key."""
    kind = source.get("type")
    if kind == "constant":
        key = source.get("hex")
        try:
            valid = type(key) is str and len(bytes.fromhex(key)) > 0
        except ValueError:
            valid = False
        if not valid:
            raise ValueError(f"fingerprint {gid}: a constant key_source needs a non-empty "
                             "hex string")
    elif kind == "entry_offset":
        if not (type(source.get("path")) is str
                and all(type(source.get(k)) is int and source[k] >= 0
                        for k in ("offset", "length"))):
            raise ValueError(f"fingerprint {gid}: an entry_offset key_source needs a string "
                             "path and non-negative integer offset and length")


def _parse_fingerprint(obj) -> GeneratorFingerprint:
    if type(obj) is not dict or type(obj.get("generator_id")) is not str:
        raise ValueError("each fingerprint must be an object with a string generator_id")
    gid, rules, paths = obj["generator_id"], obj.get("rules"), obj.get("protected_paths", [])
    cipher = {} if obj.get("cipher") is None else obj["cipher"]
    if not (type(rules) is list and all(type(r) is dict and type(r.get("kind")) is str
                                        and type(r.get("value")) is str for r in rules)
            and type(cipher) is dict and type(cipher.get("algo")) in (str, type(None))
            and type(cipher.get("key_source")) in (dict, type(None))
            and type(paths) is list and all(type(p) is str for p in paths)):
        raise ValueError(f"fingerprint {gid}: rules must be a list of objects with string "
                         "kind and value, cipher null or an object with a string or null "
                         "algo and an object key_source, protected_paths a list of strings")
    for r in rules:
        if r["kind"] not in _RULE_KINDS:
            raise ValueError(f"unknown rule kind {r['kind']!r} in {gid}")
    if not rules:
        raise ValueError(f"fingerprint {gid} has no evidence rules")
    _check_key_source(gid, cipher.get("key_source") or {})
    return GeneratorFingerprint(
        generator_id=gid,
        evidence_rules=tuple(EvidenceRule(r["kind"], r["value"]) for r in rules),
        cipher=CipherScheme(
            algo=cipher.get("algo"),
            key_source=cipher.get("key_source"),
        ),
        protected_paths=tuple(paths),
    )


def _parse_db(raw) -> list[GeneratorFingerprint]:
    if type(raw) is not list:
        raise ValueError("must be a JSON list of fingerprints")
    fps = [_parse_fingerprint(obj) for obj in raw]
    ids = [fp.generator_id for fp in fps]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate generator_id in fingerprint database")
    return fps


def load_fingerprints(path=None) -> list[GeneratorFingerprint]:
    """The fingerprint database in the JSON file at ``path``, or the
    shipped one when ``path`` is None; a wrong-shaped file is a
    ``ValueError`` naming it."""
    if path is None:
        return _parse_db(json.loads(read_data_text(None, "generators.json")))
    return read_json(path, _parse_db)


def detect_generator(apk: ApkArtifact, db: list[GeneratorFingerprint]) -> GeneratorMatch | None:
    """Best-confidence generator match, or None when no rule fires.

    Deterministic regardless of database order: confidence desc, then
    generator_id ascending. Every rule is decided from one index of the
    APK's entry paths, built once per call: the sorted paths, in which
    the paths that start with an ``asset_path`` value form a run that
    begins where the value would be inserted, and the ``lib/`` paths.
    """
    paths = sorted(e.path for e in apk.entries)
    lib_paths = [p for p in paths if p.startswith("lib/")]
    main_activity = apk.manifest.main_activity if apk.manifest is not None else None

    def fires(rule: EvidenceRule) -> bool:
        kind, value = rule.kind, rule.value
        if kind == RULE_MAIN_ACTIVITY:
            return main_activity == value
        if kind == RULE_PACKAGE_PREFIX:
            return apk.package_name.startswith(value)
        if kind == RULE_ASSET_PATH:
            i = bisect_left(paths, value)
            return i < len(paths) and paths[i].startswith(value)
        if kind == RULE_NATIVE_LIB:
            return any(p.endswith("/" + value) for p in lib_paths)
        return False

    candidates = []
    for fp in db:
        matched = sum(map(fires, fp.evidence_rules))
        if matched:
            candidates.append(GeneratorMatch(fp, matched / len(fp.evidence_rules)))
    return min(candidates, key=lambda m: (-m.confidence, m.generator_id), default=None)
