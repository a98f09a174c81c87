"""Generator fingerprinting and asset decryption tests."""

import json
from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apktriage.apkcore.artifact import ApkArtifact, open_apk
from apktriage.apkcore.certs import load_known_signatures
from apktriage.genscan.ciphers import CipherError, KeyUnavailable, rc4
from apktriage.genscan.content import decrypt_assets, looks_plaintext
from apktriage.genscan.fingerprints import (
    RULE_ASSET_PATH,
    RULE_MAIN_ACTIVITY,
    RULE_NATIVE_LIB,
    RULE_PACKAGE_PREFIX,
    CipherScheme,
    EvidenceRule,
    GeneratorFingerprint,
    GeneratorMatch,
    detect_generator,
    load_fingerprints,
)

from apk_builder import build_apk

DB = load_fingerprints()
KNOWN = load_known_signatures()


def _keyed_db(key: bytes):
    """The shipped database with AppCan's key given as a constant, the way
    a supplied fingerprint database names generator keys."""
    source = {"type": "constant", "hex": key.hex()}
    return [replace(fp, cipher=replace(fp.cipher, key_source=source))
            if fp.generator_id == "AppCan" else fp for fp in DB]


def test_shipped_database_has_47_generators():
    assert len(DB) == 47
    ids = [fp.generator_id for fp in DB]
    assert len(set(ids)) == 47


def test_cipher_assignments_from_survey():
    by_algo = {}
    for fp in DB:
        if fp.cipher.algo:
            by_algo.setdefault(fp.cipher.algo, set()).add(fp.generator_id)
    assert by_algo["RC4"] == {"APICloud", "bufanapp", "AppCan", "Dibaqu", "Pgyer"}
    assert by_algo["AES_CBC"] == {"BSLApp", "ChuXueYun", "SuishouApp", "yimen"}
    assert by_algo["DES_CBC"] == {"AppYet"}
    assert by_algo["TEA"] == {"Appmachine"}


def test_dcloud_main_activity_match():
    apk = open_apk(build_apk(
        package="com.example.gen",
        main_activity="io.dcloud.PandoraEntry",
        extra_files={"assets/apps/H5/www/index.html": b"<html></html>"}), KNOWN)
    match = detect_generator(apk, DB)
    assert match is not None
    assert match.generator_id == "DCloud"
    assert match.confidence == 1.0


def test_appcan_full_confidence():
    # both AppCan rules fire: asset path and native lib
    apk = open_apk(build_apk(
        package="com.biz.shop",
        extra_files={"assets/widgetone/app.json": b"{}",
                     "lib/armeabi-v7a/libappcan.so": b"\x7fELF"}), KNOWN)
    match = detect_generator(apk, DB)
    assert match.generator_id == "AppCan"
    assert match.fingerprint is next(fp for fp in DB if fp.generator_id == "AppCan")
    assert len(match.fingerprint.evidence_rules) == 2
    assert match.confidence == 1.0


def test_no_generator_returns_none():
    apk = open_apk(build_apk(package="plain.native.app"), KNOWN)
    assert detect_generator(apk, DB) is None


def oracle_fires(rule, apk) -> bool:
    """Whether ``rule`` fires for ``apk``, by a scan of every entry."""
    if rule.kind == RULE_MAIN_ACTIVITY:
        return apk.manifest is not None and apk.manifest.main_activity == rule.value
    if rule.kind == RULE_PACKAGE_PREFIX:
        return apk.package_name.startswith(rule.value)
    if rule.kind == RULE_ASSET_PATH:
        return any(e.path.startswith(rule.value) for e in apk.entries)
    if rule.kind == RULE_NATIVE_LIB:
        return any(e.path.startswith("lib/") and e.path.endswith("/" + rule.value)
                   for e in apk.entries)
    return False


def oracle_detect(apk, db):
    candidates = [GeneratorMatch(fp, n / len(fp.evidence_rules)) for fp in db
                  if (n := sum(oracle_fires(r, apk) for r in fp.evidence_rules))]
    return min(candidates, key=lambda m: (-m.confidence, m.generator_id), default=None)


# short strings over the characters that matter: a path separator, and
# letters that make "lib", "assets" and shared prefixes likely
PATH_TEXT = st.text(st.sampled_from("/abils."), max_size=6)
PATHS = st.one_of(PATH_TEXT, st.builds(lambda d, p: d + p,
                                       st.sampled_from(["lib/", "lib/a/", "assets/", "a/lib/"]),
                                       PATH_TEXT))
RULES = st.builds(EvidenceRule, st.sampled_from(
    [RULE_MAIN_ACTIVITY, RULE_PACKAGE_PREFIX, RULE_ASSET_PATH, RULE_NATIVE_LIB, "other"]),
    st.one_of(PATHS, st.sampled_from(["lib/", "libs.so", "a/libs.so", "s"])))


@settings(max_examples=400, deadline=None)
@given(st.lists(PATHS, max_size=8),
       st.lists(st.lists(RULES, min_size=1, max_size=3), max_size=5),
       st.one_of(st.none(), st.builds(SimpleNamespace, main_activity=st.one_of(st.none(),
                                                                                  PATH_TEXT))),
       PATH_TEXT)
def test_detect_generator_matches_the_per_rule_scan(paths, rule_sets, manifest, package):
    apk = SimpleNamespace(entries=tuple(SimpleNamespace(path=p) for p in paths),
                          manifest=manifest, package_name=package)
    db = [GeneratorFingerprint(f"g{i}", tuple(rules), CipherScheme(None, None))
          for i, rules in enumerate(rule_sets)]
    assert detect_generator(apk, db) == oracle_detect(apk, db)


def test_detection_deterministic_under_db_order():
    apk = open_apk(build_apk(
        package="com.example.gen",
        main_activity="io.dcloud.PandoraEntry"), KNOWN)
    assert detect_generator(apk, DB) == detect_generator(apk, list(reversed(DB)))


def test_custom_db_rejects_duplicates(tmp_path):
    p = tmp_path / "db.json"
    entry = {"generator_id": "X",
             "rules": [{"kind": "package_prefix", "value": "x."}]}
    p.write_text(json.dumps([entry, entry]))
    with pytest.raises(ValueError):
        load_fingerprints(p)


class TestContent:
    def _appcan_apk(self, cipher_key=b"appcan-demo-key!", plain=b'{"urls": []}'):
        protected = rc4(plain, cipher_key)
        return open_apk(build_apk(
            package="com.user.app",
            extra_files={
                "assets/widgetone/apps/main/config.json": protected,
                "assets/widgetone/engine.js": b"var engine = 1;",
                "assets/usercontent/page.html": b"<html>user</html>",
                "lib/armeabi-v7a/libappcan.so": b"\x7fELF",
            }), KNOWN)

    def test_decrypt_assets_with_explicit_key(self):
        key = b"appcan-demo-key!"
        plain = b'{"server": "http://evil.example/api"}'
        apk = self._appcan_apk(key, plain)
        match = detect_generator(apk, _keyed_db(key))
        assert match.fingerprint.cipher.algo == "RC4"
        content = decrypt_assets(apk, match)
        got = content.decrypted.get("assets/widgetone/apps/main/config.json")
        assert got == plain

    def test_decrypt_reads_entries_without_a_path_lookup(self, monkeypatch):
        key = b"appcan-demo-key!"
        apk = self._appcan_apk(key, b'{"a": 1}')
        match = detect_generator(apk, _keyed_db(key))

        def by_path(self, path):
            raise AssertionError(f"entry {path!r} looked up by path")

        monkeypatch.setattr(ApkArtifact, "entry", by_path)
        content = decrypt_assets(apk, match)
        assert content.decrypted == {"assets/widgetone/apps/main/config.json": b'{"a": 1}'}

    def test_decrypt_wrong_key_fails_validation(self):
        apk = self._appcan_apk(b"right-key-123456", b'{"a": 1}' * 50)
        match = detect_generator(apk, _keyed_db(b"wrong-key-654321"))
        content = decrypt_assets(apk, match)
        assert "assets/widgetone/apps/main/config.json" in content.failed

    def test_missing_key_raises(self):
        apk = self._appcan_apk()
        match = detect_generator(apk, DB)
        with pytest.raises(KeyUnavailable):
            decrypt_assets(apk, match)

    def test_cipherless_generator_rejects_decrypt(self):
        apk = open_apk(build_apk(package="g.x",
                                 main_activity="io.dcloud.PandoraEntry"), KNOWN)
        match = detect_generator(apk, DB)
        assert match.fingerprint.cipher.algo is None
        with pytest.raises(CipherError):
            decrypt_assets(apk, match)


class TestLooksPlaintext:
    @pytest.mark.parametrize("data", [
        b'{"json": true}', b"[1,2,3]", b"<html></html>",
        b"\x89PNG\r\n\x1a\n", b"PK\x03\x04zip", b"\xff\xd8\xff\xe0jpeg",
        b"plain ascii text is mostly utf-8", "中文文本".encode("utf-8"),
    ])
    def test_accepts(self, data):
        assert looks_plaintext(data)

    @pytest.mark.parametrize("data", [
        b"", bytes(range(128, 256)) * 8,
    ])
    def test_rejects(self, data):
        assert not looks_plaintext(data)
