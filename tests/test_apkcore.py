"""APK artifact, certificate and permission-profile tests."""

import pytest

from apktriage.apkcore.artifact import open_apk
from apktriage.apkcore.certs import (
    CLASS_DEBUG,
    CLASS_DEVELOPER,
    DN_FIELDS,
    extract_signers,
    load_known_signatures,
)
from apktriage.apkcore.errors import NoManifest, NotAZip
from apktriage.apkcore.permissions import load_dangerous_db, permission_profile

from apk_builder import (
    DEBUG_DN,
    DEVELOPER_DN,
    build_apk,
    cert_fingerprint,
    pkcs7_block,
)

KNOWN = load_known_signatures()


class TestOpenApk:
    def test_basic_fields(self):
        raw = build_apk(package="com.fixture.app",
                        permissions=("android.permission.INTERNET",
                                     "android.permission.READ_SMS"))
        apk = open_apk(raw, KNOWN)
        assert apk.package_name == "com.fixture.app"
        assert apk.manifest is not None
        assert apk.manifest.main_activity == "com.fixture.app.MainActivity"
        assert "android.permission.READ_SMS" in apk.manifest.permissions
        import hashlib
        assert apk.sample_id == hashlib.sha256(raw).hexdigest()

    def test_not_a_zip(self):
        with pytest.raises(NotAZip):
            open_apk(b"garbage bytes, definitely not a zip", KNOWN)

    def test_no_manifest(self):
        with pytest.raises(NoManifest):
            open_apk(build_apk(omit_manifest=True), KNOWN)

    def test_invalid_manifest_flagged_not_fatal(self):
        apk = open_apk(build_apk(manifest_bytes=b"\x99\x99 broken axml"), KNOWN)
        assert apk.manifest is None
        assert apk.package_name == ""

    def test_manifest_mtime(self):
        apk = open_apk(build_apk(manifest_mtime=(2020, 12, 6, 0, 0, 0)), KNOWN)
        assert (apk.manifest_mtime.year, apk.manifest_mtime.month,
                apk.manifest_mtime.day) == (2020, 12, 6)

    def test_entry_read(self):
        apk = open_apk(build_apk(extra_files={"assets/data.txt": b"payload"}), KNOWN)
        assert apk.read("assets/data.txt") == b"payload"


class TestSigners:
    def test_developer_signature(self):
        apk = open_apk(build_apk(signer_dn=DEVELOPER_DN), KNOWN)
        (signer,) = apk.signers
        assert signer.signature_class == CLASS_DEVELOPER
        assert signer.completeness == 1.0
        assert signer.fingerprint == cert_fingerprint(DEVELOPER_DN)
        assert signer.dn_fields == DEVELOPER_DN  # every field, by its OID
        assert set(signer.dn_fields) <= set(DN_FIELDS)

    def test_debug_signature_classified(self):
        apk = open_apk(build_apk(signer_dn=DEBUG_DN), KNOWN)
        (signer,) = apk.signers
        assert signer.signature_class == CLASS_DEBUG

    def test_unsigned_apk_flagged_not_fatal(self):
        apk = open_apk(build_apk(signer_dn=None), KNOWN)
        assert apk.signers == ()

    def test_completeness_partial(self):
        dn = {"commonName": "Solo", "country": "CN"}
        apk = open_apk(build_apk(signer_dn=dn), KNOWN)
        (signer,) = apk.signers
        assert signer.completeness == pytest.approx(2 / 7)

    def test_extract_signers_multiple_blocks(self):
        entries = {
            "META-INF/CERT.RSA": pkcs7_block(DEVELOPER_DN),
            "META-INF/OTHER.RSA": pkcs7_block(DEBUG_DN),
            "META-INF/MANIFEST.MF": b"ignored",
        }
        signers = extract_signers(entries, load_known_signatures())
        assert len(signers) == 2
        assert {s.signature_class for s in signers} == {CLASS_DEVELOPER,
                                                        CLASS_DEBUG}


class TestPermissions:
    def test_profile_counts(self):
        db = load_dangerous_db()
        assert len(db) == 30
        apk = open_apk(build_apk(permissions=(
            "android.permission.INTERNET",          # normal
            "android.permission.READ_CONTACTS",     # dangerous
            "android.permission.READ_SMS",          # dangerous
        )), KNOWN)
        profile = permission_profile(apk.manifest, db)
        assert profile.dangerous_count == 2
        assert profile.normal_count == 1
        assert profile.all_count == 3

    def test_empty_db_rejected(self, tmp_path):
        path = tmp_path / "dangerous.txt"
        for text in ("", "# no permissions\n\n  # at all\n"):
            path.write_text(text)
            with pytest.raises(ValueError, match="dangerous.txt"):
                load_dangerous_db(path)
