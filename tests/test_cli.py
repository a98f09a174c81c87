"""End-to-end command-line tests over fixture inputs."""

import argparse
import errno
import gc
import json
import multiprocessing
import os
import re
import shutil
import signal
import subprocess
import sys
from collections import Counter
from datetime import datetime, timedelta

import pytest

import apktriage
from apktriage.reportcli import cli
from apktriage.reportcli.cli import build_parser, main

from apk_builder import build_apk
from axml_writer import build_manifest


def test_scan_outputs_jsonl(tmp_path):
    apk = tmp_path / "sample.apk"
    apk.write_bytes(build_apk(
        package="com.cli.test",
        main_activity="io.dcloud.PandoraEntry",
        extra_files={"assets/cfg.json": b'{"u": "https://c2.cli.example/x"}'}))
    out = tmp_path / "scan.jsonl"
    assert main(["scan", str(apk), "--output", str(out)]) == 0
    rec = json.loads(out.read_text().splitlines()[0])
    assert rec["package"] == "com.cli.test"
    assert rec["generator"] == "DCloud"
    assert rec["paradigm"] == "Hybrid"
    assert "https://c2.cli.example/x" in rec["urls"]
    assert rec["permissions"]["all"] == 1


def test_scan_directory(tmp_path):
    d = tmp_path / "apks"
    d.mkdir()
    (d / "a.apk").write_bytes(build_apk(package="com.a"))
    (d / "b.apk").write_bytes(build_apk(package="com.b"))
    out = tmp_path / "scan.jsonl"
    assert main(["scan", str(d), "--output", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 2


def test_scan_walks_subdirectories_in_sorted_order(tmp_path):
    # os.walk lists a directory in file-system order; the records must not
    # depend on it: top-down, each directory's files before its
    # subdirectories, both in sorted order
    d = tmp_path / "apks"
    apk = build_apk(package="com.walk")
    names = ["g", "c", "a1", "h", "b", "e", "a", "f"]
    for name in names:
        (d / name / "inner").mkdir(parents=True)
        (d / name / "x.apk").write_bytes(apk)
        (d / name / "inner" / "x.apk").write_bytes(apk)
    (d / "top.apk").write_bytes(apk)
    out = tmp_path / "scan.jsonl"
    assert main(["scan", str(d), "--output", str(out)]) == 0
    got = [json.loads(line)["path"] for line in out.read_text().splitlines()]
    assert got == [str(d / "top.apk")] + [
        str(d / name / sub / "x.apk") for name in sorted(names) for sub in ("", "inner")]


def test_assoc_and_report_pipeline(tmp_path):
    features = tmp_path / "features.jsonl"
    rows = [
        {"sample_id": "s1", "signature": {"fingerprint": "f1", "dn_fields": {},
                                          "signature_class": "DeveloperSpecific"},
         "urls": [], "domains": [], "ip_literals": [], "resolved_ips": [],
         "fingerprints": [], "label": {"top": "Sex"}},
        {"sample_id": "s2", "signature": {"fingerprint": "f1", "dn_fields": {},
                                          "signature_class": "DeveloperSpecific"},
         "urls": [], "domains": [], "ip_literals": [], "resolved_ips": [],
         "fingerprints": [], "label": {"top": "Sex"}},
    ]
    features.write_text("".join(json.dumps(r) + "\n" for r in rows))
    out = tmp_path / "assoc"
    assert main(["assoc", str(features), "--output", str(out)]) == 0
    graph = json.loads((tmp_path / "assoc.graph.json").read_text())
    assert graph["groups"][0] == ["s1", "s2"]
    assert (tmp_path / "assoc.csv").exists()


def test_assoc_output_into_missing_directory(tmp_path):
    features = tmp_path / "features.jsonl"
    features.write_text(json.dumps(
        {"sample_id": "s1", "signature": None, "urls": [], "domains": [],
         "ip_literals": [], "resolved_ips": [], "fingerprints": [],
         "label": None}) + "\n")
    out = tmp_path / "new" / "sub" / "a"
    assert main(["assoc", str(features), "--output", str(out)]) == 0
    for suffix in (".graph.json", ".csv", ".json"):
        assert (tmp_path / "new" / "sub" / ("a" + suffix)).exists()


def test_assoc_unwritable_graph_file_is_an_input_error(tmp_path, capsys):
    # the output base lies below a regular file, so no directory can be
    # made for the graph file, the first one written
    features = tmp_path / "features.jsonl"
    features.write_text(json.dumps(
        {"sample_id": "s1", "signature": None, "urls": [], "domains": [],
         "ip_literals": [], "resolved_ips": [], "fingerprints": [],
         "label": None}) + "\n")
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "a"
    assert main(["assoc", str(features), "--output", str(out)]) == 1
    exists = f"[Errno {errno.EEXIST}] {os.strerror(errno.EEXIST)}: {str(blocker)!r}"
    assert capsys.readouterr().err == f"error: cannot write {out}.graph.json: {exists}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["features.jsonl", "file"]


def test_assoc_duplicate_ids_are_an_input_error(tmp_path, capsys):
    row = {"sample_id": "X", "signature": None, "urls": [], "domains": [],
           "ip_literals": [], "resolved_ips": [], "fingerprints": [],
           "label": None}
    features = tmp_path / "features.jsonl"
    features.write_text("".join(json.dumps(dict(row, sample_id=sid)) + "\n"
                                for sid in ("X", "Y", "X", "Z", "Y")))
    assert main(["assoc", str(features), "--output", str(tmp_path / "a")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "X, Y" in err


@pytest.mark.parametrize("size,rc", [(None, 0), ("2", 0), ("5", 0), ("1", 1), ("0", 1), ("-3", 1)])
def test_assoc_corpus_size_below_the_sample_count_is_an_input_error(tmp_path, capsys, size, rc):
    # an explicit 0 is a value like any other, not "absent"
    row = {"sample_id": "X", "signature": None, "urls": [], "domains": [],
           "ip_literals": [], "resolved_ips": [], "fingerprints": [], "label": None}
    features = tmp_path / "features.jsonl"
    features.write_text("".join(json.dumps(dict(row, sample_id=sid)) + "\n" for sid in "XY"))
    out = tmp_path / "a"
    argv = ["assoc", str(features), "--output", str(out)]
    assert main(argv + (["--corpus-size", size] if size else [])) == rc
    if rc:
        assert capsys.readouterr().err == (
            "error: corpus_size smaller than the graph's node count\n")
    else:
        pcts = [r["corpus_pct"] for r in json.loads((tmp_path / "a.json").read_text())]
        assert pcts == [100.0 / int(size or 2)] * 2


GOOD_FEATURES = {"sample_id": "ok", "signature": None, "urls": [], "domains": [],
                 "ip_literals": [], "resolved_ips": [], "fingerprints": [], "label": None}


@pytest.mark.parametrize("bad", [
    "null",
    '["x"]',
    "[" * 100_000 + "]" * 100_000,
    json.dumps({"sample_id": "b", "urls": 5}),
    json.dumps({"sample_id": "b", "signature": {"fingerprint": "f", "dn_fields": 5}}),
    json.dumps({"sample_id": "b", "signature": {"fingerprint": "f",
                                                "dn_fields": {"commonName": 5}}}),
    json.dumps({"sample_id": "b", "label": {"top": []}}),
], ids=["null", "list", "deep", "urls-int", "dn-fields-int", "dn-value-int", "label-top-list"])
def test_assoc_malformed_features_line_is_an_input_error(tmp_path, capsys, bad):
    _assert_bad_line_is_an_input_error(tmp_path, capsys, "assoc", bad)


GOOD_LINES = {
    "assoc": GOOD_FEATURES,
    "report": {"sample_id": "ok", "top": "Gambling", "sub": "Lotteries",
               "tactics": ["P1"], "behavior": {"U1": "Major"}},
    "payclass": {"session_id": "ok", "request_index": 1, "amount": "1.00",
                 "payment_domain": "pay.example", "recipient_id": "acct-1"},
}


def _assert_bad_line_is_an_input_error(tmp_path, capsys, verb, bad):
    """``verb`` on a file of a good line, a blank line and ``bad`` exits 1
    and names the file and line 3."""
    path = tmp_path / "input.jsonl"
    path.write_text(json.dumps(GOOD_LINES[verb]) + "\n\n" + bad + "\n")
    argv = [verb, str(path)] + (["--output", str(tmp_path / "o")]
                                if verb != "payclass" else [])
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}, line 3: ")


def _with(verb, **fields):
    return json.dumps(dict(GOOD_LINES[verb], **fields))


def _without(verb, key):
    return json.dumps({k: v for k, v in GOOD_LINES[verb].items() if k != key})


HOSTILE_LINES = [
    (verb, case, bad)
    for verb, missing in (("assoc", "sample_id"), ("report", "top"),
                          ("payclass", "amount"))
    for case, bad in (("null", "null"), ("list", '["x"]'),
                      ("deep", "[" * 100_000 + "]" * 100_000),
                      ("missing-" + missing, _without(verb, missing)))
] + [
    ("report", "sub-list", _with("report", sub=["x"])),
    ("report", "tactics-string", _with("report", tactics="P1")),
    ("payclass", "session-id-list", _with("payclass", session_id=["s"])),
    ("payclass", "amount-object", _with("payclass", amount={"a": 1})),
    ("payclass", "amount-nan", _with("payclass", amount="NaN")),
    ("payclass", "request-index-bool", _with("payclass", request_index=True)),
]


@pytest.mark.parametrize("verb,bad", [(verb, bad) for verb, _case, bad in HOSTILE_LINES],
                         ids=[f"{verb}-{case}" for verb, case, _bad in HOSTILE_LINES])
def test_malformed_input_line_is_an_input_error(tmp_path, capsys, verb, bad):
    _assert_bad_line_is_an_input_error(tmp_path, capsys, verb, bad)


def test_scan_output_into_missing_directory(tmp_path):
    apk = tmp_path / "sample.apk"
    apk.write_bytes(build_apk(package="com.a"))
    out = tmp_path / "new" / "sub" / "scan.jsonl"
    assert main(["scan", str(apk), "--output", str(out)]) == 0
    assert json.loads(out.read_text())["package"] == "com.a"


def test_scan_unwritable_output_is_an_input_error(tmp_path, capsys):
    # the output lies below a regular file, so no directory can be made for it
    apk = tmp_path / "sample.apk"
    apk.write_bytes(build_apk(package="com.a"))
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "scan.jsonl"
    assert main(["scan", str(apk), "--output", str(out)]) == 1
    exists = f"[Errno {errno.EEXIST}] {os.strerror(errno.EEXIST)}: {str(blocker)!r}"
    assert capsys.readouterr().err == f"error: cannot write {out}: {exists}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file", "sample.apk"]


def test_payclass_output_into_missing_directory(tmp_path):
    obs = tmp_path / "obs.jsonl"
    obs.write_text(json.dumps(
        {"session_id": "s1", "request_index": 1, "amount": "1.00",
         "payment_domain": "shady.example", "recipient_id": "acct-1",
         "channel_hint": "BankTransfer"}) + "\n")
    licensed = tmp_path / "licensed.txt"
    licensed.write_text("pay.licensed.example\n")
    out = tmp_path / "new" / "sub" / "p.json"
    assert main(["payclass", str(obs), "--licensed-db", str(licensed),
                 "--output", str(out)]) == 0
    assert json.loads(out.read_text())["sessions"][0]["session_id"] == "s1"


@pytest.mark.parametrize("path,body", [
    ("assets/pay.html", b'<a href="http://pay.evil.com:99999/x">pay</a>'),
    ("lib/armeabi/libc2.so", b"\x7fELF\x00http://cdn.c.com:8o80/a\x00"),
], ids=["html-asset", "native-lib"])
def test_scan_survives_invalid_port(tmp_path, path, body):
    d = tmp_path / "apks"
    d.mkdir()
    (d / "a.apk").write_bytes(build_apk(package="com.a"))
    (d / "b.apk").write_bytes(build_apk(package="com.b", extra_files={
        path: body, "assets/ok.js": b'get("https://ok.example/v")'}))
    (d / "c.apk").write_bytes(build_apk(package="com.c"))
    out = tmp_path / "scan.jsonl"
    assert main(["scan", str(d), "--output", str(out)]) == 0
    recs = [json.loads(line) for line in out.read_text().splitlines()]
    assert [r["package"] for r in recs] == ["com.a", "com.b", "com.c"]
    assert "https://ok.example/v" in recs[1]["urls"]
    assert not any("evil" in u or "cdn.c.com" in u for u in recs[1]["urls"])


def _flip_manifest_crc(apk: bytes) -> bytes:
    """The APK with one byte of the stored CRC-32 of AndroidManifest.xml
    inverted, in its local header and its central-directory record."""
    buf, name = bytearray(apk), b"AndroidManifest.xml"
    for sig, crc_at, name_at in ((b"PK\x03\x04", 14, 30), (b"PK\x01\x02", 16, 46)):
        i = buf.find(sig)
        while i >= 0:
            if buf[i + name_at:i + name_at + len(name)] == name:
                buf[i + crc_at] ^= 0xFF
            i = buf.find(sig, i + 1)
    return bytes(buf)


def test_scan_isolates_bad_apks(tmp_path, capsys):
    d = tmp_path / "apks"
    d.mkdir()
    (d / "a.apk").write_bytes(build_apk(package="com.a"))
    (d / "b.apk").write_bytes(b"this is not a zip archive")
    (d / "c.apk").write_bytes(_flip_manifest_crc(build_apk(package="com.c")))
    (d / "d.apk").write_bytes(build_apk(package="com.d"))
    out = tmp_path / "scan.jsonl"
    assert main(["scan", str(d), "--output", str(out)]) == 1
    recs = [json.loads(line) for line in out.read_text().splitlines()]
    assert [r.get("package") for r in recs] == ["com.a", None, None, "com.d"]
    bad = recs[1:3]
    assert [sorted(r) for r in bad] == [["error", "error_kind", "path"]] * 2
    assert [r["path"] for r in bad] == [str(d / "b.apk"), str(d / "c.apk")]
    assert [r["error_kind"] for r in bad] == ["NotAZip", "NotAZip"]
    assert "CRC-32 mismatch for AndroidManifest.xml" in bad[1]["error"]
    err = capsys.readouterr().err
    assert str(d / "b.apk") in err and str(d / "c.apk") in err


def test_scan_isolates_unreadable_apk(tmp_path):
    d = tmp_path / "apks"
    d.mkdir()
    (d / "a.apk").write_bytes(build_apk(package="com.a"))
    (d / "b.apk").symlink_to(tmp_path / "missing.apk")
    (d / "c.apk").write_bytes(build_apk(package="com.c"))
    out = tmp_path / "scan.jsonl"
    assert main(["scan", str(d), "--output", str(out)]) == 1
    recs = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(recs) == 3
    assert [r.get("package") for r in recs] == ["com.a", None, "com.c"]
    assert sorted(recs[1]) == ["error", "error_kind", "path"]
    assert recs[1]["path"] == str(d / "b.apk")
    assert recs[1]["error_kind"] == "FileNotFoundError"


def test_scan_survives_hostile_manifest_header(tmp_path):
    pool_count = bytearray(build_manifest("com.b", main_activity=".Main"))
    pool_count[16:20] = (0x0FFFFFFF).to_bytes(4, "little")  # string-pool count
    int_activity_name = build_manifest("com.b", main_activity=5)
    for n, manifest in enumerate([bytes(pool_count), int_activity_name]):
        d = tmp_path / f"apks{n}"
        d.mkdir()
        (d / "a.apk").write_bytes(build_apk(package="com.a"))
        (d / "b.apk").write_bytes(build_apk(manifest_bytes=manifest))
        (d / "c.apk").write_bytes(build_apk(package="com.c"))
        out = tmp_path / f"scan{n}.jsonl"
        assert main(["scan", str(d), "--output", str(out)]) == 0
        recs = [json.loads(line) for line in out.read_text().splitlines()]
        assert [r["package"] for r in recs] == ["com.a", "", "com.c"]
        assert [r["manifest_valid"] for r in recs] == [True, False, True]


def test_scan_empty_dangerous_permission_list_fails_before_any_apk(tmp_path, capsys):
    d = tmp_path / "apks"
    d.mkdir()
    (d / "a.apk").write_bytes(build_apk(manifest_bytes=b"\x99\x99 broken axml"))
    (d / "b.apk").write_bytes(build_apk(package="com.b"))
    perms = tmp_path / "dangerous.txt"
    out = tmp_path / "scan.jsonl"
    for text in ("", "# none listed\n\n"):
        perms.write_text(text)
        assert main(["scan", str(d), "--output", str(out),
                     "--dangerous-permission-file", str(perms)]) == 1
        assert not out.exists()
        assert str(perms) in capsys.readouterr().err


def test_scan_loads_reference_data_once(tmp_path, monkeypatch):
    from apktriage.apkcore import certs, permissions
    from apktriage.extract import psl
    from apktriage.genscan import fingerprints

    loaders = [certs.load_known_signatures, fingerprints.load_fingerprints,
               psl.load_suffix_list, permissions.load_dangerous_db]
    # a file, not a Counter, so that calls in forked workers count too
    calls = tmp_path / "calls.txt"
    modules = [m for name, m in list(sys.modules.items())
               if name == "apktriage" or name.startswith("apktriage.")]
    for fn in loaders:
        def counted(*args, _fn=fn, **kwargs):
            with open(calls, "a") as f:
                f.write(_fn.__name__ + "\n")
            return _fn(*args, **kwargs)
        # every binding of the loader
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, key, counted)
    monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: {0, 1})  # two workers

    d = tmp_path / "apks"
    d.mkdir()
    for name in ("a", "b", "c"):
        (d / f"{name}.apk").write_bytes(build_apk(
            package=f"com.{name}",
            extra_files={"assets/cfg.json": b'{"u": "https://c2.example/x"}'}))
    # an AppCan sample: detection, then a cipher whose key is not supplied
    (d / "d.apk").write_bytes(build_apk(package="com.d", extra_files={
        "assets/widgetone/app.json": b"{}", "lib/armeabi/libappcan.so": b"\x7fELF"}))
    whitelist = tmp_path / "top.csv"
    whitelist.write_text("1,google.com\n")
    out = tmp_path / "scan.jsonl"
    assert main(["scan", str(d), "--output", str(out), "--whitelist", str(whitelist)]) == 0
    assert len(out.read_text().splitlines()) == 4
    assert Counter(calls.read_text().split()) == {fn.__name__: 1 for fn in loaders}


def _mixed_corpus(root):
    """Good APKs in subdirectories, a non-ZIP file, a manifest whose CRC-32
    does not match and a dangling symlink."""
    for sub in ("x", "y/z"):
        (root / sub).mkdir(parents=True)
    for n, path in enumerate(["a.apk", "x/b.apk", "x/e.apk", "y/c.apk", "y/z/d.apk"]):
        (root / path).write_bytes(build_apk(
            package=f"com.m{n}",
            extra_files={"assets/cfg.json": f'{{"u": "https://c{n}.example/x"}}'.encode()}))
    (root / "x" / "bad.apk").write_bytes(b"this is not a zip archive")
    (root / "y" / "crc.apk").write_bytes(_flip_manifest_crc(build_apk(package="com.crc")))
    (root / "y" / "gone.apk").symlink_to(root / "missing.apk")


def _scan_with_cpus(tmp_path, capsys, monkeypatch, cpus, name):
    monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: set(range(cpus)))
    out = tmp_path / f"{name}.jsonl"
    rc = main(["scan", str(tmp_path / "apks"), "--output", str(out)])
    assert multiprocessing.active_children() == []
    return rc, out.read_bytes(), capsys.readouterr().err.splitlines()


def test_scan_pooled_matches_serial(tmp_path, capsys, monkeypatch):
    (tmp_path / "apks").mkdir()
    _mixed_corpus(tmp_path / "apks")
    pooled = _scan_with_cpus(tmp_path, capsys, monkeypatch, 2, "pooled")
    serial = _scan_with_cpus(tmp_path, capsys, monkeypatch, 1, "serial")
    assert pooled == serial
    rc, jsonl, err = serial
    assert rc == 1
    recs = [json.loads(line) for line in jsonl.splitlines()]
    assert [r.get("package") or r["error_kind"] for r in recs] == [
        "com.m0", "com.m1", "NotAZip", "com.m2", "com.m3", "NotAZip", "FileNotFoundError",
        "com.m4"]
    assert len(err) == 3


@pytest.mark.parametrize("exc, code", [(RuntimeError, 2), (ValueError, 1)])
def test_scan_unexpected_error_in_worker_exits_as_serial(tmp_path, capsys, monkeypatch,
                                                          exc, code):
    from apktriage.extract import paradigm

    classify = paradigm.classify_paradigm

    def failing(apk, match):  # forked workers inherit the patch
        if apk.package_name == "com.m2":
            raise exc("boom")
        return classify(apk, match)

    monkeypatch.setattr(paradigm, "classify_paradigm", failing)
    (tmp_path / "apks").mkdir()
    _mixed_corpus(tmp_path / "apks")
    pooled = _scan_with_cpus(tmp_path, capsys, monkeypatch, 2, "pooled")
    serial = _scan_with_cpus(tmp_path, capsys, monkeypatch, 1, "serial")
    assert pooled == serial
    rc, jsonl, err = serial
    assert rc == code
    assert len(jsonl.splitlines()) == 3  # the records before com.m2's
    assert err[-1].endswith("boom")


def test_scan_write_error_ends_the_pool(tmp_path, capsys, monkeypatch):
    class FailingOut:
        """stdout whose second write fails, as on a full disk."""
        writes = 0

        def write(self, text):
            self.writes += 1
            if self.writes == 2:
                raise OSError(28, "No space left on device")

    (tmp_path / "apks").mkdir()
    _mixed_corpus(tmp_path / "apks")
    for cpus in (2, 1):
        monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: set(range(cpus)))
        monkeypatch.setattr(sys, "stdout", FailingOut())
        assert main(["scan", str(tmp_path / "apks")]) == 1
        assert multiprocessing.active_children() == []
        assert capsys.readouterr().err.splitlines() == ["error: [Errno 28] No space left on device"]


# tasks of four APKs: one worker per task, up to one per CPU
@pytest.mark.parametrize("cpus, apks, workers", [(1, 9, None), (4, 1, None), (4, 4, None),
                                                 (2, 5, 2), (2, 30, 2), (4, 9, 3)])
def test_scan_pool_size(tmp_path, monkeypatch, cpus, apks, workers):
    import concurrent.futures

    sizes = []

    class Recording(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
    monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: set(range(cpus)))
    d = tmp_path / "apks"
    d.mkdir()
    for n in range(apks):
        (d / f"{n:02}.apk").write_bytes(build_apk(package=f"com.p{n}"))
    out = tmp_path / "scan.jsonl"
    assert main(["scan", str(d), "--output", str(out)]) == 0
    assert [json.loads(line)["package"] for line in out.read_text().splitlines()] == [
        f"com.p{n}" for n in range(apks)]
    assert sizes == ([] if workers is None else [workers])


def test_watch_scripted(tmp_path):
    domains = tmp_path / "domains.txt"
    domains.write_text("a.example\n")
    script = tmp_path / "script.json"
    script.write_text(json.dumps({
        "resolutions": {"a.example": [["1.1.1.1"]]},
        "probes": {"a.example": [200, 200, 503]},
        "whois": {"a.example": {"registrant": "r1", "country": "China"}},
    }))
    out = tmp_path / "watch"
    code = main(["watch", str(domains), "--store", str(tmp_path / "store"),
                 "--output", str(out),
                 "--window-start", "2021-01-01", "--window-end", "2021-01-03",
                 "--cadence-days", "1", "--script", str(script)])
    assert code == 0
    lifespans = json.loads((tmp_path / "watch.lifespan.json").read_text())
    assert lifespans[0]["domain"] == "a.example"
    assert lifespans[0]["end_kind"] == "ObservedDeath"
    summary = json.loads((tmp_path / "watch.bindings.json").read_text())
    assert summary["domains"] == 1


@pytest.mark.parametrize("window,error", [
    (["--window-start", "2021-01-01", "--window-end", "2021-01-03",
      "--cadence-days", "1000000000"], "--cadence-days 1000000000 is out of range"),
    (["--window-start", "0001-01-01T00:00:00+01:00", "--window-end", "2021-01-01"],
     "0001-01-01T00:00:00+01:00: out of range in UTC"),
    (["--window-start", "2021-01-01", "--window-end", "9999-12-31T23:00:00-01:00"],
     "9999-12-31T23:00:00-01:00: out of range in UTC"),
], ids=["cadence-past-timedelta", "start-before-year-1-in-utc", "end-past-year-9999-in-utc"])
def test_watch_out_of_range_time_is_an_input_error(tmp_path, capsys, window, error):
    domains = tmp_path / "domains.txt"
    domains.write_text("a.example\n")
    assert main(["watch", str(domains), "--store", str(tmp_path / "store"),
                 "--output", str(tmp_path / "w"), *window,
                 "--script", _watch_script(tmp_path / "s.json", slice(None))]) == 1
    assert capsys.readouterr().err == f"error: {error}\n"
    assert not (tmp_path / "store").exists()


def test_watch_window_at_the_end_of_time(tmp_path):
    # the next tick after 9999-12-31 would pass datetime.max: 2 ticks, not a crash
    domains = tmp_path / "domains.txt"
    domains.write_text("a.example\n")
    script = tmp_path / "script.json"
    script.write_text(json.dumps({"resolutions": {"a.example": [["1.1.1.1"]]},
                                  "probes": {"a.example": [200]}}))
    assert main(["watch", str(domains), "--store", str(tmp_path / "store"),
                 "--output", str(tmp_path / "w"), "--window-start", "9999-12-30",
                 "--window-end", "9999-12-31T12:00:00", "--script", str(script)]) == 0
    lines = (tmp_path / "store" / "a.example.jsonl").read_text().splitlines()
    assert [json.loads(l)["ts"] for l in lines] == \
        ["9999-12-30T00:00:00Z"] * 2 + ["9999-12-31T00:00:00Z"] * 2


@pytest.mark.parametrize("listed,script", [
    ("", {}),
    ("a.example\n", {"resolutions": {"a.example": ["gap"]}}),
], ids=["no-domains", "every-tick-a-gap"])
def test_watch_lifespan_table_without_probes(tmp_path, listed, script):
    domains = tmp_path / "domains.txt"
    domains.write_text(listed)
    script_path = tmp_path / "script.json"
    script_path.write_text(json.dumps(script))
    assert main(["watch", str(domains), "--store", str(tmp_path / "store"),
                 "--output", str(tmp_path / "w"),
                 "--window-start", "2021-01-01", "--window-end", "2021-01-03",
                 "--script", str(script_path)]) == 0
    assert (tmp_path / "w.lifespan.csv").read_bytes() == b"Domain,Start,End,EndKind,Days\r\n"
    assert json.loads((tmp_path / "w.lifespan.json").read_text()) == []


def test_watch_skips_indented_comments(tmp_path):
    domains = tmp_path / "domains.txt"
    domains.write_text("# monitored\n  # indented note\n\ta.example \n")
    script = tmp_path / "script.json"
    script.write_text(json.dumps({"resolutions": {"a.example": [["1.1.1.1"]]},
                                  "probes": {"a.example": [200]}}))
    assert main(["watch", str(domains), "--store", str(tmp_path / "store"),
                 "--output", str(tmp_path / "w"),
                 "--window-start", "2021-01-01", "--window-end", "2021-01-02",
                 "--script", str(script)]) == 0
    assert [p.name for p in (tmp_path / "store").iterdir()] == ["a.example.jsonl"]
    lifespans = json.loads((tmp_path / "w.lifespan.json").read_text())
    assert [r["domain"] for r in lifespans] == ["a.example"]


# per tick: [resolver answer, prober answer]; the prober is asked only
# when the answer holds addresses
WATCH_PLAN = {
    "a.example": [[["1.1.1.1"], 200], [["1.1.1.1"], 200], ["gap", None],
                  [["2.2.2.2"], "gap"], [["2.2.2.2"], 503], [None, None],
                  [["3.3.3.3"], 200]],
    "b.example": [[[], None], [["1.1.1.1"], 302], [["1.1.1.1"], 200],
                  [["1.1.1.1"], 200], [None, None], [["4.4.4.4"], 404],
                  [["4.4.4.4"], 200]],
}
WATCH_SPLIT = 3
WATCH_OUTPUTS = (".lifespan.csv", ".lifespan.json", ".bindings.json")


def _watch_script(path, part, plans=WATCH_PLAN):
    script = {"resolutions": {}, "probes": {},
              "whois": {d: {"registrant": "r-" + d} for d in plans}}
    for d, plan in plans.items():
        script["resolutions"][d] = [ips for ips, _ in plan[part]]
        script["probes"][d] = [s for ips, s in plan[part] if ips not in ("gap", None, [])]
    path.write_text(json.dumps(script))
    return str(path)


def _watch(tmp_path, name, store, start, last_tick, part):
    domains = tmp_path / "domains.txt"
    domains.write_text("".join(d + "\n" for d in WATCH_PLAN))
    t0 = datetime.fromisoformat(start)
    script = _watch_script(tmp_path / f"{name}.script.json", part)
    return main(["watch", str(domains), "--store", str(tmp_path / store),
                 "--output", str(tmp_path / name), "--window-start", start,
                 "--window-end", (t0 + timedelta(days=last_tick)).isoformat(),
                 "--script", script])


def _store_lines(root):
    mask = re.compile(r'("kind":"whois",.*"ts":)"[^"]*"')
    return {p.name: [mask.sub(r'\1"-"', line) for line in p.read_text().splitlines()]
            for p in sorted(root.iterdir())}


def _assert_resume_matches_uninterrupted(tmp_path):
    for ext in WATCH_OUTPUTS:
        assert (tmp_path / f"resume{ext}").read_bytes() == (tmp_path / f"one{ext}").read_bytes()
    assert _store_lines(tmp_path / "split") == _store_lines(tmp_path / "whole")


@pytest.mark.parametrize("start", [
    "2021-01-01T00:00:00+00:00", "2021-01-01T00:00:00.5+00:00",
    "2021-01-01T08:00:00+08:00", "2021-01-01T08:00:00.999999+08:00"])
def test_watch_resume_equals_uninterrupted(tmp_path, start):
    n = len(WATCH_PLAN["a.example"])
    assert _watch(tmp_path, "one", "whole", start, n - 1, slice(None)) == 0
    assert _watch(tmp_path, "fresh", "split", start, WATCH_SPLIT - 1,
                  slice(0, WATCH_SPLIT)) == 0
    assert _watch(tmp_path, "resume", "split", start, n - 1, slice(WATCH_SPLIT, None)) == 0
    _assert_resume_matches_uninterrupted(tmp_path)
    # a further resume has nothing left to do and changes nothing
    before = _store_lines(tmp_path / "split")
    assert _watch(tmp_path, "again", "split", start, n - 1, slice(n, None)) == 0
    assert _store_lines(tmp_path / "split") == before
    for ext in WATCH_OUTPUTS:
        assert (tmp_path / f"again{ext}").read_bytes() == (tmp_path / f"one{ext}").read_bytes()


@pytest.mark.parametrize("tail", [
    '{"kind":"probe","payl',
    '{"kind":"resolution","payload":["9.9.9.9"],"ts":"2021-01-04T00:00:00Z"}',
], ids=["partial", "unterminated-record"])
def test_watch_resumes_after_torn_tail(tmp_path, tail):
    start, n = "2021-01-01T00:00:00+00:00", len(WATCH_PLAN["a.example"])
    assert _watch(tmp_path, "one", "whole", start, n - 1, slice(None)) == 0
    assert _watch(tmp_path, "fresh", "split", start, WATCH_SPLIT - 1,
                  slice(0, WATCH_SPLIT)) == 0
    with open(tmp_path / "split" / "a.example.jsonl", "a", encoding="utf-8") as f:
        f.write(tail)  # a crash in the middle of the next record
    assert _watch(tmp_path, "resume", "split", start, n - 1, slice(WATCH_SPLIT, None)) == 0
    _assert_resume_matches_uninterrupted(tmp_path)


@pytest.mark.parametrize("line", [
    '{"kind":"probe","payload":null,"ts":"2021-01-01T00:00:00Z"}',
    '["x"]',
], ids=["null-payload", "not-an-object"])
def test_watch_wrong_shaped_store_line_is_an_input_error(tmp_path, capsys, line):
    store = tmp_path / "store"
    store.mkdir()
    (store / "a.example.jsonl").write_text(line + "\n")
    code = _watch(tmp_path, "w", "store", "2021-01-01T00:00:00+00:00", 1, slice(0, 2))
    assert code == 1
    assert "a.example.jsonl, line 1: " in capsys.readouterr().err


def _pool_plan(i):
    """Eight ticks of every answer kind, rotated by the domain's index; the
    address 10.9.9.9 is shared between domains."""
    own = [f"10.0.0.{i}"]
    kinds = [[own, 200], ["gap", None], [None, None], [own, "gap"], [[], None],
             [["10.9.9.9"], 503], [own + [f"10.1.0.{i}"], 302], [own, None]]
    return kinds[i:] + kinds[:i]


# seven domains in tasks of two (cli._WATCH_CHUNK patched): four tasks,
# which two CPUs run in two workers
POOL_PLAN = {f"d{i}.example": _pool_plan(i) for i in range(7)}
POOL_SPLIT = 3


def _pool_watch_argv(tmp_path, store, name, part, plans=POOL_PLAN):
    domains = tmp_path / "pool-domains.txt"
    domains.write_text("".join(d + "\n" for d in plans))
    last = (part.stop or len(next(iter(plans.values())))) - 1
    return ["watch", str(domains), "--store", str(store), "--output", str(tmp_path / name),
            "--window-start", "2021-01-01", "--window-end", f"2021-01-{last + 1:02}",
            "--script", _watch_script(tmp_path / f"{name}.script.json", part, plans)]


def _watch_with_cpus(tmp_path, capsys, monkeypatch, cpus, store, part, plans=POOL_PLAN):
    """(exit code, outputs, store bytes, stderr lines) of one watch run."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: set(range(cpus)))
    name = f"w{cpus}"
    rc = main(_pool_watch_argv(tmp_path, store, name, part, plans))
    assert multiprocessing.active_children() == []
    outputs = {ext: (tmp_path / f"{name}{ext}").read_bytes() for ext in WATCH_OUTPUTS
               if (tmp_path / f"{name}{ext}").exists()}
    return rc, outputs, _store_bytes(store), capsys.readouterr().err.splitlines()


def _store_bytes(root):
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


def test_watch_pooled_matches_serial(tmp_path, capsys, monkeypatch):
    import concurrent.futures

    sizes = []

    class Recording(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
    monkeypatch.setattr(cli, "_WATCH_CHUNK", 2)
    first = tmp_path / "first"
    assert _watch_with_cpus(tmp_path, capsys, monkeypatch, 1, first,
                            slice(0, POOL_SPLIT))[0] == 0
    with open(first / "d3.example.jsonl", "a", encoding="utf-8") as f:
        f.write('{"kind":"probe","payl')  # a torn tail
    (first / "z.example.jsonl").write_text(  # a domain outside the list
        '{"kind":"resolution","payload":["10.9.9.9"],"ts":"2021-01-01T00:00:00Z"}\n'
        '{"kind":"probe","payload":{"alive":true,"detail":"2xx"},'
        '"ts":"2021-01-01T00:00:00Z"}\n')
    runs = []
    for cpus in (2, 1):
        store = tmp_path / f"store{cpus}"
        shutil.copytree(first, store)
        runs.append(_watch_with_cpus(tmp_path, capsys, monkeypatch, cpus, store,
                                     slice(POOL_SPLIT, None)))
    assert sizes == [2]
    assert runs[0] == runs[1]
    rc, outputs, stores, err = runs[1]
    assert (rc, err) == (0, [])
    assert list(stores) == [f"{d}.jsonl" for d in POOL_PLAN] + ["z.example.jsonl"]
    summary = json.loads(outputs[".bindings.json"])
    assert summary["domains"] == 8 and summary["type1"] > 0
    lifespans = json.loads(outputs[".lifespan.json"])
    assert [r["domain"] for r in lifespans] == list(POOL_PLAN) + ["z.example"]


def _rotating_plan(i):
    """Twelve ticks on which domain i resolves to a new address set each
    time, with NXDOMAIN, empty-set and outage ticks mixed in. Every domain
    but the last also takes an address of a small pool shared between
    domains on some ticks, so that both flexible types occur."""
    plan = []
    for k in range(12):
        ips = [f"10.{i}.{k}.1", f"10.{i}.{k}.2"][:1 + (i + k) % 2]
        if i < 5 and (i + k) % 3 == 0:
            ips.append(f"10.200.0.{k % 2}")
        kind = (i + k) % 5
        if kind == 1 and k % 2:
            plan.append(["gap", None])  # resolver outage
        elif kind == 2:
            plan.append([None, None])  # NXDOMAIN
        elif kind == 3 and k % 2:
            plan.append([[], None])  # no addresses
        else:
            plan.append([ips, ("gap", 200, 503)[k % 3]])
    return plan


# six domains in tasks of two (cli._WATCH_CHUNK patched): three tasks,
# which two CPUs run in two workers
ROTATING_PLAN = {f"r{i}.example": _rotating_plan(i) for i in range(6)}


def test_watch_rotating_addresses_pooled_matches_serial_and_the_oracle(tmp_path, capsys,
                                                                      monkeypatch):
    from apktriage.infrawatch.bindings import classify_bindings
    from apktriage.infrawatch.timeline import TimelineStore
    from apktriage.reportcli.emit import _json_string
    from test_infrawatch import binding_segments, overlap_loop_classes

    monkeypatch.setattr(cli, "_WATCH_CHUNK", 2)
    runs = []
    for cpus in (2, 1):
        store = tmp_path / f"store{cpus}"
        fresh = _watch_with_cpus(tmp_path, capsys, monkeypatch, cpus, store, slice(0, 5),
                                 ROTATING_PLAN)
        resumed = _watch_with_cpus(tmp_path, capsys, monkeypatch, cpus, store,
                                   slice(5, None), ROTATING_PLAN)
        assert fresh[0] == resumed[0] == 0 and fresh[3] == resumed[3] == []
        runs.append((fresh, resumed))
    assert runs[0] == runs[1]

    store = TimelineStore(tmp_path / "store1")
    timelines = [store.load(d) for d in store.domains()]
    assert [t.domain for t in timelines] == list(ROTATING_PLAN)
    assert all(t.gaps for t in timelines)
    want_kinds, want_summary = overlap_loop_classes(
        {t.domain: binding_segments(t) for t in timelines})
    kinds, _summary = classify_bindings(timelines)
    assert kinds == want_kinds
    _rc, outputs, _stores, _err = runs[1][1]  # the serial resume
    assert outputs[".bindings.json"] == _json_string(want_summary).encode()
    assert want_summary["type1"] == 5 and want_summary["type2"] == 1


@pytest.mark.parametrize("cpus", [2, 1], ids=["pooled", "serial"])
def test_watch_releases_the_scripted_backends_before_the_report(tmp_path, capsys,
                                                               monkeypatch, cpus):
    import weakref

    from apktriage.infrawatch.backends import ScriptedResolver
    from apktriage.reportcli import emit

    init, emit_report = ScriptedResolver.__init__, emit.emit_report
    resolvers, alive = [], []

    def recording(self, script):
        init(self, script)
        resolvers.append(weakref.ref(self))

    def emitting(out_base, *table):
        if out_base.endswith(".lifespan"):
            alive.extend(r() is not None for r in resolvers)
        return emit_report(out_base, *table)

    monkeypatch.setattr(ScriptedResolver, "__init__", recording)
    monkeypatch.setattr(emit, "emit_report", emitting)
    monkeypatch.setattr(cli, "_WATCH_CHUNK", 2)
    rc, outputs, _stores, err = _watch_with_cpus(tmp_path, capsys, monkeypatch, cpus,
                                                 tmp_path / "store", slice(None))
    assert (rc, err) == (0, [])
    assert ".lifespan.csv" in outputs
    assert len(resolvers) == 1 and alive == [False]


def _freeze_counts(items):
    return [gc.get_freeze_count() for _item in items]


def test_pool_workers_freeze_and_the_parent_collector_is_unchanged(tmp_path, capsys,
                                                                    monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: {0, 1})  # two workers
    parent = gc.isenabled(), gc.get_freeze_count()
    counts = list(cli._in_tasks(_freeze_counts, range(4), 1))
    assert len(counts) == 4 and all(n > 0 for n in counts), counts
    assert (gc.isenabled(), gc.get_freeze_count()) == parent

    (tmp_path / "apks").mkdir()
    _mixed_corpus(tmp_path / "apks")
    assert main(["scan", str(tmp_path / "apks"), "--output", str(tmp_path / "s.jsonl")]) == 1
    assert (gc.isenabled(), gc.get_freeze_count()) == parent
    monkeypatch.setattr(cli, "_WATCH_CHUNK", 2)
    rc = _watch_with_cpus(tmp_path, capsys, monkeypatch, 2, tmp_path / "store", slice(None))[0]
    assert rc == 0
    assert (gc.isenabled(), gc.get_freeze_count()) == parent


@pytest.mark.parametrize("fault, code", [("store-line", 1), (RuntimeError, 2), (ValueError, 1)])
def test_watch_error_in_a_later_task_exits_as_serial(tmp_path, capsys, monkeypatch,
                                                      fault, code):
    from apktriage.infrawatch.backends import ScriptedProber

    probe = ScriptedProber.probe

    def failing(self, domain, ts):  # forked workers inherit the patch
        if domain == "d5.example":
            raise fault("boom")
        return probe(self, domain, ts)

    if fault != "store-line":
        monkeypatch.setattr(ScriptedProber, "probe", failing)
    monkeypatch.setattr(cli, "_WATCH_CHUNK", 2)
    store, runs = tmp_path / "store", []
    for cpus in (2, 1):
        shutil.rmtree(store, ignore_errors=True)
        store.mkdir()
        if fault == "store-line":  # in the third task of four
            (store / "d5.example.jsonl").write_text('["x"]\n')
        rc, outputs, _stores, err = _watch_with_cpus(tmp_path, capsys, monkeypatch, cpus,
                                                     store, slice(None))
        assert outputs == {}
        runs.append((rc, err))
    assert runs[0] == runs[1]
    rc, err = runs[1]
    assert rc == code
    assert err == [f"error: {store / 'd5.example.jsonl'}, line 1: "
                   "a record is an object of exactly kind, payload and ts"
                   if fault == "store-line" else
                   f"{'internal error' if code == 2 else 'error'}: boom"]


# runs watch with the given usable CPUs, killing its own process at the
# fifth tick of d3.example, the second domain of the second task
_KILLED_WATCH = """
import os, signal, sys
from apktriage.infrawatch.backends import ScriptedProber
from apktriage.reportcli import cli
cpus = int(sys.argv[1])
os.sched_getaffinity = lambda _pid: set(range(cpus))
cli._WATCH_CHUNK = 2
probe = ScriptedProber.probe
def killing(self, domain, ts):
    if domain == "d3.example" and ts.day == 5:
        os.kill(os.getpid(), signal.SIGKILL)
    return probe(self, domain, ts)
ScriptedProber.probe = killing
sys.exit(cli.main(sys.argv[2:]))
"""


@pytest.mark.parametrize("cpus, code", [(1, -signal.SIGKILL), (2, 2)], ids=["serial", "pooled"])
def test_watch_resumes_after_a_kill(tmp_path, monkeypatch, cpus, code):
    from apktriage.infrawatch.timeline import TimelineStore

    killed = _pool_watch_argv(tmp_path, tmp_path / "killed", "killed", slice(None))
    proc = subprocess.run([sys.executable, "-c", _KILLED_WATCH, str(cpus), *killed],
                          env=_src_env(), capture_output=True, timeout=60)
    assert proc.returncode == code
    store = TimelineStore(tmp_path / "killed")
    for d in store.domains():
        store.load(d)  # every file loads
    assert "d3.example" not in store.domains()  # the domain in progress is lost
    if cpus == 1:
        assert store.domains() == ["d0.example", "d1.example", "d2.example"]
    monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: set(range(cpus)))
    monkeypatch.setattr(cli, "_WATCH_CHUNK", 2)
    assert main(killed) == 0  # the same command again
    assert main(_pool_watch_argv(tmp_path, tmp_path / "whole", "whole", slice(None))) == 0
    assert multiprocessing.active_children() == []
    for ext in WATCH_OUTPUTS:
        assert (tmp_path / f"killed{ext}").read_bytes() == (tmp_path / f"whole{ext}").read_bytes()
    assert _store_bytes(tmp_path / "killed") == _store_bytes(tmp_path / "whole")


@pytest.mark.parametrize("flag,body", [
    ("--manifest-mtimes", "[]"),
    ("--manifest-mtimes", '{"a.example": 5}'),
    ("--manifest-mtimes", "{"),
    ("--script", "[]"),
    ("--script", '{"resolutions": []}'),
    ("--script", '{"probes": null}'),
    ("--script", '{"whois": []}'),
    ("--script", '{"whois": {"a.example": []}}'),
    ("--script", "[" * 100_000 + "]" * 100_000),
    ("--script", '{"resolutions": {"a.example": 5}}'),
    ("--script", '{"resolutions": {"a.example": [[5]]}}'),
    ("--script", '{"resolutions": {"a.example": ["1.1.1.1"]}}'),
    ("--script", '{"probes": {"a.example": ["x"]}}'),
    ("--script", '{"probes": {"a.example": [true]}}'),
    ("--script", '{"probes": {"a.example": [200.5]}}'),
    ("--script", '{"probes": {"a.example": [-1]}}'),
    ("--script", '{"probes": {"a.example": [0]}}'),
    ("--script", '{"probes": {"a.example": [99]}}'),
    ("--script", '{"probes": {"a.example": [600]}}'),
    ("--script", '{"whois": {"a.example": {"registrant": 5}}}'),
], ids=["mtimes-list", "mtimes-int", "mtimes-not-json", "script-list",
        "script-resolutions-list", "script-probes-null", "script-whois-list",
        "script-whois-record-list", "script-deep", "script-resolutions-int",
        "script-resolution-of-ints", "script-resolution-string", "script-probe-string",
        "script-probe-bool", "script-probe-float", "script-probe-negative",
        "script-probe-zero", "script-probe-99", "script-probe-600", "script-whois-field-int"])
def test_watch_wrong_shaped_side_input_is_an_input_error(tmp_path, capsys, flag, body):
    domains = tmp_path / "domains.txt"
    domains.write_text("a.example\n")
    side = tmp_path / "side.json"
    side.write_text(body)
    argv = ["watch", str(domains), "--store", str(tmp_path / "store"),
            "--output", str(tmp_path / "w"),
            "--window-start", "2021-01-01", "--window-end", "2021-01-02", flag, str(side)]
    if flag != "--script":
        argv += ["--script", _watch_script(tmp_path / "s.json", slice(None))]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith(f"error: {side}: ")
    assert list((tmp_path / "store").glob("*")) == []  # checked before any tick


def _fingerprint(**fields):
    fp = {"generator_id": "g", "rules": [{"kind": "asset_path", "value": "assets/g/"}]}
    return json.dumps([{**fp, **fields}])


@pytest.mark.parametrize("body", [
    "[" * 100_000,
    '{"x": 1}',
    "[5]",
    '[{"generator_id": "g", "rules": [{"kind": "asset_path"}]}]',
    _fingerprint(generator_id=5),
    '[{"rules": [{"kind": "asset_path", "value": "assets/g/"}]}]',
    _fingerprint(rules="asset_path"),
    _fingerprint(rules=[["asset_path", "assets/g/"]]),
    _fingerprint(rules=[{"kind": 5, "value": "assets/g/"}]),
    _fingerprint(rules=[{"kind": "asset_path", "value": None}]),
    _fingerprint(cipher=[]),
    _fingerprint(cipher={"algo": ["RC4"]}),
    _fingerprint(cipher={"algo": "RC4", "key_source": "external"}),
    _fingerprint(protected_paths="assets/g/"),
    _fingerprint(protected_paths=[5]),
    _fingerprint(cipher={"algo": "RC4", "key_source": {"type": "constant", "hex": "zz"}}),
    _fingerprint(cipher={"algo": "RC4", "key_source": {"type": "constant", "hex": 5}}),
    _fingerprint(cipher={"algo": "RC4", "key_source": {"type": "constant", "hex": ""}}),
    _fingerprint(cipher={"algo": "RC4", "key_source": {"type": "entry_offset"}}),
    _fingerprint(cipher={"algo": "RC4", "key_source": {
        "type": "entry_offset", "path": "res/raw/k.bin", "offset": -1, "length": 16}}),
    _fingerprint(cipher={"algo": "RC4", "key_source": {
        "type": "entry_offset", "path": "res/raw/k.bin", "offset": 0, "length": "16"}}),
], ids=["deep", "object", "list-of-int", "rule-without-value", "generator-id-int",
        "no-generator-id", "rules-string", "rule-list", "rule-kind-int", "rule-value-null",
        "cipher-list", "cipher-algo-list", "cipher-key-source-string",
        "protected-paths-string", "protected-path-int", "constant-key-not-hex",
        "constant-key-int", "constant-key-empty", "entry-offset-key-without-path",
        "entry-offset-key-negative", "entry-offset-key-length-string"])
def test_scan_wrong_shaped_fingerprint_db_is_an_input_error(tmp_path, capsys, body):
    db = tmp_path / "generators.json"
    db.write_text(body)
    (tmp_path / "apks").mkdir()
    assert main(["scan", str(tmp_path / "apks"), "--fingerprint-db", str(db)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {db}: ")


def test_watch_rejects_unmappable_domain(tmp_path, capsys):
    domains = tmp_path / "domains.txt"
    domains.write_text("a.example\nx/y.example\n")
    store = tmp_path / "store"
    code = main(["watch", str(domains), "--store", str(store),
                 "--output", str(tmp_path / "w"),
                 "--window-start", "2021-01-01", "--window-end", "2021-01-03",
                 "--script", _watch_script(tmp_path / "s.json", slice(None))])
    assert code == 1
    assert "x/y.example" in capsys.readouterr().err
    assert list(store.iterdir()) == []


def test_payclass_cli(tmp_path):
    obs = tmp_path / "obs.jsonl"
    lines = [
        {"session_id": "s1", "request_index": i, "amount": "1.00",
         "payment_domain": "shady.example", "recipient_id": f"acct-{i}",
         "channel_hint": "BankTransfer"}
        for i in (1, 2, 3)]
    obs.write_text("".join(json.dumps(r) + "\n" for r in lines))
    licensed = tmp_path / "licensed.txt"
    licensed.write_text("pay.licensed.example\n")
    out = tmp_path / "pay.json"
    assert main(["payclass", str(obs), "--licensed-db", str(licensed),
                 "--output", str(out)]) == 0
    result = json.loads(out.read_text())
    assert result["sessions"][0]["service_kind"] == "FourthParty"
    assert result["fourth_party_channels"][0]["channel"] == "BankTransfer"


def test_payclass_without_licensed_db(tmp_path):
    obs = tmp_path / "obs.jsonl"
    obs.write_text(json.dumps(
        {"session_id": "s1", "request_index": 1, "amount": "1.00",
         "payment_domain": "pay.example", "recipient_id": "acct-1",
         "channel_hint": "BankTransfer"}) + "\n")
    out = tmp_path / "p.json"
    assert main(["payclass", str(obs), "--output", str(out)]) == 0
    assert json.loads(out.read_text())["sessions"][0]["session_id"] == "s1"


def test_payclass_licensed_db_inline_comment(tmp_path):
    obs = tmp_path / "obs.jsonl"
    obs.write_text("".join(json.dumps(
        {"session_id": "s1", "request_index": i, "amount": "1.00",
         "payment_domain": "pay.example", "recipient_id": "acct-1"}) + "\n"
        for i in (1, 2, 3)))
    licensed = tmp_path / "licensed.txt"
    licensed.write_text("# licensed payment services\nPay.Example  # licensed 2020\n")
    out = tmp_path / "p.json"
    assert main(["payclass", str(obs), "--licensed-db", str(licensed),
                 "--output", str(out)]) == 0
    assert json.loads(out.read_text())["sessions"][0]["service_kind"] == "ThirdParty"


def test_report_cli_and_invalid_labels(tmp_path):
    labels = tmp_path / "labels.jsonl"
    labels.write_text(
        '{"sample_id":"a","top":"Sex","sub":"Live Porn","tactics":["P2"]}\n'
        '{"sample_id":"b","top":"Sex","sub":"Gambling Games"}\n')
    out = tmp_path / "report"
    assert main(["report", str(labels), "--output", str(out)]) == 1
    assert main(["report", str(labels), "--output", str(out),
                 "--ignore-invalid"]) == 0
    assert (tmp_path / "report.csv").exists()


def test_input_error_exit_code(tmp_path):
    assert main(["scan", str(tmp_path / "missing.apk"),
                 "--output", str(tmp_path / "o")]) == 1


# every flag of every verb; a setting has no other source
VERB_OPTIONS = {
    "scan": {"--output", "--fingerprint-db", "--whitelist", "--suffix-list",
             "--dangerous-permission-file"},
    "assoc": {"--output", "--corpus-size"},
    "watch": {"--store", "--output", "--window-start", "--window-end", "--cadence-days",
              "--script", "--manifest-mtimes"},
    "payclass": {"--licensed-db", "--output"},
    "report": {"--output", "--ignore-invalid"},
}


def _options(parser):
    return {o for a in parser._actions for o in a.option_strings
            if o.startswith("--") and o != "--help"}


def test_cli_option_sets():
    parser = build_parser()
    assert _options(parser) == set()
    verbs = next(a for a in parser._actions
                 if isinstance(a, argparse._SubParsersAction)).choices
    assert {verb: _options(p) for verb, p in verbs.items()} == VERB_OPTIONS
    assert sum(map(len, VERB_OPTIONS.values())) == 18


def test_cli_accepts_benchmark_argv():
    # the argv shapes triagebench/gen.py passes, copied as literals
    parse = build_parser().parse_args
    for extra in (["--whitelist", "w/whitelist.csv"],
                  ["--fingerprint-db", "w/fingerprints.json"]):
        args = parse(["scan", "w/apks", "--output", "w/out/scan.jsonl"] + extra)
        assert args.func is cli.cmd_scan and args.output == "w/out/scan.jsonl"
        assert (args.whitelist or args.fingerprint_db) == extra[1]
    args = parse(["assoc", "w/features.jsonl", "--output", "w/out/assoc/groups"])
    assert args.func is cli.cmd_assoc and args.corpus_size is None
    args = parse(["report", "w/labels.jsonl", "--output", "w/out/report/corpus"])
    assert args.func is cli.cmd_report and not args.ignore_invalid
    args = parse(["payclass", "w/observations.jsonl", "--licensed-db", "w/licensed.txt",
                  "--output", "w/out/pay.json"])
    assert args.func is cli.cmd_payclass and args.licensed_db == "w/licensed.txt"
    args = parse(["watch", "w/domains.txt", "--store", "w/store", "--output", "w/out/fresh",
                  "--window-start", "2020-12-06T00:00:00+00:00",
                  "--window-end", "2021-02-19T00:00:00+00:00",
                  "--cadence-days", "1", "--script", "w/script-0.json",
                  "--manifest-mtimes", "w/mtimes.json"])
    assert args.func is cli.cmd_watch and args.cadence_days == 1
    assert (args.window_start, args.manifest_mtimes) == \
        ("2020-12-06T00:00:00+00:00", "w/mtimes.json")


@pytest.mark.parametrize("argv", [
    ["assoc", "x.jsonl"],
    ["bogus"],
    [],
    ["--config", "c.json", "assoc", "x.jsonl", "--output", "a"],
    ["assoc", "x.jsonl", "--output", "a", "--i-max", "2"],
    ["watch", "d.txt", "--store", "s", "--output", "w", "--window-end", "2021-01-02"],
], ids=["missing-output", "unknown-verb", "no-verb", "config-file", "removed-flag",
        "watch-without-window-start"])
def test_usage_error_is_an_input_error(argv, capsys):
    assert main(argv) == 1
    assert "usage:" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert main(["assoc", "--help"]) == 0
    out = capsys.readouterr().out
    assert "--corpus-size" in out and "--i-max" not in out


def _src_env():
    """The environment, with this package first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(apktriage.__file__))
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


# a verb run in a fresh interpreter; prints which heavy modules it loaded
_PROBE = """
import json, sys
from apktriage.reportcli.cli import main
rc = main(sys.argv[1:])
top = {m.partition(".")[0] for m in sys.modules}
print(json.dumps({"rc": rc, "numpy": "numpy" in top, "cryptography": "cryptography" in top,
                  "pool": "multiprocessing" in top or "concurrent" in top,
                  "apktriage": sorted(m for m in sys.modules if m.startswith("apktriage"))}))
"""


def _fresh_run(argv):
    proc = subprocess.run([sys.executable, "-c", _PROBE, *argv], env=_src_env(),
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


# what running each verb loads of apktriage, besides the entry point
# (apktriage, apktriage.reportcli, apktriage.reportcli.cli)
VERB_MODULES = {
    "scan": ["apkcore", "apkcore.artifact", "apkcore.axml", "apkcore.certs",
             "apkcore.errors", "apkcore.manifest", "apkcore.permissions", "apkcore.zipread",
             "data", "extract", "extract.paradigm", "extract.psl", "extract.urls",
             "genscan", "genscan.ciphers", "genscan.content", "genscan.fingerprints",
             "reportcli.emit", "util"],
    "assoc": ["apkcore", "apkcore.certs", "apkcore.errors",
              "assoc", "assoc.features", "assoc.graph", "assoc.rules", "assoc.stats",
              "reportcli.emit", "reportcli.taxonomy", "util"],
    "watch": ["infrawatch", "infrawatch.backends", "infrawatch.bindings",
              "infrawatch.lifespan", "infrawatch.schedule", "infrawatch.timeline",
              "reportcli.emit", "util"],
    "payclass": ["payclass", "payclass.sessions", "reportcli.emit", "util"],
    "report": ["reportcli.aggregate", "reportcli.emit", "reportcli.taxonomy", "util"],
}


def test_verbs_import_only_what_they_use(tmp_path):
    labels = tmp_path / "labels.jsonl"
    labels.write_text('{"sample_id":"a","top":"Sex","sub":"Live Porn","tactics":["P2"]}\n')
    obs = tmp_path / "obs.jsonl"
    obs.write_text(json.dumps(
        {"session_id": "s1", "request_index": 1, "amount": "1.00",
         "payment_domain": "pay.example", "recipient_id": "acct-1",
         "channel_hint": "BankTransfer"}) + "\n")
    domains = tmp_path / "domains.txt"
    domains.write_text("a.example\n")
    script = tmp_path / "script.json"
    script.write_text(json.dumps({"resolutions": {"a.example": [["1.1.1.1"]]},
                                  "probes": {"a.example": [200]}}))
    apk = tmp_path / "a.apk"
    apk.write_bytes(build_apk(package="com.a"))
    features = tmp_path / "f.jsonl"
    features.write_text(json.dumps(
        {"sample_id": "s1", "signature": {"fingerprint": "f1", "dn_fields": {"commonName": "x"},
                                          "signature_class": "DeveloperSpecific"},
         "urls": [], "domains": [], "ip_literals": [], "resolved_ips": [], "fingerprints": [],
         "label": None}) + "\n")
    runs = {
        "scan": [str(apk), "--output", str(tmp_path / "s.jsonl")],
        "assoc": [str(features), "--output", str(tmp_path / "g")],
        "watch": [str(domains), "--store", str(tmp_path / "store"),
                  "--output", str(tmp_path / "w"), "--window-start", "2021-01-01",
                  "--window-end", "2021-01-02", "--script", str(script)],
        "payclass": [str(obs), "--output", str(tmp_path / "p.json")],
        "report": [str(labels), "--output", str(tmp_path / "r")],
    }
    entry = ["apktriage", "apktriage.reportcli", "apktriage.reportcli.cli"]
    for verb, argv in runs.items():  # one fresh interpreter at a time
        result = _fresh_run([verb, *argv])
        assert result == {
            "rc": 0,
            "apktriage": sorted(entry + ["apktriage." + m for m in VERB_MODULES[verb]]),
            "numpy": False,
            # only scan parses signature blocks
            "cryptography": verb == "scan",
            # a one-APK scan runs in this process
            "pool": False,
        }, verb
