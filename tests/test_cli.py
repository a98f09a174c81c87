"""End-to-end command-line tests over fixture inputs."""

import json

import pytest

from apktriage.reportcli.cli import main

from apk_builder import build_apk


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


def test_scan_output_into_missing_directory(tmp_path):
    apk = tmp_path / "sample.apk"
    apk.write_bytes(build_apk(package="com.a"))
    out = tmp_path / "new" / "sub" / "scan.jsonl"
    assert main(["scan", str(apk), "--output", str(out)]) == 0
    assert json.loads(out.read_text())["package"] == "com.a"


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


def test_config_file_defaults(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"i_max": 0}))
    features = tmp_path / "f.jsonl"
    features.write_text(json.dumps(
        {"sample_id": "s1", "signature": None, "urls": [], "domains": [],
         "ip_literals": [], "resolved_ips": [], "fingerprints": [],
         "label": None}) + "\n")
    out = tmp_path / "a"
    assert main(["--config", str(cfg), "assoc", str(features),
                 "--output", str(out)]) == 0
