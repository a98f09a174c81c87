"""Every function under ``src/apktriage`` is reached by some verb.

One fresh interpreter runs each of the five verbs through ``cli.main``,
in that process, on small fixtures, with ``sys.setprofile`` recording
every Python function called. The profiler is installed before
``apktriage`` is imported, so the calls made while the modules load
count too. ``scan`` gets at most ``_CHUNK`` APKs per call and ``watch``
at most ``_WATCH_CHUNK`` domains, so ``_in_tasks`` runs them in this one
process on any CPU count.

Every ``def`` is listed with ``ast``. One that no verb calls fails the
test, unless it is on ``ALLOWED`` below with its reason; an allowlisted
function that a verb does call, or that no longer exists, fails it too.

Every annotated field of a class is listed the same way. One whose name
no ``src`` code reads as an attribute fails, unless it is on
``FIELDS_ALLOWED`` with its reason; an allowlisted field that is read, or
that no longer exists, fails too.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import apktriage
from apktriage.reportcli.cli import _CHUNK, _WATCH_CHUNK

from apk_builder import build_apk
from axml_writer import build_manifest
from cipher_oracles import (oracle_aes_cbc_encrypt, oracle_des_cbc_encrypt, oracle_rc4,
                            oracle_tea_encrypt)
from test_cli import _src_env

SRC = Path(apktriage.__file__).resolve().parent

# "module:qualname" of each function that no verb calls, with why it stays
_PAIR_REFERENCE = "the per-pair rule reference that the tests hold build_graph to"
_PAPER_TABLE = "a table of the paper that report does not fill yet"
_ENCRYPT = "the encrypt side: acceptance criterion 1's round trips, published vectors"
ALLOWED = {
    "assoc.rules:overlap": _PAIR_REFERENCE,
    "assoc.rules:assoc_signature": _PAIR_REFERENCE,
    "assoc.rules:shared_ip": _PAIR_REFERENCE,
    "assoc.rules:assoc_snapshot": _PAIR_REFERENCE,
    "assoc.rules:fired_rules": _PAIR_REFERENCE + "; a benchmark trace target",
    "infrawatch.bindings:classify_bindings":
        "a benchmark trace target; cmd_watch classifies the workers' binding summaries",
    "infrawatch.registrants:registrant_stats": "acceptance criterion 8",
    "reportcli.aggregate:generator_stats": _PAPER_TABLE,
    "reportcli.aggregate:paradigm_stats": _PAPER_TABLE,
    "reportcli.aggregate:permission_aggregate": _PAPER_TABLE,
    "reportcli.aggregate:permission_aggregate.means": _PAPER_TABLE,
    "genscan.ciphers:tea_encrypt": _ENCRYPT,
    "genscan.ciphers:tea_encrypt_raw": _ENCRYPT,
    "genscan.ciphers:tea_decrypt_raw": _ENCRYPT,
    "genscan.ciphers:aes_cbc_encrypt": _ENCRYPT,
    "genscan.ciphers:des_cbc_encrypt": _ENCRYPT,
    "genscan.ciphers:_pkcs7_pad": _ENCRYPT,
    "infrawatch.backends:Resolver.resolve": "a protocol declaration",
    "infrawatch.backends:Prober.probe": "a protocol declaration",
    "infrawatch.backends:WhoisClient.lookup": "a protocol declaration",
    "infrawatch.backends:DnsResolver.resolve": "needs the network; the fixtures are scripted",
    "infrawatch.backends:HttpProber.probe": "needs the network; the fixtures are scripted",
    "reportcli.cli:_run_task": "runs only in pool workers, which the profiler does not see",
}

# "module:Class.field" of each field that no src code reads, with why it stays
FIELDS_ALLOWED = {
    "infrawatch.timeline:Probe.detail":
        "the store writes and checks a probe's reason, but no output reads it yet",
}


def defined_functions(root: Path) -> dict[tuple[str, int], str]:
    """``(file, first line) -> "module:qualname"`` of every ``def`` under
    ``root``. The first line is that of the first decorator, if any, as in
    a code object's ``co_firstlineno``."""
    found = {}
    for path in sorted(root.rglob("*.py")):
        module = ".".join(path.relative_to(root).with_suffix("").parts)

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    name = prefix + child.name
                    if not isinstance(child, ast.ClassDef):
                        first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                        found[str(path.resolve()), first] = f"{module}:{name}"
                    visit(child, name + ".")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return found


# run in a fresh interpreter: argv lists in, the called functions out
_CHILD = """
import json, sys

called = set()

def profile(frame, event, arg):
    if event == "call":
        called.add(frame.f_code)

runs = json.loads(sys.stdin.read())
sys.setprofile(profile)
from apktriage.reportcli.cli import main
codes = [main(argv) for argv in runs]
sys.setprofile(None)
print(json.dumps({"codes": codes,
                  "called": sorted({(c.co_filename, c.co_firstlineno) for c in called})}))
"""


def _apk_fixtures(d: Path) -> list[list[str]]:
    """Writes the APKs, side files and fingerprint database under ``d``;
    returns the ``scan`` argv lists, each of at most ``_CHUNK`` APKs."""
    key16, key8 = bytes(range(16)), bytes(range(8))
    page = b"<html>see https://shop.example.com/pay</html>"
    plain = d / "plain"
    plain.mkdir()
    (plain / "a.apk").write_bytes(build_apk(
        package="com.shop.a", permissions=("android.permission.INTERNET",
                                           "android.permission.READ_SMS"),
        extra_files={"assets/www/index.html": page,
                     "res/raw/blob.bin": b"\x00\x01" + page + b"\xff"}))
    (plain / "b.apk").write_bytes(build_apk(  # unsigned, with a UTF-16 string pool
        package="com.shop.b", signer_dn=None,
        manifest_bytes=build_manifest("com.shop.b", utf8=False)))
    (plain / "c.apk").write_bytes(b"not a zip file")

    db = [
        {"generator_id": "RcGen", "rules": [{"kind": "asset_path", "value": "assets/rc/"},
                                            {"kind": "native_lib", "value": "librc.so"}],
         "cipher": {"algo": "RC4", "key_source": {"type": "constant", "hex": key16.hex()}},
         "protected_paths": ["assets/rc/"]},
        {"generator_id": "TeaGen", "rules": [{"kind": "package_prefix", "value": "com.tea."}],
         "cipher": {"algo": "TEA", "key_source": {
             "type": "entry_offset", "path": "res/raw/k.bin", "offset": 2, "length": 16}},
         "protected_paths": ["assets/tea/"]},
        {"generator_id": "AesGen", "rules": [{"kind": "main_activity", "value": "x.Aes"}],
         "cipher": {"algo": "AES_CBC", "key_source": {"type": "constant", "hex": key16.hex()}},
         "protected_paths": ["assets/aes/"]},
        {"generator_id": "DesGen", "rules": [{"kind": "package_prefix", "value": "com.des."}],
         "cipher": {"algo": "DES_CBC", "key_source": {"type": "constant", "hex": key8.hex()}},
         "protected_paths": ["assets/des/"]},
    ]
    (d / "db.json").write_text(json.dumps(db))
    secret = b"<html>https://hidden.example.net/api</html>"
    prot = d / "protected"
    prot.mkdir()
    (prot / "rc.apk").write_bytes(build_apk(package="com.rc.app", extra_files={
        "assets/rc/a.html": oracle_rc4(secret, key16), "lib/arm64-v8a/librc.so": b"\x7fELF"}))
    (prot / "tea.apk").write_bytes(build_apk(package="com.tea.app", extra_files={
        "assets/tea/a.js": oracle_tea_encrypt(secret, key16),
        "res/raw/k.bin": b"xx" + key16}))
    (prot / "aes.apk").write_bytes(build_apk(
        package="com.aes.app", main_activity="x.Aes",
        extra_files={"assets/aes/a.json": oracle_aes_cbc_encrypt(secret, key16)}))
    (prot / "des.apk").write_bytes(build_apk(package="com.des.app", extra_files={
        "assets/des/a.xml": oracle_des_cbc_encrypt(secret, key8)}))
    assert all(len(list(p.glob("*.apk"))) <= _CHUNK for p in (plain, prot))
    (d / "whitelist.txt").write_text("# top sites\nexample.com\n")
    return [
        [str(plain), "--output", str(d / "plain.jsonl"), "--whitelist",
         str(d / "whitelist.txt")],
        [str(prot), "--output", str(d / "protected.jsonl"), "--fingerprint-db",
         str(d / "db.json")],
    ]


def _features(d: Path) -> Path:
    dev = {"commonName": "A", "organization": "B", "locality": "C", "country": "CN"}
    rows = [
        {"sample_id": "s1", "signature": {"fingerprint": "f1", "dn_fields": dev},
         "domains": ["a.example", "b.example"], "resolved_ips": ["10.0.0.1"],
         "fingerprints": [{"hash": "00000000000000ff", "source": "splash.png"}],
         "label": {"top": "Gambling"}},
        {"sample_id": "s2", "signature": {"fingerprint": "f2", "dn_fields": dev},
         "domains": ["a.example", "b.example"], "resolved_ips": ["10.0.0.1"],
         "fingerprints": [{"hash": "00000000000000fe"}], "label": "Sex"},
    ]
    path = d / "features.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in rows) + "\n")
    return path


def _watch_runs(d: Path) -> list[list[str]]:
    domains = ["fixed.example", "flex.example", "flaky.example", "quiet.example"]
    assert len(domains) <= _WATCH_CHUNK
    (d / "domains.txt").write_text("# watched\n" + "\n".join(domains) + "\n\n")
    script = {
        "resolutions": {"fixed.example": [["1.1.1.1"]],
                        "flex.example": [["1.1.1.1"], ["1.1.1.1"], ["2.2.2.2"], ["3.3.3.3"]],
                        "flaky.example": [["5.5.5.5"], "gap", ["5.5.5.5"]],
                        "quiet.example": [["6.6.6.6"], []]},
        "probes": {"fixed.example": [200], "flex.example": [200, 301, 404],
                   "flaky.example": [200, "gap", None],
                   "quiet.example": [None]},
        "whois": {"fixed.example": {"registrant": "r1", "country": "CN"},
                  "flex.example": {"registrant": "r2", "created": "2020-01-01"}},
    }
    (d / "script.json").write_text(json.dumps(script))
    (d / "mtimes.json").write_text(json.dumps({"fixed.example": "2020-12-01T08:00:00+08:00"}))
    # a stored line off the shapes the store writes (spaced, as json.dumps
    # spaces it), which loads through the checked path
    (d / "store").mkdir()
    (d / "store" / "quiet.example.jsonl").write_text(json.dumps(
        {"kind": "gap", "payload": "before the window", "ts": "2020-12-31T00:00:00Z"}) + "\n")
    base = [str(d / "domains.txt"), "--store", str(d / "store"), "--output",
            str(d / "watch"), "--script", str(d / "script.json"),
            "--manifest-mtimes", str(d / "mtimes.json"), "--window-start", "2021-01-01"]
    # a first run, then a resume over a longer window that loads the store
    return [base + ["--window-end", "2021-01-04"],
            base + ["--window-end", "2021-01-08T12:00:00", "--cadence-days", "2"]]


def _payclass(d: Path) -> list[str]:
    obs = {"session_id": "s1", "request_index": 1, "amount": "1.00",
           "payment_domain": "pay.example", "recipient_id": "acct-1"}
    (d / "obs.jsonl").write_text(json.dumps(obs) + "\n")
    (d / "licensed.txt").write_text("# licensed\npay.licensed.example\n")
    return [str(d / "obs.jsonl"), "--licensed-db", str(d / "licensed.txt"),
            "--output", str(d / "pay.json")]


def _report(d: Path) -> list[str]:
    label = {"sample_id": "a", "top": "Gambling", "sub": "Lotteries", "tactics": ["P1"]}
    (d / "labels.jsonl").write_text(json.dumps(label) + "\n")
    return [str(d / "labels.jsonl"), "--output", str(d / "report")]


def _reached(tmp_path: Path) -> set[tuple[str, int]]:
    runs = [["scan", *argv] for argv in _apk_fixtures(tmp_path)]
    runs.append(["assoc", str(_features(tmp_path)), "--output", str(tmp_path / "groups")])
    runs += [["watch", *argv] for argv in _watch_runs(tmp_path)]
    runs.append(["payclass", *_payclass(tmp_path)])
    runs.append(["report", *_report(tmp_path)])
    proc = subprocess.run([sys.executable, "-c", _CHILD], input=json.dumps(runs),
                          env=_src_env(), capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    # scan exits 1 on the plain corpus, for its file that is no ZIP
    assert result["codes"] == [1, 0, 0, 0, 0, 0, 0], proc.stderr
    return {(str(Path(path).resolve()), line) for path, line in result["called"]}


def test_every_function_is_reached_or_allowed(tmp_path):
    defs = defined_functions(SRC)
    reached = {defs[c] for c in _reached(tmp_path) if c in defs}
    defined = set(defs.values())
    problems = [f"{what}: {', '.join(sorted(names))}" for what, names in (
        ("no verb calls these functions", defined - reached - ALLOWED.keys()),
        ("allowlisted but not defined", ALLOWED.keys() - defined),
        ("allowlisted but a verb calls them", ALLOWED.keys() & reached)) if names]
    assert not problems, "; ".join(problems)


def fields_and_reads(root: Path) -> tuple[dict[str, str], set[str]]:
    """``"module:Class.field" -> field`` of every annotated field of a class
    under ``root``, and the set of names that code there reads as an
    attribute (``x.name`` in a load)."""
    fields, reads = {}, set()
    for path in sorted(root.rglob("*.py")):
        module = ".".join(path.relative_to(root).with_suffix("").parts)
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                for stmt in node.body:
                    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                        fields[f"{module}:{node.name}.{stmt.target.id}"] = stmt.target.id
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.add(node.attr)
    return fields, reads


def test_every_field_is_read_or_allowed():
    fields, reads = fields_and_reads(SRC)
    unread = {key for key, name in fields.items() if name not in reads}
    problems = [f"{what}: {', '.join(sorted(keys))}" for what, keys in (
        ("no src code reads these fields", unread - FIELDS_ALLOWED.keys()),
        ("allowlisted but not defined", FIELDS_ALLOWED.keys() - fields.keys()),
        ("allowlisted but read", FIELDS_ALLOWED.keys() & (fields.keys() - unread))) if keys]
    assert not problems, "; ".join(problems)
