"""Seeded input generation for the four benchmark workloads.

``generate(workload, seed, work_dir, root)`` writes the program's inputs
under ``work_dir`` together with ``truth.json`` (what was planted, the
oracle the checkers compare against) and returns the run spec that
``measure.py`` executes. The same seed gives byte-identical files.
Nothing here imports the package under test; the only program file read
is the shipped generator fingerprint database, whose evidence rules say
what a sample of each generator must contain.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import string
from datetime import date, datetime, timedelta, timezone

import apkgen

WORKLOADS = ("scan-plain", "scan-protected", "assoc-report", "watch-resume")

# registrable suffixes that the shipped public-suffix snapshot lists
SUFFIXES = ("com", "net", "xyz", "top", "vip", "cc", "org", "com.cn", "net.cn")
SUBDOMAINS = ("api", "www", "m", "pay", "cdn", "h5", "ws", "img")
# hosts whose registrable domain is on the shipped third-party list
THIRD_PARTY_URLS = (
    "https://www.google-analytics.com/analytics.js",
    "https://fonts.googleapis.com/css",
    "https://fonts.gstatic.com/s/roboto/v20/font.woff2",
    "https://settings.crashlytics.com/spi/v2/platforms/android",
    "https://alog.umeng.com/app_logs",
    "https://g.alicdn.com/sd/ncpc/nc.js",
)
PERMISSIONS = (
    "android.permission.INTERNET", "android.permission.ACCESS_NETWORK_STATE",
    "android.permission.READ_PHONE_STATE", "android.permission.CAMERA",
    "android.permission.READ_CONTACTS", "android.permission.ACCESS_FINE_LOCATION",
    "android.permission.WAKE_LOCK", "android.permission.VIBRATE",
    "android.permission.RECORD_AUDIO", "android.permission.READ_SMS",
)
MTIME = (2020, 11, 20, 9, 30, 0)

SCAN_PLAIN_APKS = 200
SCAN_PLAIN_NATIVE_SHARE = 4          # every 4th plain sample has no generator
SCAN_DEVELOPERS = 8
PROTECTED_PER_GENERATOR = 6          # one of them carries a wrong key
PROTECTED_PLAINTEXT = 2048           # bytes of each protected asset
ASSOC_SAMPLES = 2000
ASSOC_DENSE_GROUPS = 3
ASSOC_DENSE_SIZE = 150
ASSOC_SMALL_SIZES = tuple(range(2, 13))   # small groups cycle through these sizes
ASSOC_SMALL_SAMPLES = 700
WATCH_DOMAINS = 300
WATCH_START = date(2020, 12, 6)
WATCH_END = date(2021, 5, 4)
WATCH_SPLIT = date(2021, 2, 19)      # last day of the first invocation

# Taxonomy: sub-category -> (top, allowed tactics; empty = miscellany)
TAXONOMY = {
    "Live Porn": ("Sex", ("P2", "P10", "P11")),
    "Pornography Trading": ("Sex", ("P4",)),
    "Sex Miscellany": ("Sex", ()),
    "Gambling Games": ("Gambling", ("P3", "P11")),
    "Sports & E-sports Betting": ("Gambling", ("P3", "P11")),
    "Lotteries": ("Gambling", ("P1", "P3")),
    "Cryptocurrency Trading": ("Financial", ("P6",)),
    "Loan & Credit Platform": ("Financial", ("P1", "P5", "P11")),
    "Financial Investment": ("Financial", ("P1", "P6", "P9")),
    "Social Media": ("Service", ("P1", "P2", "P8", "P11")),
    "Ecommerce Platform": ("Service", ("P1", "P4")),
    "Service Miscellany": ("Service", ()),
    "Advertising Service": ("AuxiliaryTool", ("P1", "P9")),
}
BEHAVIOR_FLAGS = ("U1", "U2", "U3", "D1", "D2", "D3", "F1", "F2", "F3")
BEHAVIOR_LEVELS = ("Major", "Minor", "Absent")

_SYLLABLES = ("get", "set", "user", "pay", "order", "load", "view", "main", "data",
              "task", "sync", "game", "bet", "coin", "cash", "loan", "vip", "chat",
              "room", "live", "push", "login", "token", "page", "list", "item",
              "hand", "rule", "wallet", "bank", "card", "draw", "win", "bonus")


def generate(workload: str, seed: int, work_dir: str, root: str) -> dict:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    os.makedirs(work_dir, exist_ok=True)
    builder = {
        "scan-plain": _scan_plain,
        "scan-protected": _scan_protected,
        "assoc-report": _assoc_report,
        "watch-resume": _watch_resume,
    }[workload]
    spec, truth = builder(rng, work_dir, root)
    spec["workload"] = workload
    spec["seed"] = seed
    spec["truth"] = _write_json(os.path.join(work_dir, "truth.json"), truth)
    _write_json(os.path.join(work_dir, "spec.json"), spec)
    return spec


# ---------------------------------------------------------------------------
# shared helpers


def _write_json(path: str, obj) -> str:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f, sort_keys=True)
        f.write("\n")
    return path


def _write_lines(path: str, lines) -> str:
    with open(path, "w", encoding="utf-8") as f:
        f.writelines(line + "\n" for line in lines)
    return path


def _label(rng, n=8) -> str:
    return rng.choice(string.ascii_lowercase) + "".join(
        rng.choices(string.ascii_lowercase + string.digits, k=n - 1))


class _Names:
    """Unique registrable domains, IPv4 addresses and identifiers."""

    def __init__(self, rng):
        self.rng = rng
        self.seen: set[str] = set()

    def _unique(self, make) -> str:
        while True:
            value = make()
            if value not in self.seen:
                self.seen.add(value)
                return value

    def domain(self) -> str:
        return self._unique(lambda: f"{_label(self.rng)}.{self.rng.choice(SUFFIXES)}")

    def ip(self) -> str:
        r = self.rng
        return self._unique(lambda: f"{r.randint(11, 223)}.{r.randint(0, 255)}."
                                    f"{r.randint(0, 255)}.{r.randint(1, 254)}")

    def hex_id(self, n=64) -> str:
        return self._unique(lambda: "%0*x" % (n, self.rng.getrandbits(4 * n)))


def _words(rng, n: int) -> list[str]:
    return ["".join(rng.choices(_SYLLABLES, k=rng.randint(2, 3))) for _ in range(n)]


def _developer(rng, names: _Names, idx: int) -> dict:
    """Subject fields: CN, OU, O, L and e-mail are unique per developer;
    state and country repeat, so two developers share at most two."""
    tag = _label(rng, 6)
    return {
        "commonName": f"dev {tag}", "organizationalUnit": f"unit {tag}",
        "organization": f"{tag} studio {idx}", "locality": f"city {tag}",
        "state": rng.choice(("Guangdong", "Fujian", "Zhejiang")),
        "country": "CN", "email": f"{tag}@{names.domain()}",
    }


def _dex(rng, strings: list[str], code_bytes: int) -> bytes:
    """Dex-shaped blob: header, a string-data section of ULEB128-length
    MUTF-8 entries (class descriptors, method names, planted strings)
    and opaque code."""
    body = bytearray(b"dex\n035\x00" + rng.randbytes(0x68))
    for s in strings:
        raw = s.encode()
        n = len(raw)
        while n >= 0x80:
            body.append((n & 0x7F) | 0x80)
            n >>= 7
        body.append(n)
        body += raw + b"\x00"
    return bytes(body) + rng.randbytes(code_bytes)


def _dex_strings(rng, vocab: list[str], package: str, n: int) -> list[str]:
    path = package.replace(".", "/")
    out = []
    for w in rng.choices(vocab, k=n):
        kind = rng.randrange(3)
        if kind == 0:
            out.append(f"L{path}/{w.capitalize()}Activity;")
        elif kind == 1:
            out.append(w)
        else:
            out.append(f"Ljava/lang/{w.capitalize()};")
    return out


def _common_entries(rng, dex_strings, so_strings) -> list:
    """Manifest-independent bulk of a sample: code, native lib, resources."""
    def blob(magic: bytes, low: int, high: int) -> bytes:
        return magic + rng.randbytes(rng.randint(low, high))

    return [
        ("classes.dex", _dex(rng, dex_strings, rng.randint(36_000, 44_000)), True),
        ("resources.arsc", blob(b"\x02\x00\x0c\x00", 9_000, 12_000), False),
        ("res/drawable/icon.png", blob(b"\x89PNG\r\n\x1a\n", 24_000, 30_000), False),
        ("res/drawable/splash.png", blob(b"\x89PNG\r\n\x1a\n", 40_000, 48_000), False),
        ("lib/armeabi-v7a/libnative-lib.so",
         blob(b"\x7fELF\x01\x01\x01", 18_000, 24_000)
         + b"\x00" + b"\x00".join(s.encode() for s in so_strings) + b"\x00", False),
    ]


def _meta_inf(block: bytes) -> list:
    created = b"Created-By: 1.0 (Android)\r\n\r\n"
    return [
        ("META-INF/MANIFEST.MF", b"Manifest-Version: 1.0\r\n" + created, True),
        ("META-INF/CERT.SF", b"Signature-Version: 1.0\r\n" + created, True),
        ("META-INF/CERT.RSA", block, False),
    ]


def _apk_truth(data: bytes, package: str, generator, fingerprint: str,
               urls, ips, registrable: dict) -> dict:
    return {
        "sample_id": hashlib.sha256(data).hexdigest(),
        "package": package,
        "generator": generator,
        "signer": fingerprint,
        "urls": sorted(urls),
        "domains": sorted({registrable[u] for u in urls if registrable[u]}),
        "ip_literals": sorted(ips),
    }


def _load_generators(root: str) -> list[dict]:
    path = os.path.join(root, "src", "apktriage", "data", "generators.json")
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def _evidence(gen: dict, rng, vocab, present: list) -> tuple[str, str | None, list]:
    """(package, main activity or None, extra entries) satisfying every
    evidence rule of a generator; entries already ``present`` count."""
    package, activity, entries = None, None, []
    for rule in gen["rules"]:
        kind, value = rule["kind"], rule["value"]
        if kind == "main_activity":
            activity = value
        elif kind == "package_prefix":
            sep = "" if value.endswith((".", "_")) else "."
            package = f"{value}{sep}{rng.choice(vocab)}{rng.randint(10, 99)}"
        elif kind == "asset_path":
            paths = [p for p, _d, _z in present + entries]
            if any(p == value or p.startswith(value) for p in paths):
                continue
            path = value + "index.js" if value.endswith("/") else value
            entries.append((path, f"/* {gen['generator_id']} runtime */\n".encode(), True))
        elif kind == "native_lib":
            entries.append((f"lib/armeabi-v7a/{value}",
                            b"\x7fELF\x01\x01\x01" + rng.randbytes(4096), False))
    return package, activity, entries


def _plain_package(rng, vocab) -> str:
    return f"com.{rng.choice(vocab)}.{rng.choice(vocab)}{rng.randint(10, 99)}"


# ---------------------------------------------------------------------------
# scan-plain


def _endpoint_pool(rng, names: _Names) -> list[tuple[str, str, str | None]]:
    """(raw URL as planted, normalized URL, registrable domain or None)."""
    pool = []
    for _ in range(rng.randint(3, 5)):
        reg = names.domain()
        for _ in range(2):
            sub = rng.choice(SUBDOMAINS)
            path = "/" + "/".join(rng.choices(_SYLLABLES, k=rng.randint(1, 3)))
            norm = f"https://{sub}.{reg}{path}"
            raw = norm
            if rng.random() < 0.25:   # scheme/host case and default port normalize away
                raw = f"HTTPS://{sub.upper()}.{reg}:443{path}"
            pool.append((raw, norm, reg))
    ip = names.ip()
    port = rng.choice((8080, 8888, 9000))
    pool.append((f"http://{ip}:{port}/api", f"http://{ip}:{port}/api", None))
    return pool


def _html(rng, vocab, urls: list[str], third: list[str]) -> bytes:
    parts = ["<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">",
             f"<title>{rng.choice(vocab)}</title>"]
    parts += [f"<script src=\"{u}\"></script>" for u in third]
    parts.append("</head><body>")
    for _ in range(rng.randint(60, 90)):
        parts.append(f"<div class=\"{rng.choice(vocab)}\">"
                     + " ".join(rng.choices(vocab, k=8)) + "</div>")
    parts += [f"<a href=\"{u}\">{rng.choice(vocab)}</a>" for u in urls]
    parts.append("</body></html>\n")
    return "\n".join(parts).encode()


def _js(rng, vocab, urls: list[str], ips: list[str]) -> bytes:
    lines = [f"var backup = \"{ip}\";" for ip in ips]
    lines += [f"function {rng.choice(vocab)}(a) {{ return fetch('{u}' + a); }}" for u in urls]
    for _ in range(rng.randint(120, 160)):
        a, b, c = rng.choices(vocab, k=3)
        lines.append(f"function {a}({b}) {{ return {b}.{c}({rng.randint(0, 999)}); }}")
    return ("\n".join(lines) + "\n").encode()


def _scan_plain(rng, work_dir, root):
    names = _Names(rng)
    vocab = _words(rng, 2000)
    generators = [g for g in _load_generators(root) if not (g.get("cipher") or {}).get("algo")]
    popular = [names.domain() for _ in range(500)]
    whitelist = _write_lines(os.path.join(work_dir, "whitelist.csv"),
                             [f"{i},{d}" for i, d in enumerate(popular, 1)])
    developers = []
    for i in range(SCAN_DEVELOPERS):
        block, fp = apkgen.signer(_developer(rng, names, i), rng.randbytes(32))
        developers.append((block, fp, _endpoint_pool(rng, names)))

    apk_dir = os.path.join(work_dir, "apks")
    os.makedirs(apk_dir)
    truth = {}
    generator_i = 0
    for n in range(SCAN_PLAIN_APKS):
        block, fp, pool = developers[n % SCAN_DEVELOPERS]
        chosen = rng.sample(pool, rng.randint(4, min(8, len(pool))))
        sample_ip = names.ip()
        sample_url = (f"https://{rng.choice(SUBDOMAINS)}.{names.domain()}/"
                      f"{rng.choice(_SYLLABLES)}")
        whitelisted = rng.sample(THIRD_PARTY_URLS, 2) + [
            f"https://cdn.{rng.choice(popular)}/lib.js"]
        raws = [raw for raw, _n, _r in chosen]
        # spread the endpoints over HTML, JS, native-lib and dex strings
        html_urls, js_urls = raws[0::4] + [sample_url], raws[1::4]
        so_urls, dex_urls = raws[2::4], raws[3::4]
        registrable = {norm: reg for _raw, norm, reg in chosen}
        registrable[sample_url] = sample_url.split("/")[2].split(".", 1)[1]
        urls = set(registrable)

        if n % SCAN_PLAIN_NATIVE_SHARE == 0:
            gen = None
            package, activity, extra = _plain_package(rng, vocab), None, []
        else:
            gen = generators[generator_i % len(generators)]
            generator_i += 1
            package, activity, extra = _evidence(gen, rng, vocab, [])
            for p in gen.get("template_paths", ()):
                path = p + "lib.js" if p.endswith("/") else p
                if not any(e[0] == path for e in extra):
                    extra.append((path, _js(rng, vocab, [whitelisted[0]], []), True))
        package = package or _plain_package(rng, vocab)
        activity = activity or package + ".MainActivity"
        perms = rng.sample(PERMISSIONS, rng.randint(2, 7))
        entries = [("AndroidManifest.xml", apkgen.manifest(package, activity, perms), True)]
        entries += _common_entries(
            rng, _dex_strings(rng, vocab, package, rng.randint(1300, 1600)) + dex_urls,
            _words(rng, 40) + so_urls)
        entries += [
            ("assets/index.html", _html(rng, vocab, html_urls, whitelisted[:2]), True),
            ("assets/js/app.js", _js(rng, vocab, js_urls + whitelisted[2:], [sample_ip]), True),
        ]
        entries += extra + _meta_inf(block)
        data = apkgen.apk(entries, MTIME)
        name = f"s{n:04d}.apk"
        with open(os.path.join(apk_dir, name), "wb") as f:
            f.write(data)
        ips = {sample_ip} | {norm.split("/")[2].split(":")[0]
                             for _raw, norm, reg in chosen if reg is None}
        truth[name] = _apk_truth(data, package, gen and gen["generator_id"], fp,
                                 urls, ips, registrable)
    return _scan_spec(work_dir, apk_dir, sorted(truth), ["--whitelist", whitelist]), \
        {"apks": truth}


def _scan_spec(work_dir, apk_dir, names: list[str], extra_args) -> dict:
    one_dir = os.path.join(work_dir, "one")
    os.makedirs(one_dir)
    shutil.copy(os.path.join(apk_dir, names[0]), one_dir)
    out = os.path.join(work_dir, "out")
    return {
        "items": len(names),
        "invocations": [{
            "verb": "scan", "items": len(names), "reset": [out],
            "argv": ["scan", apk_dir, "--output", os.path.join(out, "scan.jsonl")] + extra_args,
            "output": os.path.join(out, "scan.jsonl"),
        }],
        "setup": [{"reset": [out],
                   "argv": ["scan", one_dir, "--output", os.path.join(out, "one.jsonl")]
                   + extra_args}],
    }


# ---------------------------------------------------------------------------
# scan-protected


def _scan_protected(rng, work_dir, root):
    names = _Names(rng)
    vocab = _words(rng, 2000)
    db = _load_generators(root)
    ciphered = sorted((g for g in db if (g.get("cipher") or {}).get("algo")),
                      key=lambda g: g["generator_id"])
    keys = {}
    for i, g in enumerate(ciphered):
        algo = g["cipher"]["algo"]
        key = rng.randbytes(apkgen.KEY_LENGTHS[algo])
        if i % 2 == 0:
            source = {"type": "constant", "hex": key.hex()}
        else:
            source = {"type": "entry_offset", "path": "res/raw/boot.bin",
                      "offset": 16, "length": len(key)}
        g["cipher"]["key_source"] = source
        keys[g["generator_id"]] = (algo, key, source["type"])
    db_path = _write_json(os.path.join(work_dir, "fingerprints.json"), db)

    developers = [apkgen.signer(_developer(rng, names, i), rng.randbytes(32))
                  for i in range(SCAN_DEVELOPERS)]
    apk_dir = os.path.join(work_dir, "apks")
    os.makedirs(apk_dir)
    truth = {}
    n = 0
    for g in ciphered:
        algo, key, key_type = keys[g["generator_id"]]
        for k in range(PROTECTED_PER_GENERATOR):
            wrong_key = k == 0
            block, fp = developers[n % SCAN_DEVELOPERS]
            raws = [f"https://{rng.choice(SUBDOMAINS)}.{names.domain()}/"
                    f"{rng.choice(_SYLLABLES)}" for _ in range(3)]
            ip = names.ip()
            raws.append(f"http://{ip}:8080/gw")
            # an entry_offset key travels in each APK; a wrong-key sample's
            # assets are encrypted with another key than the one it carries
            sample_key = key if key_type == "constant" else rng.randbytes(len(key))
            enc_key = rng.randbytes(len(key)) if wrong_key else sample_key
            entries = []
            for p in g["protected_paths"]:
                path = p + "config.json" if p.endswith("/") else p
                plain = _config(rng, vocab, raws)
                entries.append((path, apkgen.encrypt(algo, plain, enc_key), True))
            if key_type == "entry_offset":
                entries.append(("res/raw/boot.bin", rng.randbytes(16) + sample_key
                                + rng.randbytes(32), False))
            package, activity, extra = _evidence(g, rng, vocab, entries)
            package = package or _plain_package(rng, vocab)
            activity = activity or package + ".MainActivity"
            perms = rng.sample(PERMISSIONS, rng.randint(2, 7))
            head = [("AndroidManifest.xml", apkgen.manifest(package, activity, perms), True)]
            bulk = _common_entries(rng, _dex_strings(rng, vocab, package, rng.randint(500, 700)),
                                   _words(rng, 20))
            data = apkgen.apk(head + bulk + entries + extra + _meta_inf(block), MTIME)
            name = f"p{n:04d}.apk"
            n += 1
            with open(os.path.join(apk_dir, name), "wb") as f:
                f.write(data)
            planted = set() if wrong_key else set(raws)
            registrable = {u: (None if u.startswith("http://") else
                               u.split("/")[2].split(".", 1)[1]) for u in raws}
            rec = _apk_truth(data, package, g["generator_id"], fp, planted,
                             set() if wrong_key else {ip}, registrable)
            rec["wrong_key"] = wrong_key
            rec["protected_urls"] = sorted(raws)
            truth[name] = rec
    return _scan_spec(work_dir, apk_dir, sorted(truth), ["--fingerprint-db", db_path]), \
        {"apks": truth}


def _config(rng, vocab, urls: list[str]) -> bytes:
    """JSON app configuration padded with menu entries to a fixed size."""
    obj = {"app": rng.choice(vocab), "api": urls[0], "ws": urls[1],
           "pay": urls[2], "mirror": urls[3], "menu": []}
    text = json.dumps(obj)
    while len(text) < PROTECTED_PLAINTEXT:
        obj["menu"].append({"title": " ".join(rng.choices(vocab, k=3)),
                            "id": rng.randint(1, 9999)})
        text = json.dumps(obj)
    return text.encode()


# ---------------------------------------------------------------------------
# assoc-report


def _group_sizes(rng) -> list[int]:
    sizes = [ASSOC_DENSE_SIZE] * ASSOC_DENSE_GROUPS
    small, i = 0, 0
    while small + ASSOC_SMALL_SIZES[i % len(ASSOC_SMALL_SIZES)] <= ASSOC_SMALL_SAMPLES:
        sizes.append(ASSOC_SMALL_SIZES[i % len(ASSOC_SMALL_SIZES)])
        small += sizes[-1]
        i += 1
    sizes += [1] * (ASSOC_SAMPLES - sum(sizes))
    rng.shuffle(sizes)
    return sizes


def _signature(fp: str, dn: dict, cls: str = "DeveloperSpecific") -> dict:
    return {"fingerprint": fp, "dn_fields": dn, "signature_class": cls}


def _assoc_report(rng, work_dir, root):
    names = _Names(rng)
    debug_fp = names.hex_id()
    debug_dn = {"commonName": "Android Debug", "organization": "Android", "country": "US"}
    samples, groups = [], []
    for size in _group_sizes(rng):
        dn = _developer(rng, names, len(groups))
        fp = names.hex_id()
        pool = [names.domain() for _ in range(4)]
        ips = [names.ip() for _ in range(2)]
        base_hash = rng.getrandbits(64)
        members = []
        for m in range(size):
            sid = names.hex_id()
            members.append(sid)
            # the first member carries every link; the rest a random
            # non-empty subset, so each links to it and the group is connected.
            # A singleton may carry only its own signature, which links nobody.
            if size == 1:
                modes = {"sig"} if rng.random() < 0.6 else set()
            elif m == 0:
                modes = {"sig", "dom", "ip", "hash"}
            else:
                modes = set(rng.sample(("sig", "dom", "ip", "hash"), rng.randint(1, 3)))
            if "sig" in modes:
                own_fp = fp if rng.random() < 0.7 else names.hex_id()   # re-keyed, same DN
                signature = _signature(own_fp, dn)
            elif rng.random() < 0.5:
                signature = _signature(debug_fp, debug_dn, "DebugDefault")
            else:
                signature = None
            domains = (pool if m == 0 else rng.sample(pool, rng.randint(2, 4))) \
                if "dom" in modes else [names.domain()]
            resolved = (ips if m == 0 else [rng.choice(ips)]) if "ip" in modes else (
                [names.ip()] if rng.random() < 0.5 else [])
            if "hash" in modes:
                h = base_hash
                for bit in rng.sample(range(64), rng.randint(0, 3)):
                    h ^= 1 << bit
                hashes = [h]
            else:
                hashes = [rng.getrandbits(64)] if rng.random() < 0.3 else []
            samples.append({
                "sample_id": sid, "signature": signature,
                "urls": sorted(f"https://api.{d}/v1" for d in domains),
                "domains": sorted(domains), "ip_literals": [],
                "resolved_ips": sorted(resolved),
                "fingerprints": [{"hash": format(h, "016x"), "source": "splash.png"}
                                 for h in hashes],
            })
        groups.append(sorted(members))
    rng.shuffle(samples)

    labels, label_counts = [], {}
    subs = sorted(TAXONOMY)
    for s in samples:
        sub = rng.choice(subs)
        top, tactics = TAXONOMY[sub]
        allowed = tactics or ("P1", "P5", "P7")
        label = {"sample_id": s["sample_id"], "top": top, "sub": sub,
                 "tactics": sorted(rng.sample(allowed, rng.randint(1, len(allowed)))),
                 "behavior": {f: rng.choice(BEHAVIOR_LEVELS)
                              for f in rng.sample(BEHAVIOR_FLAGS, 3)}}
        labels.append(label)
        s["label"] = {"top": top, "sub": sub}
        label_counts[top] = label_counts.get(top, 0) + 1

    licensed = [names.domain() for _ in range(20)]
    unlicensed = [names.domain() for _ in range(60)]
    observations, sessions = [], {}
    for s in samples:
        sid = f"{s['sample_id']}:pay"
        kind, channel, obs = _session(rng, names, licensed, unlicensed)
        sessions[sid] = {"kind": kind, "channel": channel}
        for i, (domain, recipient, hint) in enumerate(obs):
            observations.append({
                "session_id": sid, "request_index": i,
                "amount": f"{rng.randint(1, 5000)}.{rng.randint(0, 99):02d}",
                "payment_domain": domain, "recipient_id": recipient,
                "channel_hint": hint})
    rng.shuffle(observations)

    d = work_dir
    feats = _write_lines(os.path.join(d, "features.jsonl"),
                         (json.dumps(s, sort_keys=True) for s in samples))
    label_path = _write_lines(os.path.join(d, "labels.jsonl"),
                              (json.dumps(x, sort_keys=True) for x in labels))
    obs_path = _write_lines(os.path.join(d, "observations.jsonl"),
                            (json.dumps(o, sort_keys=True) for o in observations))
    licensed_path = _write_lines(os.path.join(d, "licensed.txt"),
                                 ["# licensed payment services"] + licensed)
    one = {name: _write_lines(os.path.join(d, f"one-{name}.jsonl"), [json.dumps(rows[0])])
           for name, rows in (("features", samples), ("labels", labels),
                              ("observations", observations))}
    out = os.path.join(d, "out")
    groups_base = os.path.join(out, "assoc", "groups")
    report_base = os.path.join(out, "report", "corpus")
    pay_path = os.path.join(out, "pay.json")
    spec = {
        "items": len(samples),
        "invocations": [
            # assoc writes <output>.graph.json without creating its directory,
            # so the harness creates "out/assoc" (reset) before each pass
            {"verb": "assoc", "items": len(samples), "reset": [out, os.path.dirname(groups_base)],
             "argv": ["assoc", feats, "--output", groups_base], "output": groups_base},
            {"verb": "report", "items": len(labels), "reset": [],
             "argv": ["report", label_path, "--output", report_base], "output": report_base},
            {"verb": "payclass", "items": len(observations), "reset": [],
             "argv": ["payclass", obs_path, "--licensed-db", licensed_path,
                      "--output", pay_path], "output": pay_path},
        ],
        "setup": [
            {"reset": [out, os.path.join(out, "one")],
             "argv": ["assoc", one["features"], "--output", os.path.join(out, "one", "g")]},
            {"reset": [], "argv": ["report", one["labels"], "--output",
                                   os.path.join(out, "one", "r")]},
            {"reset": [], "argv": ["payclass", one["observations"], "--licensed-db",
                                   licensed_path, "--output", os.path.join(out, "one", "p.json")]},
        ],
    }
    truth = {"groups": sorted(groups), "label_counts": label_counts,
             "labels": len(labels), "sessions": sessions}
    return spec, truth


def _session(rng, names, licensed, unlicensed):
    """(planted kind, planted channel, [(domain, recipient, hint)])."""
    roll = rng.random()
    hint = rng.choice(("ThirdPartyRail", "BankTransfer", "DigitalCurrency", "Unknown"))
    channel = hint
    n = rng.randint(3, 8)
    if roll < 0.25:
        kind, domain, recipients = "ThirdParty", rng.choice(licensed), [names.hex_id(12)]
    elif roll < 0.7:
        kind = "FourthParty"
        domain = rng.choice(licensed + unlicensed)
        recipients = [names.hex_id(12) for _ in range(rng.randint(2, n))]
    elif roll < 0.85:
        kind, domain, recipients = "Indeterminate", rng.choice(unlicensed), [names.hex_id(12)]
    else:   # too few requests for a verdict
        kind, domain, recipients = "Indeterminate", rng.choice(licensed + unlicensed), \
            [names.hex_id(12)]
        n = rng.randint(1, 2)
    if hint == "Unknown" and rng.random() < 0.5:
        # no hint, but every recipient is an EVM-style address
        recipients = ["0x" + names.hex_id(40) for _ in recipients]
        channel = "DigitalCurrency"
    picks = recipients + [rng.choice(recipients) for _ in range(n - len(recipients))]
    rng.shuffle(picks)
    return kind, channel, [(domain, r, hint) for r in picks[:n]]


# ---------------------------------------------------------------------------
# watch-resume

_BEHAVIOURS = ("alive", "death", "dead", "rebind_shared", "rebind_own")


def _iso(d: date) -> str:
    return datetime(d.year, d.month, d.day, tzinfo=timezone.utc).isoformat()


def _watch_resume(rng, work_dir, root):
    names = _Names(rng)
    days = [WATCH_START + timedelta(days=i)
            for i in range((WATCH_END - WATCH_START).days + 1)]
    split = days.index(WATCH_SPLIT) + 1
    shared_pool = [names.ip() for _ in range(12)]
    domains = sorted(names.domain() for _ in range(WATCH_DOMAINS))
    plan, packed = {}, {}
    for i, domain in enumerate(domains):
        behaviour = _BEHAVIOURS[i % len(_BEHAVIOURS)]
        own = [names.ip() for _ in range(3)]
        death = rng.randint(10, len(days) - 10) if behaviour == "death" else None
        switch = rng.randint(5, len(days) - 5)
        ticks = []
        for t in range(len(days)):
            if rng.random() < 0.04:
                ticks.append(["gap", None])          # resolver outage
                continue
            if behaviour == "dead" or (death is not None and t >= death):
                ticks.append([None, None] if rng.random() < 0.5 else [[own[0]], 503])
                continue
            if behaviour == "rebind_shared":
                ips = [own[0]] if t < switch else [shared_pool[i % len(shared_pool)]]
            elif behaviour == "rebind_own":
                ips = [own[0]] if t < switch else own[1:]
            else:
                ips = [own[0]]
            status = "gap" if rng.random() < 0.03 else rng.choice((200, 200, 302, 404))
            ticks.append([ips, status])
        plan[domain] = ticks
        packed[domain] = _iso(WATCH_START - timedelta(days=rng.randint(0, 90)))

    d = work_dir
    domains_path = _write_lines(os.path.join(d, "domains.txt"), ["# monitored"] + domains)
    mtimes_path = _write_json(os.path.join(d, "mtimes.json"), packed)
    scripts = [_write_json(os.path.join(d, f"script-{half}.json"), _script(plan, part))
               for half, part in (("first", slice(0, split)), ("second", slice(split, None)))]
    one_domain = domains[0]
    one_path = _write_lines(os.path.join(d, "one-domain.txt"), [one_domain])
    one_scripts = [_write_json(os.path.join(d, f"one-script-{half}.json"),
                               _script({one_domain: plan[one_domain]}, part))
                   for half, part in (("first", slice(0, 2)), ("second", slice(2, 4)))]
    out, store = os.path.join(d, "out"), os.path.join(d, "store")
    one_store = os.path.join(d, "one-store")

    def invocation(end, script, base, reset, argv_domains=domains_path, st=store):
        return {"reset": reset,
                "argv": ["watch", argv_domains, "--store", st, "--output", base,
                         "--window-start", _iso(WATCH_START), "--window-end", _iso(end),
                         "--cadence-days", "1", "--script", script,
                         "--manifest-mtimes", mtimes_path]}

    fresh = invocation(WATCH_SPLIT, scripts[0], os.path.join(out, "fresh"), [out, store])
    resume = invocation(WATCH_END, scripts[1], os.path.join(out, "resume"), [])
    fresh.update(verb="watch-fresh", items=len(domains) * split, output=os.path.join(out, "fresh"),
                 store=store, ticks=split)
    resume.update(verb="watch-resume", items=len(domains) * (len(days) - split),
                  output=os.path.join(out, "resume"), store=store, ticks=len(days))
    spec = {
        "items": len(domains) * len(days),
        "invocations": [fresh, resume],
        "setup": [
            invocation(days[1], one_scripts[0], os.path.join(out, "one"), [out, one_store],
                       one_path, one_store),
            invocation(days[3], one_scripts[1], os.path.join(out, "one"), [],
                       one_path, one_store),
        ],
    }
    truth = {"days": [_iso(x) for x in days], "plan": plan, "packed": packed}
    return spec, truth


def _script(plan, part) -> dict:
    """Scripted backends for a slice of ticks. The prober is consulted
    only on ticks whose resolution returned addresses, so its list holds
    just those ticks."""
    resolutions, probes, whois = {}, {}, {}
    for domain, ticks in plan.items():
        ticks = ticks[part]
        resolutions[domain] = [ips for ips, _status in ticks]
        probes[domain] = [status for ips, status in ticks if ips not in ("gap", None)]
        whois[domain] = {"registrant": "r-" + domain.split(".")[0][:4],
                         "country": "CN", "created": "2020-10-01"}
    return {"resolutions": resolutions, "probes": probes, "whois": whois}
