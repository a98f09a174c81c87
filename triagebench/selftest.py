"""Self-tests of the benchmark's own machinery (no program run needed).

    python3 triagebench/selftest.py

Covers: seeded generation is byte-identical for one seed and keeps its
shape across seeds; every checker accepts output equal to the planted
truth and rejects a deliberately corrupted copy; self-time arithmetic on
a hand-built span tree; span wrappers patch every reference and restore
it; BENCHMARK.json names exactly the workloads and metrics defined here.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
import shutil
import sys
import tempfile
import types
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import gen  # noqa: E402
import tracing  # noqa: E402
from metrics import END_TO_END, PER_LAYER  # noqa: E402


def _digest_tree(root: str) -> dict[str, str]:
    out = {}
    for dirpath, _dirs, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as f:
                out[os.path.relpath(path, root)] = hashlib.sha256(f.read()).hexdigest()
    return out


def _shape(truth: dict) -> dict:
    if "apks" in truth:
        t = truth["apks"].values()
        return {"apks": len(truth["apks"]),
                "generators": sorted(str(x["generator"]) for x in t),
                "wrong_key": sum(bool(x.get("wrong_key")) for x in t)}
    if "groups" in truth:
        return {"group_sizes": sorted(len(g) for g in truth["groups"]),
                "labels": truth["labels"], "sessions": len(truth["sessions"])}
    return {"domains": len(truth["plan"]), "days": truth["days"]}


class Generation(unittest.TestCase):
    def test_same_seed_same_bytes_other_seed_same_shape(self):
        for workload in gen.WORKLOADS:
            with self.subTest(workload=workload), tempfile.TemporaryDirectory() as tmp:
                work = os.path.join(tmp, "w")
                gen.generate(workload, 7, work, ROOT)
                first = _digest_tree(work)
                shutil.rmtree(work)
                gen.generate(workload, 7, work, ROOT)
                self.assertEqual(first, _digest_tree(work))
                with open(os.path.join(work, "truth.json"), encoding="utf-8") as f:
                    shape = _shape(json.load(f))
                shutil.rmtree(work)
                gen.generate(workload, 8, work, ROOT)
                other = _digest_tree(work)
                self.assertEqual(set(first), set(other))
                self.assertNotEqual(first, other)
                with open(os.path.join(work, "truth.json"), encoding="utf-8") as f:
                    self.assertEqual(shape, _shape(json.load(f)))


# ---------------------------------------------------------------------------
# outputs equal to the planted truth, written the way each verb writes them


def _write(path: str, obj) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f)


def _scan_output(path: str, truth: dict) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for name, t in sorted(truth["apks"].items()):
            rec = {k: t[k] for k in checks.SCAN_FIELDS}
            rec.update(path=f"apks/{name}", signers=[{"fingerprint": t["signer"]}])
            f.write(json.dumps(rec) + "\n")


def _watch_output(base: str, store: str, truth: dict, n: int) -> None:
    os.makedirs(store, exist_ok=True)
    rows = []
    for domain, ticks in truth["plan"].items():
        with open(os.path.join(store, domain + ".jsonl"), "w", encoding="utf-8") as f:
            for day, tick in zip(truth["days"][:n], ticks):
                event = checks.planted_event(tick)
                rec = ({"kind": "gap", "payload": "outage"} if event == "gap" else
                       {"kind": "probe", "payload": {"alive": event == "alive"}})
                f.write(json.dumps({"ts": day[:10] + "T00:00:00Z", **rec}) + "\n")
        life = checks.planted_lifespan(truth, domain, n)
        if life:
            rows.append({"domain": domain, "end": life[0], "end_kind": life[1], "days": life[2]})
    _write(base + ".lifespan.json", rows)
    _write(base + ".bindings.json", checks.planted_bindings(truth, n))


class Checkers(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.tmp = tempfile.mkdtemp()
        cls.truth = {}
        for workload in gen.WORKLOADS:
            work = os.path.join(cls.tmp, workload)
            spec = gen.generate(workload, 3, work, ROOT)
            with open(spec["truth"], encoding="utf-8") as f:
                cls.truth[workload] = json.load(f)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp)

    def assert_rejects(self, check, write, corruptions):
        """check() passes on the truthful output and fails after each
        corruption of a fresh copy of it."""
        write()
        attempted, failed, problems = check()
        self.assertGreater(attempted, 0)
        self.assertEqual((failed, problems), (0, []))
        for corrupt in corruptions:
            with self.subTest(corruption=corrupt.__name__):
                write()
                corrupt()
                _attempted, failed, problems = check()
                self.assertGreater(failed, 0)
                self.assertTrue(problems)

    def test_scan(self):
        for workload in ("scan-plain", "scan-protected"):
            truth = self.truth[workload]
            path = os.path.join(self.tmp, workload + ".jsonl")

            def edit(fn):
                with open(path, encoding="utf-8") as f:
                    recs = [json.loads(line) for line in f]
                recs = fn(recs)
                with open(path, "w", encoding="utf-8") as f:
                    f.writelines(json.dumps(r) + "\n" for r in recs)

            def drop_url():
                edit(lambda rs: [dict(r, urls=r["urls"][1:]) if r is next(
                    x for x in rs if x["urls"]) else r for r in rs])

            def wrong_generator():
                edit(lambda rs: [dict(rs[0], generator="Cordova")] + rs[1:])

            def missing_record():
                edit(lambda rs: rs[1:])

            def duplicate_record():
                edit(lambda rs: rs + rs[:1])

            def leak_protected():
                wrong = next(n for n, t in truth["apks"].items() if t.get("wrong_key"))
                edit(lambda rs: [dict(r, urls=truth["apks"][wrong]["protected_urls"])
                                 if r["path"].endswith(wrong) else r for r in rs])

            corruptions = [drop_url, wrong_generator, missing_record, duplicate_record]
            if workload == "scan-protected":
                corruptions.append(leak_protected)
            with self.subTest(workload=workload):
                self.assert_rejects(lambda: checks.check_scan(path, truth),
                                    lambda: _scan_output(path, truth), corruptions)

    def test_assoc(self):
        truth = self.truth["assoc-report"]
        base = os.path.join(self.tmp, "assoc", "groups")

        def write():
            _write(base + ".graph.json", {"groups": truth["groups"]})
            _write(base + ".json", [{"size": len(g)} for g in truth["groups"]])

        def merge_two_groups():
            groups = copy.deepcopy(truth["groups"])
            groups[0] += groups.pop(1)
            _write(base + ".graph.json", {"groups": groups})

        self.assert_rejects(lambda: checks.check_assoc(base, truth), write, [merge_two_groups])

    def test_report(self):
        truth = self.truth["assoc-report"]
        base = os.path.join(self.tmp, "report", "corpus")

        def write(counts=None):
            counts = counts or truth["label_counts"]
            _write(base + ".json", {"n": truth["labels"], "category_distribution": {
                top: {"count": c} for top, c in counts.items()}})

        def miscount():
            top = sorted(truth["label_counts"])[0]
            write(dict(truth["label_counts"], **{top: truth["label_counts"][top] + 1}))

        self.assert_rejects(lambda: checks.check_report(base, truth), write, [miscount])

    def test_payclass(self):
        truth = self.truth["assoc-report"]
        path = os.path.join(self.tmp, "pay.json")

        def write(flip=False):
            sessions = [{"session_id": sid, "service_kind": s["kind"], "channel": s["channel"]}
                        for sid, s in truth["sessions"].items()]
            if flip:
                sessions[0]["service_kind"] = ("ThirdParty" if sessions[0]["service_kind"]
                                               != "ThirdParty" else "FourthParty")
            _write(path, {"sessions": sessions})

        def flip_kind():
            write(flip=True)

        self.assert_rejects(lambda: checks.check_payclass(path, truth), write, [flip_kind])

    def test_watch(self):
        truth = self.truth["watch-resume"]
        n = len(truth["days"])
        base, store = os.path.join(self.tmp, "watch", "out"), os.path.join(self.tmp, "store")
        domain = sorted(truth["plan"])[0]

        def check():
            a1, f1, p1 = checks.check_watch_output(base, truth, n)
            a2, f2, p2 = checks.check_watch_store(store, truth, n)
            return a1 + a2, f1 + f2, p1 + p2

        def edit_store(fn):
            path = os.path.join(store, domain + ".jsonl")
            with open(path, encoding="utf-8") as f:
                lines = f.readlines()
            with open(path, "w", encoding="utf-8") as f:
                f.writelines(fn(lines))

        def missing_tick():
            edit_store(lambda lines: lines[:5] + lines[6:])

        def duplicate_tick():
            edit_store(lambda lines: lines + lines[-1:])

        def wrong_days():
            with open(base + ".lifespan.json", encoding="utf-8") as f:
                rows = json.load(f)
            rows[0]["days"] += 1
            _write(base + ".lifespan.json", rows)

        def wrong_binding_count():
            summary = checks.planted_bindings(truth, n)
            summary["type2"] += 1
            _write(base + ".bindings.json", summary)

        self.assert_rejects(check, lambda: _watch_output(base, store, truth, n),
                            [missing_tick, duplicate_tick, wrong_days, wrong_binding_count])


class SelfTime(unittest.TestCase):
    def test_hand_built_tree(self):
        # root [0,10] > a [1,4] > a1 [2,3];  root > b [5,9];  second root [10,12]
        parent = [-1, 0, 1, 0, -1]
        start = [0.0, 1.0, 2.0, 5.0, 10.0]
        end = [10.0, 4.0, 3.0, 9.0, 12.0]
        dur, own = tracing.self_times(parent, start, end)
        self.assertEqual(dur.tolist(), [10.0, 3.0, 1.0, 4.0, 2.0])
        self.assertEqual(own.tolist(), [3.0, 2.0, 1.0, 4.0, 2.0])

    def test_aggregate_by_name(self):
        t = tracing.Tracer()
        for name, par, s, e in (("root", -1, 0.0, 10.0), ("a", 0, 1.0, 4.0),
                                ("a", 1, 2.0, 3.0), ("b", 0, 5.0, 9.0)):
            t.name.append(t.name_id(name))
            t.parent.append(par)
            t.start.append(s)
            t.end.append(e)
        agg = t.aggregate()
        self.assertEqual(agg["root"], {"calls": 1, "s": 10.0, "self_s": 3.0})
        self.assertEqual(agg["a"], {"calls": 2, "s": 4.0, "self_s": 3.0})
        self.assertEqual(agg["b"], {"calls": 1, "s": 4.0, "self_s": 4.0})


class Instrumentation(unittest.TestCase):
    def test_patches_every_reference_and_restores(self):
        inner = types.ModuleType("apktriage.benchfake_inner")
        outer = types.ModuleType("apktriage.benchfake_outer")
        exec("def leaf(x):\n    return x + 1\n", inner.__dict__)
        outer.leaf = inner.leaf          # a `from inner import leaf` copy
        exec("def top(x):\n    return leaf(x) * 2\n", outer.__dict__)
        original = inner.leaf
        sys.modules.update({inner.__name__: inner, outer.__name__: outer})
        try:
            instr = tracing.Instrumentation([
                (inner.__name__, "leaf", "fake.leaf",
                 lambda counters, args, result: counters.update(leaves=1)),
                (outer.__name__, "top", "fake.top", None)])
            tracer = tracing.Tracer()
            instr.install(tracer)
            self.assertEqual(outer.top(1), 4)
            instr.uninstall()
            self.assertIs(inner.leaf, original)
            self.assertIs(outer.leaf, original)
            agg = tracer.aggregate()
            self.assertEqual(agg["fake.top"]["calls"], 1)
            self.assertEqual(agg["fake.leaf"]["calls"], 1)
            self.assertEqual(tracer.counters["leaves"], 1)
            self.assertEqual(outer.top(1), 4)
            self.assertEqual(agg["fake.leaf"]["calls"], 1)
        finally:
            for name in (inner.__name__, outer.__name__):
                sys.modules.pop(name)


class BenchmarkJson(unittest.TestCase):
    def test_names_match(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
            bench = json.load(f)
        self.assertEqual([w["name"] for w in bench["workloads"]], list(gen.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"], m["better"], m["bound"])
                          for m in bench["end_to_end"]], [tuple(m) for m in END_TO_END])
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]],
                         [tuple(m) for m in PER_LAYER])


if __name__ == "__main__":
    unittest.main()
