"""apktriage benchmark: one workload, one seed, one result line.

    python3 triagebench/run.py --workload scan-plain --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. It generates the workload's inputs from
the seed (untimed), measures set-up time (--trace 0 only) as the median
wall time of fresh interpreters running the workload's verbs on a
one-item input, then runs
the measured passes in a child process (``measure.py``) so that peak
memory is the workload's own. It prints a line of machine facts and, as
the last line, one JSON object: correct, attempted, failed and metrics
(the end-to-end metrics with --trace 0, the per-layer ones with
--trace 1). A traced run also writes the span table of its last traced
pass to stderr. It exits 1 when an output disagrees with the planted truth
and 2 when it cannot run at all, e.g. outside a checkout with ``src/``.
See NOTES.md.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".triagebench-work")
SETUP_REPEATS = 5          # plus one discarded warm-up round
CHILD_TIMEOUT_S = 150

sys.path.insert(0, HERE)

import gen  # noqa: E402
from metrics import END_TO_END, PER_LAYER  # noqa: E402


def machine_facts() -> dict:
    facts = {"nproc": os.cpu_count(), "python": platform.python_version()}
    for dist in ("numpy", "cryptography"):
        facts[dist] = importlib.metadata.version(dist)
    for module in ("numba", "PIL"):
        try:
            importlib.import_module(module)
            facts[f"{module.lower()}_imports"] = True
        except ImportError:
            facts[f"{module.lower()}_imports"] = False
    return facts


def _env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def measure_setup(spec: dict) -> tuple[float, int, int]:
    """(median seconds, attempted, failed) over fresh-interpreter rounds of
    the workload's one-item invocations; the first round is discarded."""
    env, rounds, attempted, failed = _env(), [], 0, 0
    for _ in range(SETUP_REPEATS + 1):
        total = 0.0
        for inv in spec["setup"]:
            for path in inv["reset"]:
                shutil.rmtree(path, ignore_errors=True)
                os.makedirs(path)
            t0 = perf_counter()
            proc = subprocess.run(
                [sys.executable, "-m", "apktriage.reportcli.cli", *inv["argv"]],
                cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                timeout=60)
            total += perf_counter() - t0
            attempted += 1
            if proc.returncode != 0:
                failed += 1
                sys.stderr.write(proc.stderr.decode(errors="replace"))
        rounds.append(total)
    return statistics.median(rounds[1:]), attempted, failed


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="apktriage benchmark (see NOTES.md)")
    p.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "apktriage", "reportcli", "cli.py")):
        print(f"error: no apktriage sources under {ROOT}/src; run from a checkout",
              file=sys.stderr)
        return 2

    work = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    try:
        spec = gen.generate(args.workload, args.seed, work, ROOT)
        setup_s, setup_attempted, setup_failed = (0.0, 0, 0) if args.trace else measure_setup(spec)
        result_path = os.path.join(work, "result.json")
        cmd = [sys.executable, os.path.join(HERE, "measure.py"), os.path.join(work, "spec.json"),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--result", result_path]
        proc = subprocess.run(cmd, cwd=ROOT, env=_env(), timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            print(f"error: measurement process exited {proc.returncode}", file=sys.stderr)
            return 2
        with open(result_path, encoding="utf-8") as f:
            result = json.load(f)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if os.path.isdir(WORK) and not os.listdir(WORK):
            os.rmdir(WORK)

    attempted = result["attempted"] + setup_attempted
    failed = result["failed"] + setup_failed
    for problem in result["problems"]:
        print(f"mismatch: {problem}", file=sys.stderr)
    if result["trace"]:
        print(json.dumps({"last_traced_pass": result["trace"]}, sort_keys=True), file=sys.stderr)
    measured = result["metrics"]
    if args.trace:
        names = [(name, unit) for name, unit, _better in PER_LAYER]
        measured["failed_fraction"] = failed / attempted
    else:
        names = [(name, unit) for name, unit, _better, _bound in END_TO_END]
        measured["setup_s"] = setup_s
    print(json.dumps({"machine": machine_facts(), "workload": args.workload,
                      "seed": args.seed, "passes": result["passes"]}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": measured[name], "unit": unit} for name, unit in names},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
