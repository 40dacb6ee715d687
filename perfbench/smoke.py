#!/usr/bin/env python3
"""Smoke test of the benchmark at a reduced database size.

    python3 perfbench/smoke.py

Runs every workload of `BENCHMARK.json` untraced and traced at D = 2000
and checks that the last stdout line is the result object, that it is
correct, and that its metric names and units are exactly the ones
`BENCHMARK.json` declares for that mode. Then runs once with `--corrupt`,
which damages one mining result, and checks that the oracle catches it:
the run must report `correct: false`, count the failure and exit nonzero.
Exits nonzero on the first problem.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CARGO = ["cargo", "run", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml"), "--"]
TXNS = "2000"


def run(*args):
    p = subprocess.run(CARGO + list(args), cwd=ROOT, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return p.returncode, result, p.stderr


def fail(msg):
    print(f"FAIL: {msg}")
    sys.exit(1)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for w in (w["name"] for w in spec["workloads"]):
        for trace, names in expected.items():
            code, res, err = run("--workload", w, "--seed", "3", "--seconds", "0",
                                 "--trace", trace, "--txns", TXNS)
            what = f"{w} --trace {trace}"
            if code != 0 or res is None:
                fail(f"{what} exited {code}: {err.strip()}")
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{what}: result keys {sorted(res)}")
            if not res["correct"] or res["failed"] != 0 or res["attempted"] < 1:
                fail(f"{what}: {res['failed']} of {res['attempted']} checks failed")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != names:
                missing = sorted(set(names) - set(got))
                extra = sorted(set(got) - set(names))
                fail(f"{what}: missing {missing}, unexpected {extra}, or units differ")
            if not all(isinstance(v["value"], (int, float)) for v in res["metrics"].values()):
                fail(f"{what}: a metric value is not a number")
            print(f"ok   {what}: {len(got)} metrics, {res['attempted']} checks")

    code, res, _ = run("--workload", "dense-n50", "--seconds", "0", "--txns", TXNS, "--corrupt")
    if code == 0 or res is None or res["correct"] or res["failed"] < 1:
        fail(f"a corrupted result went unnoticed (exit {code}, result {res})")
    print(f"ok   --corrupt: exit {code}, {res['failed']} of {res['attempted']} checks failed")

    code, res, _ = run("--seed", "1")
    if code == 0 or res is not None:
        fail("a run without --workload must fail without a result")
    print("ok   missing --workload is refused")


if __name__ == "__main__":
    main()
