#!/usr/bin/env python3
"""Fast self-test of the benchmark: python3 perfbench/selftest.py

Runs every workload at a tiny size with tracing off and on, and asserts
that each metric BENCHMARK.json names for that mode is present with its unit
and a finite value, and that every answer was right. Then it checks that a
copy holding only BENCHMARK.json and perfbench/ fails without printing a
result. Run it from the root of a checkout.
"""
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(cwd, workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=300)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    failures = []
    for w in (x["name"] for x in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            p = run(ROOT, w, trace)
            label = f"{w} --trace {trace}"
            if p.returncode != 0:
                failures.append(f"{label}: exit {p.returncode}\n{p.stderr[-3000:]}")
                continue
            result = json.loads(p.stdout.splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                failures.append(f"{label}: correct={result['correct']} failed={result['failed']}")
            for m in spec[key]:
                got = result["metrics"].get(m["name"])
                if got is None:
                    failures.append(f"{label}: missing {m['name']}")
                elif got["unit"] != m["unit"] or not math.isfinite(got["value"]):
                    failures.append(f"{label}: {m['name']} = {got}")
            print(f"ok  {label}", flush=True)

    bare = tempfile.mkdtemp(prefix="perfbench-bare-", dir=os.path.join(ROOT, ".bench_build"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("target"))
        p = run(bare, "codec_micro", 0)
        if p.returncode == 0 or p.stdout.strip():
            failures.append("a bare copy without the sources did not fail cleanly")
        else:
            print("ok  bare copy fails", flush=True)
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for f in failures:
        print("FAIL", f)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
