#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1> [--size full|tiny]

Run it from the root of a checkout. The first run compiles the repository's
main sources together with the benchmark (see perfbench/build.sbt) into
.bench_build/; later runs reuse that build until a source file changes.
Each run starts one JVM, which prints one JSON result as the last line of its
standard output. This script checks the result against BENCHMARK.json (every
metric of the mode present, with its unit) and prints it as its own last line.
Anything else goes to standard error.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
SOURCES = [HERE, os.path.join(ROOT, "src", "main")]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
JVM_OPTS = [
    "-Xms3g",
    "-Xmx3g",
    "-XX:+UseParallelGC",
    "-XX:+IgnoreUnrecognizedVMOptions",
    "--add-opens=java.base/java.lang=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.invoke=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.reflect=ALL-UNNAMED",
    "--add-opens=java.base/java.io=ALL-UNNAMED",
    "--add-opens=java.base/java.net=ALL-UNNAMED",
    "--add-opens=java.base/java.nio=ALL-UNNAMED",
    "--add-opens=java.base/java.util=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent.atomic=ALL-UNNAMED",
    "--add-opens=java.base/jdk.internal.ref=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.ch=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.cs=ALL-UNNAMED",
    "--add-opens=java.base/sun.security.action=ALL-UNNAMED",
    "--add-opens=java.base/sun.util.calendar=ALL-UNNAMED",
    "-Djdk.reflect.useDirectMethodHandle=false",
    "-Dio.netty.tryReflectionSetAccessible=true",
]


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def source_hash():
    h = hashlib.sha256()
    for top in SOURCES:
        for d, dirs, files in os.walk(top):
            dirs[:] = sorted(x for x in dirs if x != "target")
            for f in sorted(files):
                if f.endswith((".scala", ".sbt", ".properties")) or "META-INF" in d:
                    p = os.path.join(d, f)
                    h.update(os.path.relpath(p, ROOT).encode())
                    with open(p, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()


def spark_home():
    home = os.environ.get("SPARK_HOME")
    if not home and shutil.which("spark-submit"):
        home = os.path.dirname(os.path.dirname(os.path.realpath(shutil.which("spark-submit"))))
    if not home or not os.path.isdir(os.path.join(home, "jars")):
        sys.exit("perfbench: no Spark distribution found; set SPARK_HOME")
    return home


def build(env):
    """Compile with sbt and return the runtime classpath, cached by source hash."""
    stamp = os.path.join(BUILD, "classpath.txt")
    digest = source_hash()
    if os.path.exists(stamp):
        with open(stamp) as fh:
            cached_digest, cached_cp = fh.read().split("\n", 1)
        if cached_digest == digest:
            return cached_cp.strip()
    log("building (first run in this checkout)")
    # resolve from the local caches only, as the repository's own build does
    env.setdefault("COURSIER_MODE", "offline")
    env.setdefault("SBT_OPTS", "-Dsbt.override.build.repos=true -Dsbt.offline=true -Xmx2g")
    proc = subprocess.run(
        ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.forcestart=false",
         "compile", "export Runtime/fullClasspath"],
        cwd=HERE, env=env, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
        timeout=BUILD_TIMEOUT_S)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        sys.exit(f"perfbench: build failed ({proc.returncode})")
    cp = lines[-1].strip()
    with open(stamp, "w") as fh:
        fh.write(digest + "\n" + cp)
    return cp


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    a = ap.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "src", "main", "scala", "repro")):
        sys.exit("perfbench: the repository's sources (src/main/scala) are missing; run from a full checkout")
    want = expected_metrics(a.trace)
    env = dict(os.environ, SPARK_HOME=spark_home())
    os.makedirs(BUILD, exist_ok=True)
    cp = build(env)

    run_dir = os.path.join(BUILD, f"run-{os.getpid()}")
    tmp = os.path.join(run_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    argfile = os.path.join(run_dir, "java.args")
    with open(argfile, "w") as fh:
        fh.write("-cp\n" + cp + "\n")
    cmd = ["java", *JVM_OPTS, f"-Djava.io.tmpdir={tmp}", f"@{argfile}", "repro.perfbench.Main",
           "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", str(a.trace), "--size", a.size, "--work-dir", os.path.join(run_dir, "data"),
           "--trace-out", os.path.join(BUILD, "traces", f"{a.workload}-seed{a.seed}")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    if proc.returncode != 0 or not lines:
        sys.exit(f"perfbench: run failed ({proc.returncode})")
    result = json.loads(lines[-1])
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        sys.exit(f"perfbench: metrics differ from BENCHMARK.json: missing {missing}, extra {extra}, unit {wrong}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
