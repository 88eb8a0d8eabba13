#!/usr/bin/env python3
"""Skyline query benchmark.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload indep-6d --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

The first run builds the program and the benchmark from source with sbt
(perfbench/build.sbt depends on the repository's own build); later runs
reuse the build while the sources are unchanged. The benchmark then runs in
its own JVM, prints its report, and prints the JSON result as the last line
of standard output. Everything it writes stays under perfbench/target and
the build's own target directories.

--self-test runs every workload at tiny sizes, traced and untraced, and
checks the benchmark itself: every metric of BENCHMARK.json is printed with
its unit, results match BruteForce, and the per-layer figures are
consistent with each other.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TARGET = os.path.join(HERE, "target")
STAMP = os.path.join(TARGET, "bench-build.json")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
HEAP = "3g"

# JDK 17 module opens that spark-submit normally adds for Spark.
OPENS = [
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio",
    "java.base/java.util", "java.base/java.util.concurrent",
    "java.base/java.util.concurrent.atomic", "java.base/jdk.internal.ref",
    "java.base/sun.nio.ch", "java.base/sun.nio.cs", "java.base/sun.security.action",
    "java.base/sun.util.calendar", "java.security.jgss/sun.security.krb5",
]


def log(msg):
    print(f"[run.py] {msg}", file=sys.stderr, flush=True)


def source_files():
    """Every file the build reads, relative to the checkout root."""
    out = []
    for top in ("build.sbt", "project", "src/main", "jobs", "perfbench/build.sbt",
                "perfbench/project", "perfbench/src"):
        path = os.path.join(ROOT, top)
        if os.path.isfile(path):
            out.append(top)
        for base, dirs, files in os.walk(path):
            dirs[:] = sorted(d for d in dirs if d != "target")
            out.extend(os.path.relpath(os.path.join(base, f), ROOT) for f in sorted(files))
    return out


def source_hash():
    h = hashlib.sha256()
    for rel in source_files():
        h.update(rel.encode())
        with open(os.path.join(ROOT, rel), "rb") as f:
            h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()


def build():
    """Compile with sbt unless the sources match the last build; returns the
    runtime classpath."""
    digest = source_hash()
    if os.path.exists(STAMP):
        with open(STAMP) as f:
            stamp = json.load(f)
        if stamp.get("hash") == digest:
            return stamp["classpath"], digest
    log("building with sbt")
    t0 = time.time()
    tmp = os.path.join(TARGET, "tmp")
    os.makedirs(tmp, exist_ok=True)
    proc = subprocess.run(
        ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
         f"-Djava.io.tmpdir={tmp}", "-J-XX:-UsePerfData",
         "export perfbench/Runtime/fullClasspath"],
        cwd=HERE, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL,
        text=True, timeout=BUILD_TIMEOUT_S)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines or lines[-1].startswith("["):
        sys.stderr.write(proc.stdout)
        raise SystemExit(f"sbt build failed (exit {proc.returncode})")
    classpath = lines[-1].strip()
    os.makedirs(TARGET, exist_ok=True)
    with open(STAMP, "w") as f:
        json.dump({"hash": digest, "classpath": classpath}, f)
    log(f"built in {time.time() - t0:.0f} s")
    return classpath, digest


def source_id(digest):
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.exists(head):
        try:
            return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                  stdout=subprocess.PIPE, stderr=subprocess.DEVNULL).stdout.strip()
        except OSError:
            pass
    return "tree-" + digest[:16]


def run_jvm(classpath, digest, args, echo=True):
    """Run the benchmark JVM; returns (exit code, stdout lines)."""
    work = os.path.join(TARGET, "work")
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp, exist_ok=True)
    cmd = (["java", f"-Xms{HEAP}", f"-Xmx{HEAP}", f"-Djava.io.tmpdir={tmp}",
            "-XX:-UsePerfData", "-XX:+IgnoreUnrecognizedVMOptions"]
           + [f"--add-opens={p}=ALL-UNNAMED" for p in OPENS]
           + ["-cp", classpath, "perfbench.Main"] + args
           + ["--work-dir", work, "--source-id", source_id(digest)])
    # Spark's scratch space stays in the checkout too.
    env = dict(os.environ, SPARK_LOCAL_DIRS=os.path.join(work, "spark-local"))
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
                            text=True, env=env)

    def stop(signum, _frame):
        proc.kill()
        proc.wait()
        raise SystemExit(128 + signum)

    previous = {s: signal.signal(s, stop) for s in (signal.SIGTERM, signal.SIGINT)}
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log(f"benchmark JVM killed after {RUN_TIMEOUT_S} s")
        return 1, []
    finally:
        for s, handler in previous.items():
            signal.signal(s, handler)
    lines = out.splitlines()
    if echo:
        for line in lines:
            if not line.startswith("{"):
                print(line)
    return proc.returncode, lines


def result_of(lines):
    for line in reversed(lines):
        if line.startswith("{"):
            return json.loads(line)
    return None


def self_test(classpath, digest):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures = []
    for w in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            name = f"{w} trace={trace}"
            code, lines = run_jvm(classpath, digest, [
                "--workload", w, "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"],
                echo=False)
            res = result_of(lines)
            problems = []
            if code != 0 or res is None:
                problems.append(f"exit {code}, no result")
            else:
                got = {k: v["unit"] for k, v in res["metrics"].items()}
                if got != wanted[trace]:
                    problems.append(f"metrics and units differ from BENCHMARK.json: got {got}")
                if not res["correct"] or res["failed"] != 0:
                    problems.append(f"correct={res['correct']} failed={res['failed']} "
                                    + " ".join(l for l in lines if l.startswith("details ")))
            print(("FAIL " if problems else "ok   ") + name, flush=True)
            failures += [f"{name}: {p}" for p in problems]
    for f in failures:
        print("FAIL", f)
    print("self-test", "passed" if not failures else "failed")
    return 0 if not failures else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    if not a.self_test and (a.workload is None or a.seed is None or a.seconds is None):
        ap.error("--workload, --seed and --seconds are required")
    for needed in ("build.sbt", os.path.join("src", "main", "scala")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            raise SystemExit(f"{needed} not found under {ROOT}: run from a checkout of the repository")
    classpath, digest = build()
    if a.self_test:
        return self_test(classpath, digest)
    args = ["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
            "--trace", str(a.trace)]
    code, lines = run_jvm(classpath, digest, args)
    res = result_of(lines)
    if code != 0 or res is None:
        raise SystemExit(f"benchmark failed (exit {code})")
    print(json.dumps(res), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
