#!/usr/bin/env python3
"""Benchmark of the repair harness.

    python3 perfbench/run.py --workload table4|guarded --seed N --seconds S --trace 0|1

Run from the repository root. Builds the program and the benchmark with sbt
when their sources changed since the last build in this checkout (outputs
go to the sbt target directories and `.bench_build/`), runs the workload in
a fresh JVM and prints one JSON object as the last line of standard output:
end-to-end metrics with `--trace 0`, per-layer metrics with `--trace 1`.
Spans of a traced run are written to `.bench_build/trace/`.
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
OUT = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("table4", "guarded")
HEAP = "2g"  # fixed driver heap, committed from the start so GC settles early
CPUS = 3  # CPUs the benchmark JVM is pinned to: Spark's two task threads and one for the rest
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
RESULT_PREFIX = "PERFBENCH "

# Inputs of the build: the program's build and sources, and the benchmark's.
BUILD_INPUTS = ("build.sbt", "project/build.properties", "src/main", "jobs",
                "perfbench/build.sbt", "perfbench/project/build.properties", "perfbench/src")


def fail(msg):
    sys.stderr.write(f"perfbench: {msg}\n")
    sys.exit(2)


def run_group(cmd, timeout, **kw):
    """Runs `cmd` in its own process group; kills the group on timeout."""
    p = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = p.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        fail(f"{cmd[0]} did not finish within {timeout} s")
    return p.returncode, out


def build_digest():
    h = hashlib.sha256(ROOT.encode())
    for rel in BUILD_INPUTS:
        path = os.path.join(ROOT, rel)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def build():
    """Returns the benchmark's classpath, compiling first if sources changed."""
    missing = [p for p in ("build.sbt", "src/main/scala") if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        fail(f"the program's sources are missing from {ROOT}: {', '.join(missing)}")
    stamp_file = os.path.join(OUT, "build.stamp")
    cp_file = os.path.join(OUT, "classpath.txt")
    digest = build_digest()
    if os.path.exists(cp_file) and os.path.exists(stamp_file):
        with open(stamp_file) as f:
            if f.read() == digest:
                with open(cp_file) as g:
                    return g.read()
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    if "SBT_OPTS" not in env:
        opts = ["-Dsbt.offline=true", "-Xmx2g"]
        repos = os.path.expanduser("~/.sbt/repositories")
        if os.path.exists(repos):
            opts = ["-Dsbt.override.build.repos=true", f"-Dsbt.repository.config={repos}"] + opts
        env["SBT_OPTS"] = " ".join(opts)
    code, out = run_group(
        ["sbt", "--batch", "-Dsbt.log.noformat=true", "compile", "export Runtime/fullClasspath"],
        BUILD_TIMEOUT_S, cwd=HERE, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    lines = [l for l in out.splitlines() if l.strip() and not l.startswith("[")]
    if code != 0 or not lines:
        sys.stderr.write(out[-4000:])
        fail("build failed")
    os.makedirs(OUT, exist_ok=True)
    with open(cp_file, "w") as f:
        f.write(lines[-1].strip())
    with open(stamp_file, "w") as f:
        f.write(digest)
    with open(cp_file) as f:
        return f.read()


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = ap.parse_args()
    if a.seconds < 1:
        fail("--seconds must be at least 1")

    classpath = build()
    tmp = os.path.join(OUT, "tmp")
    traces = os.path.join(OUT, "trace")
    os.makedirs(tmp, exist_ok=True)
    os.makedirs(traces, exist_ok=True)
    # Pinned to three of four CPUs, runs spread less than on all four or on
    # two (perfbench/README.md, "Steadiness").
    cpus = set(sorted(os.sched_getaffinity(0))[:CPUS])
    launched_ns = time.time_ns()  # set-up time counts from the JVM launch
    code, out = run_group(
        ["java", f"-Xms{HEAP}", f"-Xmx{HEAP}", f"-XX:ActiveProcessorCount={len(cpus)}", f"-Djava.io.tmpdir={tmp}", "-cp", classpath, "perfbench.Main",
         "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
         "--trace", str(a.trace), "--launched-at-ns", str(launched_ns),
         "--trace-file", os.path.join(traces, f"{a.workload}-seed{a.seed}.jsonl")],
        RUN_TIMEOUT_S, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        preexec_fn=lambda: os.sched_setaffinity(0, cpus))
    results = []
    for line in out.splitlines():
        if line.startswith(RESULT_PREFIX):
            results.append(line[len(RESULT_PREFIX):])
        else:
            sys.stderr.write(line + "\n")
    if code != 0 or not results:
        fail(f"the benchmark JVM exited with code {code} without a result")
    print(json.dumps(json.loads(results[-1])))


if __name__ == "__main__":
    main()
