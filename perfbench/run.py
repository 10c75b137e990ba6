#!/usr/bin/env python3
"""Repository benchmark launcher.

Builds the benchmark program (and the DISTINCT library it links) from the
sources of the checkout it runs in, runs one workload, checks the result
line against BENCHMARK.json, and relays the program's output. Run it from
the root of a checkout:

    python3 perfbench/run.py --workload scan --seed 1 --seconds 10 --trace 0

Workloads: scan, serve, ingest, append (see perfbench/README.md).
--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
(and writes a Chrome trace under the build directory). The build goes to
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench. The last line
of standard output is the result JSON; the exit code is 0 only when the
build, the run and every correctness check succeeded.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import threading

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("scan", "serve", "ingest", "append")
RUN_TIMEOUT_S = 170  # the program is killed past this
BUILD_TIMEOUT_S = 840


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def run_logged(cmd, log_path, timeout):
    with open(log_path, "w") as log:
        try:
            return subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                  timeout=timeout, cwd=ROOT).returncode
        except subprocess.TimeoutExpired:
            return -1


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no DISTINCT sources next to the benchmark (src/ is missing)")
    if shutil.which("cmake") is None:
        fail("cmake is not installed")
    os.makedirs(out, exist_ok=True)
    log = os.path.join(out, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    if run_logged(["cmake", "-S", BENCH_DIR, "-B", out,
                   "-DCMAKE_BUILD_TYPE=Release"], log, BUILD_TIMEOUT_S) != 0 \
            or run_logged(["cmake", "--build", out, "-j", jobs,
                           "--target", "perfbench_runner"],
                          log, BUILD_TIMEOUT_S) != 0:
        with open(log) as f:
            sys.stderr.write(f.read()[-4000:])
        fail("build failed (log: %s)" % log)
    return os.path.join(out, "perfbench_runner")


def source_digest():
    """SHA-256 over the library and benchmark sources (the checkout need
    not be a git repository, so this names the code that was measured)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0:
            return sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return os.environ.get("DISTINCT_GIT_SHA", "unknown")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    try:
        result = json.loads(line)
    except ValueError:
        fail("the program's last line is not JSON")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result keys are %s" % sorted(result))
    expected = expected_metrics(trace)
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        fail("metrics differ from BENCHMARK.json (missing %s, extra %s, "
             "or units differ)" % (missing, extra))
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "BENCHMARK.json")):
        fail("BENCHMARK.json is missing from the checkout root")

    out = build_dir()
    runner = build(out)
    work = os.path.join(out, "work-" + args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [runner, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work, "--git-sha", git_sha(),
           "--source-digest", source_digest()]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, text=True)
    watchdog = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    watchdog.start()
    last = ""
    try:
        for line in proc.stdout:
            line = line.rstrip("\n")
            if line:
                last = line
            if not line.startswith("{\"correct\""):
                print(line, flush=True)
        code = proc.wait()
    finally:
        watchdog.cancel()
        # Keep the trace files; drop the large inputs (XML, catalogs).
        for entry in os.listdir(work):
            if not entry.startswith("trace-"):
                path = os.path.join(work, entry)
                if os.path.isdir(path):
                    shutil.rmtree(path, ignore_errors=True)
                else:
                    os.remove(path)
    if code != 0:
        fail("the program exited with code %d" % code)
    result = check_result(last, args.trace == 1)
    if not result["correct"]:
        fail("correctness checks failed")
    print(last, flush=True)


if __name__ == "__main__":
    main()
