#!/usr/bin/env python3
"""Build and run the cbs end-to-end benchmark.

    python3 perfbench/run.py --workload resonant_assay --seed 1 --seconds 20 --trace 0

Run from the root of a cbs checkout. The first run configures and builds
cbs (Release, from ../src) together with the benchmark under
.bench_build/perfbench; later runs reuse that build. The benchmark then runs
with every CBS_* variable removed from its environment, so each workload
sees the program's defaults, and with a thread pool of min(4, nproc - 1)
workers (the pool's caller runs tasks too).

The last line of stdout is the JSON result. Every run also writes a record
(context, result, extra rows and per-operation times) to
.bench_build/perfbench/records/<workload>-seed<N>-trace<T>.json;
compare.py compares two records.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "cbs_perfbench")
WORKLOADS = ("resonant_assay", "static_assay", "yield_study")


def fail(message, log=None, remove=None):
    """Reports a failure (with the log's tail), removes `remove`, exits 1."""
    print("run.py: " + message, file=sys.stderr)
    if log and os.path.exists(log):
        with open(log, encoding="utf-8", errors="replace") as f:
            sys.stderr.write("".join(f.readlines()[-40:]))
    if remove:
        shutil.rmtree(remove, ignore_errors=True)
    sys.exit(1)


def build():
    os.makedirs(BUILD_DIR, exist_ok=True)
    log = os.path.join(BUILD_DIR, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    with open(log, "w", encoding="utf-8") as out:
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            cmd = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT, env=env).returncode != 0:
                out.close()
                # A half-configured tree would skip configuring next time.
                fail("configuring the benchmark failed", log, remove=BUILD_DIR)
        cmd = ["cmake", "--build", BUILD_DIR, "--target", "cbs_perfbench", "-j", jobs]
        if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT, env=env).returncode != 0:
            fail("building the benchmark failed", log)


def git_sha():
    """HEAD of the checkout, or 'none' when ROOT is not itself a git work tree."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"  # never let git search the directories above the checkout
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, check=True).stdout.strip()
        if os.path.realpath(top) != os.path.realpath(ROOT):
            return "none"
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "none"


def source_digest():
    """SHA-256 over the paths and bytes of every file under src/ (first 16 hex)."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no cbs sources at " + os.path.join(ROOT, "src"))
    build()

    records = os.path.join(BUILD_DIR, "records")
    os.makedirs(records, exist_ok=True)
    record = os.path.join(records, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace, "--record", record,
           "--git-sha", git_sha(), "--source-digest", source_digest()]
    env = {k: v for k, v in os.environ.items() if not k.startswith("CBS_")}
    sys.stdout.flush()
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
