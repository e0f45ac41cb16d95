#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload dumbbell|fattree|hybrid \\
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root. The benchmark is compiled from the
repository's sources in Release mode into $CARGO_TARGET_DIR (default
.bench_build) on first use. The host record goes to stdout first; the
benchmark binary's JSON result is the last stdout line. Build output
goes to stderr.
"""
import json
import os
import platform
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Every run must end within 180 s; keep a margin for start-up.
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def host_record(load_at_start):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0:
            commit = out.stdout.strip()
    return {"host": {"nproc": os.cpu_count(), "cpu_model": cpu,
                     "machine": platform.machine(),
                     "loadavg_at_start": load_at_start,
                     "git_commit": commit}}


def build():
    """Configures (once) and builds the benchmark; returns the binary."""
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"repository sources not found ({needed} missing at the "
                 "checkout root); nothing to benchmark")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    bdir = os.path.join(target, "perfbench-release")
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("configure failed", 1)
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", bdir, "--target", "perfbench",
                       "-j", jobs],
                      stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed", 1)
    return os.path.join(bdir, "perfbench")


def main():
    args = sys.argv[1:]
    if not args:
        fail("usage: run.py --workload W --seed N --seconds S --trace 0|1 "
             "| --selftest")
    try:
        with open("/proc/loadavg") as f:
            load = [float(x) for x in f.read().split()[:3]]
    except OSError:
        load = None
    binary = build()
    print(json.dumps(host_record(load)), flush=True)
    start = time.monotonic()
    try:
        out = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s", 1)
    sys.stdout.write(out.stdout)
    sys.stdout.flush()
    print(f"perfbench: run took {time.monotonic() - start:.1f} s",
          file=sys.stderr)
    sys.exit(out.returncode)


if __name__ == "__main__":
    main()
