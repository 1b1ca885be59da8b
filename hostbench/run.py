#!/usr/bin/env python3
"""Builds the host-time benchmark from source and runs one workload.

    python3 hostbench/run.py --workload pingpong --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout.  The first call configures and builds
the benchmark (and the simulator sources it compiles) under
.bench_build/hostbench; later calls rebuild incrementally.  Build output
goes to stderr, so the last stdout line is always the benchmark's JSON
result.  Arguments are passed to the benchmark binary unchanged; it
validates them and exits 2 with usage on bad input.

    python3 hostbench/run.py --selftest

runs the benchmark's self-test (hostbench/selftest.py) against that build.
"""
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "hostbench")
BINARY = os.path.join(BUILD, "hostbench")


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds; returns True on success."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "cellpilot.hpp")):
        log("no simulator sources under %s/src; "
            "run from a full checkout" % ROOT)
        return False
    if shutil.which("cmake") is None:
        log("cmake not found")
        return False
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            log("configure failed")
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", BUILD, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode != 0:
        log("build failed")
        return False
    return True


def run_child(cmd):
    """Runs cmd in the foreground, forwarding SIGTERM/SIGINT so the child
    never outlives this process; returns its exit code."""
    child = subprocess.Popen(cmd, cwd=ROOT)

    def forward(signum, _frame):
        child.send_signal(signum)

    old = {s: signal.signal(s, forward)
           for s in (signal.SIGTERM, signal.SIGINT)}
    try:
        return child.wait()
    finally:
        for s, handler in old.items():
            signal.signal(s, handler)
        if child.poll() is None:
            child.kill()
            child.wait()


def main(argv):
    if not build():
        return 1
    sys.stdout.flush()
    if argv[:1] == ["--selftest"]:
        return run_child([sys.executable, os.path.join(HERE, "selftest.py"),
                          BINARY] + argv[1:])
    return run_child([BINARY] + argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
