#!/usr/bin/env python3
"""Build the engine and the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The build goes to .bench_build/ there;
everything the benchmark prints goes to standard output, and its last
line is the result object (see perfbench/README.md).
"""

import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    return 1


def git_rev():
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True)
        if top.returncode != 0 or os.path.realpath(top.stdout.strip()) != os.path.realpath(ROOT):
            return "unknown"
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True)
        return rev.stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def stop_group(pgid):
    """Kill whatever is left of the benchmark's process group and wait
    until the group is empty."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.time() + 10
    while time.time() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def main():
    knobs = sorted(k for k in os.environ if k.startswith("GIGASCOPE_"))
    if knobs:
        return fail("%s set; the benchmark runs the engine with its defaults only" % ", ".join(knobs))
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "--build-dir", BUILD_DIR, "--profile", "release",
         "./perfbench/bench.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0 or not os.path.exists(EXE):
        return fail("build failed")
    proc = subprocess.Popen([EXE] + sys.argv[1:] + ["--rev", git_rev()], cwd=ROOT, env=env,
                            start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        code = None
    stop_group(proc.pid)
    if code is None:
        proc.wait()
        return fail("no result within %d s" % RUN_TIMEOUT_S)
    return code


if __name__ == "__main__":
    sys.exit(main())
