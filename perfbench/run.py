#!/usr/bin/env python3
"""Build and run the benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest [--layers]

Builds perfbench/pb.exe with dune from the checkout this file sits in,
then runs it with address-space randomisation disabled when `setarch -R`
works here.  The benchmark's stdout passes through unchanged: its last
line is the JSON result.  Exits non-zero, printing no result, when the
program cannot be built or the run fails.
"""

import os
import platform
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def aslr_off_prefix():
    setarch = shutil.which("setarch")
    if setarch is None:
        return []
    prefix = [setarch, platform.machine(), "-R"]
    probe = subprocess.run(prefix + ["true"], capture_output=True)
    return prefix if probe.returncode == 0 else []


def main():
    dune = shutil.which("dune")
    if dune is None:
        return fail("dune is not on PATH")
    if not os.path.exists(os.path.join(ROOT, "dune-project")):
        return fail(f"no dune project at {ROOT}")
    build = subprocess.run(
        [dune, "build", "--root", ROOT, "--display", "quiet", "./perfbench/pb.exe"],
        cwd=ROOT,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        return fail("build failed")
    exe = os.path.join(ROOT, "_build", "default", "perfbench", "pb.exe")
    args = sys.argv[1:]
    if args[:1] == ["--selftest"]:
        args = ["selftest"] + args[1:]
    prefix = aslr_off_prefix()
    env = dict(os.environ, PERFBENCH_ASLR="off" if prefix else "on")
    try:
        run = subprocess.run(prefix + [exe] + args, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail(f"run exceeded {RUN_TIMEOUT_S} s")
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
