#!/usr/bin/env python3
"""Build and run the advectlab end-to-end benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: paper-sweep, hybrid-gpu, service-mix (see perfbench/README.md).
The first call configures and builds perfbench/ (the repository's libraries
from src/ plus the benchmark program) into .bench_build/perfbench; later
calls rebuild incrementally. Each call then runs the timing self-test and the
benchmark, whose last output line is the JSON result. Build output goes to
stderr. Exit status is nonzero when the build, the self-test or any job
fails; no result line is printed when the build or self-test fails.
"""

import argparse
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def run_quiet(cmd, env, timeout):
    """Run `cmd` with its output sent to stderr; raise on failure."""
    subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
                   timeout=timeout, check=True)


def build(env):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"no advectlab sources under {ROOT / 'src'}")
    if not (BUILD / "CMakeCache.txt").is_file():
        run_quiet(["cmake", "-S", str(HERE), "-B", str(BUILD),
                   "-DCMAKE_BUILD_TYPE=Release"], env, BUILD_TIMEOUT_S)
    run_quiet(["cmake", "--build", str(BUILD), "-j4", "--target", "perfbench",
               "perfbench_selftest"], env, BUILD_TIMEOUT_S)


def run_group(cmd, env, timeout, stdout=None):
    """Run `cmd` in its own process group, killing the whole group (forked
    rank workers included) if it overruns; returns the exit status."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=stdout,
                            start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"perfbench: timed out after {timeout} s", file=sys.stderr)
        return 124


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    args = ap.parse_args()

    env = dict(os.environ)
    tmp = BUILD / "tmp"
    try:
        tmp.mkdir(parents=True, exist_ok=True)
        env["TMPDIR"] = str(tmp)  # compiler and run scratch stay in the checkout
        build(env)
    except (RuntimeError, OSError, subprocess.SubprocessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    if run_group([str(BUILD / "perfbench_selftest")], env, 60,
                 stdout=sys.stderr) != 0:
        print("perfbench: timing self-test failed", file=sys.stderr)
        return 3
    sys.stdout.flush()

    return run_group([str(BUILD / "perfbench"), "--workload", args.workload,
                      "--seed", str(args.seed), "--seconds", str(args.seconds),
                      "--trace", args.trace,
                      "--out-dir", os.path.relpath(BUILD, ROOT)],
                     env, RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
