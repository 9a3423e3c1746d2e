#!/usr/bin/env python3
"""Run one workload of the Multival benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The benchmark program is a dune project
of its own (perfbench/mvbench). This script copies it, with the
repository's lib/ inside it, to .bench_build/src and builds mvbench.exe
there from source (release profile, build tree in .bench_build/dune).
It runs the workload in its own process with a fresh scratch directory
under .bench_build/run, and passes its output through: the last line is
one JSON object with the keys correct, attempted, failed and metrics.
Exits non-zero, without a result line, when the build or the run fails.

--selftest runs every workload at smoke size instead, on two seeds, and
checks the answers, the metric names and units against BENCHMARK.json,
and the coverage of the traced runs.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ["verify_chain", "perf_tandem", "ooc_grant", "serve_mixed"]
PROJECT = os.path.join("perfbench", "mvbench")
GOLDEN = os.path.join("perfbench", "golden.json")
SRC_DIR = os.path.join(".bench_build", "src")
BUILD_DIR = os.path.join(".bench_build", "dune")
EXE = os.path.join(BUILD_DIR, "default", "mvbench.exe")
BUILD_TIMEOUT_S = 800
SELFTEST_TIMEOUT_S = 1800


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    if not (os.path.isdir("lib") and os.path.isdir(PROJECT)):
        fail("run from the root of a Multival checkout (no lib/ or %s here)" % PROJECT, 2)
    # The repository's libraries are private to its dune project, so the
    # benchmark's project gets a copy of lib/. copytree keeps mtimes,
    # which lets dune skip what is already built.
    shutil.rmtree(SRC_DIR, ignore_errors=True)
    shutil.copytree(PROJECT, SRC_DIR)
    shutil.copytree("lib", os.path.join(SRC_DIR, "lib"))
    # keep dune's shared cache out of the picture: everything stays in
    # the checkout
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        subprocess.run(
            ["dune", "build", "--root", ".", "--build-dir", os.path.abspath(BUILD_DIR),
             "--profile", "release", "--display", "quiet", "./mvbench.exe"],
            cwd=SRC_DIR, stdout=sys.stderr, check=True, env=env, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as e:
        fail("build failed: %s" % e)


def fresh_scratch(name):
    scratch = os.path.join(".bench_build", "run", "%s.%d" % (name, os.getpid()))
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    return scratch


def selftest():
    scratch = fresh_scratch("selftest")
    try:
        proc = subprocess.run(
            [os.path.abspath(EXE), "--selftest", "--golden", os.path.abspath(GOLDEN),
             "--benchmark", os.path.abspath("BENCHMARK.json")],
            cwd=scratch, timeout=SELFTEST_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("selftest did not finish within %d s" % SELFTEST_TIMEOUT_S)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    sys.exit(proc.returncode)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", choices=["0", "1"])
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    build()
    if args.selftest:
        selftest()
    # a run sets up, then passes until --seconds is spent; the last pass
    # may start just before the end
    timeout = args.seconds + 140
    scratch = fresh_scratch(args.workload)
    try:
        proc = subprocess.run(
            [EXE, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", args.trace,
             "--golden", GOLDEN, "--scratch", scratch],
            stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (args.workload, timeout))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("%s exited with code %d" % (args.workload, proc.returncode))
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("no result line")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result line")
    print("\n".join(lines[:-1] + [json.dumps(result)]), flush=True)


if __name__ == "__main__":
    main()
