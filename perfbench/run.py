#!/usr/bin/env python3
"""Build and run the end-to-end benchmark from a checkout of the repo.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all ...   # every workload in turn
    python3 perfbench/run.py --self-test          # tests of the benchmark

The first run configures and builds the library, chocoq_serve and the
benchmark program (Release) under $CARGO_TARGET_DIR, default .bench_build,
relative to the checkout root; later runs rebuild incrementally. Build
output goes to stderr. perfbench_e2e prints every metric by name with its
unit and sample count, then one JSON result object as the last stdout
line, and exits non-zero when a correctness gate fails.
"""

import argparse
import ctypes
import os
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["chocoq-table", "baseline-table", "serve-open"]
RUN_TIMEOUT_S = 170
# After a build that changed anything, flush its writes and let the
# machine settle before the first timed run.
SETTLE_S = 5


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def target_path(out, target):
    # chocoq_serve is a target of the repository's own build file, which
    # the benchmark package adds as its "chocoq" subdirectory.
    sub = "chocoq" if target == "chocoq_serve" else ""
    return os.path.join(out, sub, target)


def mtimes(out, targets):
    paths = [target_path(out, t) for t in targets]
    return [os.path.getmtime(p) if os.path.exists(p) else 0 for p in paths]


def build(targets):
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", out,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, cwd=ROOT)
    before = mtimes(out, targets)
    subprocess.run(
        ["cmake", "--build", out, "-j", str(min(4, os.cpu_count() or 1)),
         "--target"] + targets,
        check=True, stdout=sys.stderr, cwd=ROOT)
    if mtimes(out, targets) != before:
        os.sync()
        time.sleep(SETTLE_S)
    return out


def die_with_parent():
    """Have the kernel stop perfbench_e2e if this script dies; it
    does the same for its chocoq_serve child."""
    PR_SET_PDEATHSIG = 1
    ctypes.CDLL(None).prctl(PR_SET_PDEATHSIG, signal.SIGTERM)


def run_workload(out, workload, args):
    results = os.path.join(out, "results")
    os.makedirs(results, exist_ok=True)
    cmd = [target_path(out, "perfbench_e2e"),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--serve", target_path(out, "chocoq_serve"),
           "--out-dir", results]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              preexec_fn=die_with_parent).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: %s exceeded %d s" % (workload, RUN_TIMEOUT_S),
              file=sys.stderr)
        return 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload or --self-test is required")

    try:
        if args.self_test:
            out = build(["perfbench_test"])
            return subprocess.run([target_path(out, "perfbench_test")],
                                  cwd=ROOT).returncode
        out = build(["perfbench_e2e", "chocoq_serve"])
    except (subprocess.CalledProcessError, OSError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 1

    if args.workload != "all":
        return run_workload(out, args.workload, args)
    failed = [w for w in WORKLOADS if run_workload(out, w, args) != 0]
    if failed:
        print("perfbench: failed: %s" % ", ".join(failed), file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
