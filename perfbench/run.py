#!/usr/bin/env python3
"""Repository benchmark: build mm_perfbench from source, run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. mm_perfbench (perfbench/src) is built with
CMake into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
against the library sources in src/. The last stdout line is the result
object {"correct", "attempted", "failed", "metrics"}; the line before it
carries run metadata (git sha, compiler, CPU, nproc, ISA dispatch,
seed). The full result, including spans of a traced run, is written to
.bench_out/. Workloads and metrics are declared in BENCHMARK.json.

--workload all runs every workload in turn and prints each one's
metadata and result lines.

--tiny shrinks every input (used by perfbench/tests/smoke.py); its
numbers are not comparable.
"""
import argparse
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("cnn", "mttkrp")


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configure and build mm_perfbench; output goes to stderr."""
    bdir = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", BENCH_DIR, "-B", bdir,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", bdir, "--target", "mm_perfbench",
              "-j", jobs]]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            sys.exit(proc.returncode or 1)
    return os.path.join(bdir, "mm_perfbench")


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=("0", "1"), required=True)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    binary = build()
    sha = git_sha()
    status = 0
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        cmd = [binary, "--workload", workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--out-dir", os.path.join(ROOT, ".bench_out"),
               "--work-dir", os.path.join(ROOT, ".bench_work",
                                          f"{workload}-{os.getpid()}"),
               "--git-sha", sha]
        if args.tiny:
            cmd.append("--tiny")
        status = status or subprocess.run(cmd).returncode
    sys.exit(status)


if __name__ == "__main__":
    main()
