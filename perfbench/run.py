#!/usr/bin/env python3
"""Builds the repository benchmark from source and runs one workload.

    python3 perfbench/run.py --workload offline_suite|pooled_3d|served_mix \\
        --seed N --seconds S --trace 0|1 [--scale F]

Run from the root of a checkout.  The first call configures and builds
perfbench/ (the mgp library from src/ plus the benchmark binaries) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that variable
is unset; later calls only re-check the build.  Build output goes to
stderr, so the last line on stdout is the JSON result.  With
--trace 1 the span dump is written to <build>/traces/.  Exits non-zero
when the sources are missing, the build fails, or any result fails the
oracle.  See perfbench/README.md.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("offline_suite", "pooled_3d", "served_mix")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 700


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def scratch_env(out_dir):
    """The environment for child processes: temporary files stay in the build."""
    tmp = os.path.join(out_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def build(out_dir):
    """Configures (once) and builds the binaries; raises on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("library sources not found under " + os.path.join(ROOT, "src"))
    env = scratch_env(out_dir)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "-j", jobs])
    for cmd in steps:
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr, env=env,
                       timeout=BUILD_TIMEOUT_S)


def commit_id():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--scale", type=float, default=1.0,
                    help="input size factor (the self-test runs tiny inputs)")
    args = ap.parse_args()

    out_dir = build_dir()
    try:
        build(out_dir)
    except (RuntimeError, OSError, subprocess.SubprocessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 2

    work_dir = os.path.join(out_dir, "run")
    os.makedirs(work_dir, exist_ok=True)
    exe = os.path.join(out_dir, "perfbench_traced" if args.trace else "perfbench")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--scale", repr(args.scale), "--work-dir", work_dir, "--commit", commit_id()]
    if args.trace:
        trace_dir = os.path.join(out_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(trace_dir, "%s-seed%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, env=scratch_env(out_dir), timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: %s did not finish in %d s" % (args.workload, RUN_TIMEOUT_S),
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
