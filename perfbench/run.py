#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (which compiles ../src) with CMake in Release mode
under $CARGO_TARGET_DIR (default .bench_build), then runs one workload
and passes its output through.  The last line of standard output is
the JSON result.  Build output goes to standard error.  Exits nonzero
without a result when the build fails.

Workloads: offline_gcc_sharded, offline_suite, serve_stream (see
BENCHMARK.json and perfbench/README.md).
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# A run must end within 180 s; leave room for start-up.
RUN_TIMEOUT_S = 170


def build_root():
    """Directory for all build and run artifacts, inside the checkout."""
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configure and build the benchmark binary; return its path."""
    build_dir = os.path.join(build_root(), "perfbench")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure += ["-G", "Ninja"] if shutil.which("ninja") else []
    for cmd in (configure, ["cmake", "--build", build_dir, "-j", jobs]):
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            raise SystemExit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench")


def run(binary, args):
    """Run the binary with @p args; return (exit code, stdout text)."""
    proc = subprocess.Popen([binary] + args, stdout=subprocess.PIPE,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return 124, ""
    return proc.returncode, out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    parser.add_argument("--size", choices=["default", "tiny"],
                        default="default")
    args = parser.parse_args()

    binary = build()
    data_dir = os.path.join(build_root(), "perfbench-data")
    cmd = ["--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--size", args.size, "--data-dir", data_dir,
           "--reference", os.path.join(HERE, "reference_digests.json")]
    if args.trace == "1":
        cmd += ["--trace-out",
                os.path.join(data_dir, "%s-seed%d.trace.json"
                             % (args.workload, args.seed))]
    code, out = run(binary, cmd)
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
