#!/usr/bin/env python3
"""Build and run the icnet benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first call configures and builds
perfbench/ (and the icnet libraries it links) in Release mode under
$CARGO_TARGET_DIR (default .bench_build); later calls rebuild incrementally.
The benchmark's stdout passes through unchanged: its last line is the JSON
result. The exit status is the benchmark's (0 = every operation succeeded and
every output was correct); build failures exit 1 without printing a result.
"""
import argparse
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
# Knobs the library reads from the environment; cleared so a caller's shell
# cannot change what the benchmark measures.
CLEARED_ENV = ("IC_JOBS", "IC_SLOW_REQUEST_MS", "IC_LOG_LEVEL", "ICNET_PROFILE",
               "ICNET_METRICS_OUT", "ICNET_BENCH_OUT")


def build(build_root):
    build_dir = os.path.join(build_root, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    with open(log_path, "a") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                sys.stderr.write("perfbench: build failed (%s)\n" % " ".join(cmd))
                return None
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(build_root)
    if binary is None:
        return 1

    env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
    workdir = tempfile.mkdtemp(prefix="run-", dir=build_root)
    try:
        proc = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--workdir", workdir],
            cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S)
        return proc.returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
