#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload montage_wf|serve_zipf|meta_churn \
        --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
`perfbench` binary (the library under src/ plus this directory) with CMake
into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when the variable
is unset; later runs only check that the build is up to date. Build output
goes to stderr, so the last line on stdout is the benchmark's JSON result.
The exit code is the benchmark's: nonzero when a correctness or determinism
check fails, and nonzero without a result when the build fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 175


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "perfbench")


def build(out):
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", out, "--target", "perfbench", "-j", jobs],
        stdout=sys.stderr, check=True)
    return os.path.join(out, "perfbench")


def main():
    try:
        binary = build(build_dir())
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    sys.stdout.flush()
    proc = subprocess.Popen([binary] + sys.argv[1:])
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: timed out after {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    except BaseException:
        proc.kill()
        proc.wait()
        raise


if __name__ == "__main__":
    sys.exit(main())
