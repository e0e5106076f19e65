#!/usr/bin/env python3
"""Build the benchmark from this checkout's sources and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Configures and builds perfbench/ (a CMake project that compiles ../src)
into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is
unset; a relative $CARGO_TARGET_DIR is taken from the checkout root. Build output goes to stderr, so the last
line on stdout is the benchmark's result object. Traces and working
files go to .bench_out/. Exits non-zero when the build fails or any
output check fails.
"""
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, d, "perfbench") if not os.path.isabs(d) else \
        os.path.join(d, "perfbench")


def run_quiet(cmd):
    """Runs a build step with its output on stderr; True on success."""
    r = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    return r.returncode == 0


def build(bdir):
    if not run_quiet(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]):
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    return run_quiet(["cmake", "--build", bdir, "--target", "nsp_bench_run",
                      "-j", jobs])


def main():
    bdir = build_dir()
    if not build(bdir):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(bdir, "nsp_bench_run")
    cmd = [exe] + sys.argv[1:] + ["--out", os.path.join(ROOT, ".bench_out")]
    child = subprocess.Popen(cmd, cwd=ROOT)

    def forward(signum, _frame):
        child.send_signal(signum)

    signal.signal(signal.SIGTERM, forward)
    signal.signal(signal.SIGINT, forward)
    try:
        return child.wait()
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()


if __name__ == "__main__":
    sys.exit(main())
