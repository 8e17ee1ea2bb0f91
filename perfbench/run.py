#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first call configures and builds perfbench (and the library it
links, from this checkout's sources) under $CARGO_TARGET_DIR, default
.bench_build; later calls only re-check the build. Build output goes to
stderr, so the last stdout line is always the benchmark's JSON result.
Traced runs write their Chrome trace under <build dir>/traces.
See perfbench/README.md.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configure (once) and build perfbench; returns the binary path."""
    out = build_dir()
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
            sys.exit(1)
    return os.path.join(out, "perfbench")


def main(argv):
    binary = build()
    traces = os.path.join(build_dir(), "traces")
    os.makedirs(traces, exist_ok=True)
    sys.stdout.flush()
    return subprocess.run([binary] + argv + ["--trace-dir", traces]).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
