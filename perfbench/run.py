#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds the
oasis libraries and the benchmark binary from source (perfbench/CMakeLists.txt)
into $CARGO_TARGET_DIR, or .bench_build when unset; later runs only re-check
the build. Build output goes to stderr, so the last line of stdout is the
benchmark binary's JSON result. Traced runs write a Chrome trace-event file per workload
under <build dir>/traces/. Exits non-zero without a result when the sources
are missing, the build fails, or the run fails or overruns its time limit.
"""
import argparse
import os
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("fl_materialized_oasis", "fl_sharded_population",
             "net_loopback_linear", "attack_eval")
RUN_LIMIT_S = 175  # a run must end within 180 s


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    bench_dir = root / "perfbench"
    if not (root / "src" / "CMakeLists.txt").is_file():
        print("perfbench: oasis sources (src/) not found next to perfbench/",
              file=sys.stderr)
        return 2
    build = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build.is_absolute():
        build = root / build
    jobs = str(min(4, os.cpu_count() or 1))

    def step(cmd, timeout):
        # Build chatter goes to stderr: stdout is reserved for the result.
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout).returncode

    try:
        if not (build / "CMakeCache.txt").is_file():
            if step(["cmake", "-S", str(bench_dir), "-B", str(build),
                     "-DCMAKE_BUILD_TYPE=Release"], 300) != 0:
                return 3
        if step(["cmake", "--build", str(build), "--target", "oasis_perfbench",
                 "-j", jobs], 840) != 0:
            return 3
    except subprocess.TimeoutExpired:
        print("perfbench: build timed out", file=sys.stderr)
        return 3

    binary = build / "oasis_perfbench"
    trace_dir = build / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    start = time.monotonic()
    try:
        run = subprocess.run(
            [str(binary), "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--trace-dir", str(trace_dir)],
            stdout=subprocess.PIPE, timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_LIMIT_S, file=sys.stderr)
        return 4
    sys.stdout.write(run.stdout.decode())
    sys.stdout.flush()
    print("perfbench: run took %.1f s" % (time.monotonic() - start),
          file=sys.stderr)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
