#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload on one seed.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <follow|recommend|risk> \
        --seed <n> --seconds <s> --trace <0|1>

The binary is built with `cargo build --release --offline` into
`$CARGO_TARGET_DIR` (default `.bench_build`). Informational lines go to
standard error; the last line of standard output is the JSON result. On any
failure the script exits non-zero and prints no result.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("follow", "recommend", "risk")
# A run spends `--seconds` measuring (twice with --trace 1, the second
# time with tracing on) plus set-ups, warm-up, write tail and restarts,
# which took 15-20 s on a 2-core host; the allowance leaves room for a
# slow host. At --seconds 10 the limit is 170 s.
RUN_TIMEOUT_FIXED_S = 140
RUN_TIMEOUT_PER_SECOND = 3
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args()
    if not 0 <= args.seed < 2**64:
        p.error("--seed must fit in 64 unsigned bits")
    if not 1 <= args.seconds <= 600:
        p.error("--seconds must be between 1 and 600")
    return args


def build():
    """Builds the binary; returns its path, or None when the build fails."""
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    # Cargo's own output goes to stderr so stdout carries only the result.
    done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return None
    return os.path.join(target, "release", "bg3-perfbench")


def run_timeout(seconds):
    """Wall seconds a run of `seconds` measured seconds may take."""
    return RUN_TIMEOUT_FIXED_S + RUN_TIMEOUT_PER_SECOND * seconds


def main():
    args = parse_args()
    binary = build()
    if binary is None:
        return 1
    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if args.trace:
        cmd += ["--spans", os.path.join(".bench_out", f"spans-{args.workload}.tsv")]
    timeout = run_timeout(args.seconds)
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"perfbench: run exceeded {timeout} s", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"perfbench: run exited with {proc.returncode}", file=sys.stderr)
        return 1
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print("perfbench: run printed no JSON result", file=sys.stderr)
        return 1
    if set(result) != RESULT_KEYS:
        print(f"perfbench: result keys {sorted(result)}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
