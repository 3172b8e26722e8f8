#!/usr/bin/env python3
"""Builds the release `popqc` binary and the benchmark harness from source,
then runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of the repository. Build outputs go to
`$CARGO_TARGET_DIR` (default `.bench_build`). The last line of standard
output is the JSON result; see perfbench/README.md.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ["compile_w1", "compile_wmax", "serve_hit", "serve_sweep"]


def build(target_dir, manifest=None):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet"]
    if manifest:
        cmd += ["--manifest-path", manifest]
    else:
        cmd += ["-p", "popqc", "--bin", "popqc"]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    result = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        sys.exit(f"perfbench: build failed: {' '.join(cmd)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    for needed in ["Cargo.toml", "src/bin/popqc.rs", "perfbench/Cargo.toml"]:
        if not os.path.isfile(needed):
            sys.exit(f"perfbench: {needed} not found; run from the root of the repository")
    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build(target_dir)
    build(target_dir, "perfbench/Cargo.toml")
    release = os.path.join(target_dir, "release")
    cmd = [
        os.path.join(release, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--popqc", os.path.join(release, "popqc"),
    ]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
