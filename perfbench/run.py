#!/usr/bin/env python3
"""Build the benchmark and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds `perfbench/` (its own Cargo package,
path-dependent on the workspace crates) in release mode, then runs the
workload in a process of its own so its peak RSS is the workload's. The
last line of standard output is the result object; build output and
diagnostics go to standard error. Generated inputs live in a scratch
directory under `.bench_build/` that is removed afterwards.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("static-rmat", "sampled-geo", "dynamic-hub", "serve-tenants")
# A run must end within 180 s; leave the build and clean-up some room.
RUN_TIMEOUT_S = 170


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    bench_dir = Path(__file__).resolve().parent
    root = bench_dir.parent
    target = Path(os.environ.get("CARGO_TARGET_DIR", root / ".bench_build"))
    if not target.is_absolute():
        target = Path.cwd() / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))

    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(bench_dir / "Cargo.toml")],
        stdout=sys.stderr, env=env, check=False,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    work = root / ".bench_build" / "perfbench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    spans = root / ".bench_build" / "perfbench-spans" / f"{args.workload}-seed{args.seed}.jsonl"
    extra = ["--spans-out", str(spans)] if args.trace == "1" else []
    try:
        run = subprocess.run(
            [str(target / "release" / "pim-perfbench"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", args.trace,
             "--work-dir", str(work)] + extra,
            stdout=subprocess.PIPE, text=True, env=env, timeout=RUN_TIMEOUT_S, check=False,
        )
    except subprocess.TimeoutExpired:
        print(f"perfbench: {args.workload} did not finish in {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if run.returncode != 0:
        return run.returncode
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
