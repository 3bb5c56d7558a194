#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <stanford|oltp|reopt> --seed N \
        --seconds S --trace <0|1>

Builds the `perfbench` package (its own Cargo workspace, path-depending on
the crates under `crates/`) in release mode, runs one workload and passes
its output through. The last line of standard output is one JSON object
with the keys `correct`, `attempted`, `failed` and `metrics`. Build output
goes to standard error. Images live in `.perfbench_work/` under the
checkout and are removed afterwards. Any failure to build or run exits
non-zero without printing a result line.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "perfbench" / "Cargo.toml"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["stanford", "oltp", "reopt"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    target = Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build")
    if not target.is_absolute():
        target = Path.cwd() / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    try:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", str(MANIFEST)],
            cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if build.returncode != 0:
        fail(f"build failed with exit code {build.returncode}")

    # Run on one CPU. Unpinned, the oltp server and its clients hand every
    # request across CPUs, and whole runs flipped between ~28k and ~63k
    # ops/s with the placement the scheduler happened to choose.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cmd = [str(target / "release" / "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--work", str(work)]
    try:
        run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                             stderr=sys.stderr, text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"run failed: {e}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    if run.returncode != 0:
        sys.stderr.write(run.stdout)
        fail(f"run exited with code {run.returncode}")
    lines = run.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(run.stdout)
        fail("run printed no result line")
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        fail(f"malformed result line: {lines[-1]}")
    # The metrics must be exactly the ones BENCHMARK.json declares.
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        fail(f"BENCHMARK.json: {e}")
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if args.trace == "1" else "end_to_end"]}
    reported = {k: v.get("unit") for k, v in result["metrics"].items()}
    if reported != declared:
        fail(f"reported metrics {sorted(reported.items())} differ from "
             f"BENCHMARK.json {sorted(declared.items())}")
    sys.stdout.write(run.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
