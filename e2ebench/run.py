#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

Run from the repository root:

    python3 e2ebench/run.py --workload serve_mix --seed 1 --seconds 30 --trace 0
    python3 e2ebench/run.py --selftest

The first call configures and builds the bts library and the benchmark
(Release) under $CARGO_TARGET_DIR, or .bench_build when it is unset;
later calls rebuild incrementally. Build output goes to stderr; stdout
carries the benchmark's report, whose last line is one JSON result.
A traced run (--trace 1) also writes its per-layer table and Chrome
trace into <build dir>/e2ebench-out/.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def build_dir() -> Path:
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "e2ebench"


def build(target: str) -> Path:
    out = build_dir()
    configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not (out / "CMakeCache.txt").exists():
        configure += ["-G", "Ninja"]
    for cmd in (configure,
                ["cmake", "--build", str(out), "--target", target,
                 "-j", "4"]):
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    return out / target


def git_commit() -> str:
    """The checkout's commit, read from .git without running git (which
    would search directories above the checkout)."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def run(cmd: list) -> int:
    """Run @cmd, relaying its stdout; kill and reap it on timeout."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"e2ebench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = out.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write(out)
        return proc.returncode
    try:
        result = json.loads(lines[-1])
        ok = set(result) == {"correct", "attempted", "failed", "metrics"}
    except (json.JSONDecodeError, IndexError, TypeError):
        ok = False
    if not ok:
        sys.stdout.write(out)
        print("e2ebench: last line is not a result object", file=sys.stderr)
        return 1
    sys.stdout.write(out if out.endswith("\n") else out + "\n")
    return 0


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload",
                   choices=["serve_mix", "boot_refresh", "he_ops_wide"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--selftest", action="store_true",
                   help="build and run the benchmark's own tests")
    args = p.parse_args()
    if not args.selftest and args.workload is None:
        p.error("--workload is required")

    try:
        binary = build("e2ebench_selftest" if args.selftest else "e2ebench")
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        print(f"e2ebench: build failed: {e}", file=sys.stderr)
        return 1

    if args.selftest:
        return subprocess.run([str(binary)], cwd=ROOT,
                              timeout=RUN_TIMEOUT_S).returncode
    return run([str(binary), "--workload", args.workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--commit", git_commit(),
                "--out", str(build_dir() / "e2ebench-out")])


if __name__ == "__main__":
    sys.exit(main())
