#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see README.md beside this file).

    python3 kspbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the engine libraries and the kspbench harness from source into
.bench_build/ at the repository root (incremental after the first run),
then runs one workload. Everything the run writes stays under
.bench_build/. The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}; build output and progress
go to standard error. Extra flags for the self-test: --scale X,
--corrupt-reference.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "kspbench")
WORK_DIR = os.path.join(BUILD_ROOT, "work")
BINARY = os.path.join(BUILD_DIR, "kspbench")
# The harness itself must finish well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def build():
    """Configures once, then builds incrementally; output to stderr."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                   stdout=sys.stderr, check=True)


def source_id():
    """Git SHA of the tree (when it is a git checkout) and a digest of the
    engine and benchmark sources, which also changes with uncommitted
    edits: it keys the reference answers cached under .bench_build/."""
    sha = ""
    try:
        top = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and \
                os.path.samefile(lines[0], ROOT):
            sha = lines[1] + " "
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "kspbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return sha + "sources-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--scale")
    parser.add_argument("--corrupt-reference", action="store_true")
    args = parser.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"benchmark build failed: {err}", file=sys.stderr)
        return 2

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--work-dir", WORK_DIR, "--source-id", source_id()]
    if args.scale is not None:
        cmd += ["--scale", args.scale]
    if args.corrupt_reference:
        cmd.append("--corrupt-reference")
    try:
        # subprocess.run kills and reaps the harness if it overruns.
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"benchmark run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
