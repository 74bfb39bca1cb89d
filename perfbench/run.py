#!/usr/bin/env python3
"""Builds and runs the repository's end-to-end benchmark.

    python3 perfbench/run.py --workload read-mostly --seed 1 --seconds 10 --trace 0

Run from the repository root. The first call configures and builds the
benchmark program (fabbench) and the brickd it launches in Release mode under
.bench_build/perfbench; later calls rebuild incrementally. Each run works in
its own directory under .bench_build/perfbench/runs, removed afterwards.
The last line of standard output is the result JSON; see perfbench/README.md.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
TMP = os.path.join(BUILD, "tmp")
WORKLOADS = ("read-mostly", "write-heavy", "degraded")
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds both binaries; build output goes to
    stderr so standard output stays fabbench's."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no fabec sources next to perfbench/ (src/ missing)")
    # Compiler temporaries stay inside the checkout too.
    os.makedirs(TMP, exist_ok=True)
    os.environ["TMPDIR"] = TMP
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
            + generator,
            check=True, stdout=sys.stderr)
    jobs = str(min(os.cpu_count() or 1, 4))
    subprocess.run(
        ["cmake", "--build", BUILD, "--target", "fabbench", "brickd", "-j", jobs],
        check=True, stdout=sys.stderr)


def source_id():
    """The git commit when there is one, else a digest of every source file
    the benchmark builds from."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, check=True)
            return out.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"perfbench: build failed: {e}")

    run_dir = os.path.join(BUILD, "runs", f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    spans_dir = os.path.join(BUILD, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    command = [
        os.path.join(BUILD, "fabbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--brickd", os.path.join(BUILD, "brickd"),
        "--dir", run_dir,
        "--commit", source_id(),
    ]
    if args.trace:
        command += ["--spans", os.path.join(spans_dir, f"{args.workload}.tsv")]
    # fabbench's bricks die with it (PR_SET_PDEATHSIG), so killing it on
    # timeout stops every process this run started.
    try:
        result = subprocess.run(command, timeout=RUN_TIMEOUT_S)
        code = result.returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        code = 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
