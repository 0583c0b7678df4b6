#!/usr/bin/env python3
"""perfbench entry point.

Builds the benchmark from source with dune, runs one workload with a
clean knob environment, and relays its output; the last line of
standard output is the result object.  Run it from the root of the
repository:

    python3 perfbench/run.py --workload jit-steady --seed 1 --seconds 20 --trace 0

Workloads: jit-steady, interp-reference, figure-slice.  --trace 1 runs
the traced pass and reports the per-layer metrics instead of the
end-to-end ones.  --spans FILE (traced runs only) also writes the last
traced pass's spans as CSV.  See perfbench/README.md.
"""

import argparse
import hashlib
import os
import subprocess
import sys

TARGET = "./perfbench/bench.exe"
EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
WORKLOADS = ("jit-steady", "interp-reference", "figure-slice")
# The measured program must finish well inside the 180 s a run may take.
RUN_TIMEOUT_S = 175
SOURCE_DIRS = ("lib", "bin", "perfbench")
SOURCE_FILES = ("dune-project", "dune")


def source_digest():
    """MD5 over the program's sources, for provenance where git is absent."""
    h = hashlib.md5()
    paths = [f for f in SOURCE_FILES if os.path.isfile(f)]
    for top in SOURCE_DIRS:
        for root, dirs, files in os.walk(top):
            dirs.sort()
            paths.extend(os.path.join(root, f) for f in sorted(files))
    for path in paths:
        h.update(path.encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def commit():
    if not os.path.isdir(".git"):
        return "none"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "none"
    rev = out.stdout.strip()
    if out.returncode != 0 or not rev:
        return "none"
    dirty = subprocess.run(["git", "status", "--porcelain", "--", *SOURCE_DIRS],
                           capture_output=True, text=True, timeout=30)
    return rev + ("-dirty" if dirty.stdout.strip() else "")


def main():
    p = argparse.ArgumentParser(description="vspec end-to-end benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    p.add_argument("--spans")
    a = p.parse_args()
    if a.seconds < 1:
        p.error("--seconds must be at least 1")
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: run from the repository root (no dune-project or lib/ here)",
              file=sys.stderr)
        return 2

    # No VSPEC_* knob and no GC setting reaches the measured program
    # unless the benchmark sets it itself; the dune cache stays off so
    # the build writes only inside the checkout.
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("VSPEC_") and k != "OCAMLRUNPARAM"}
    env["DUNE_CACHE"] = "disabled"
    build = subprocess.run(["dune", "build", "--root", ".", TARGET], env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    cmd = [EXE, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", a.trace,
           "--commit", commit(), "--source-digest", source_digest()]
    if a.spans:
        cmd += ["--spans", a.spans]
    sys.stdout.flush()
    try:
        run = subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
