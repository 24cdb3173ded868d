#!/usr/bin/env python3
"""Build and run the end-to-end admission benchmark.

Run from the root of a source checkout:

    python3 admitbench/run.py --workload paper-subject --seed 1 --seconds 30 --trace 0

Workloads: paper-subject, paper-bystander, server-durable. `--trace 1`
gives the per-layer metrics of a traced run instead of the end-to-end
ones; `--short` runs one round of each session kind with every check.
The benchmark is built from the checkout's sources with dune, then run;
the last line of its standard output is the JSON result.
"""

import argparse
import os
import shutil
import subprocess
import sys

EXE = os.path.join("_build", "default", "admitbench", "main.exe")
WORKLOADS = ("paper-subject", "paper-bystander", "server-durable")


def fail(msg):
    print("admitbench: " + msg, file=sys.stderr)
    sys.exit(2)


def git_rev():
    """The checkout's revision, when it is a git work tree."""
    if not os.path.isdir(".git") or shutil.which("git") is None:
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--short", action="store_true")
    args = ap.parse_args()

    # The benchmark measures the shipped defaults: no engine knob may
    # come from the environment.
    knobs = sorted(k for k in os.environ if k.startswith("DL_"))
    if knobs:
        fail("refusing to run with %s set" % ", ".join(knobs))
    for need in ("dune-project", "lib", os.path.join("admitbench", "dune")):
        if not os.path.exists(need):
            fail("run me from the root of a source checkout (no %s here)" % need)
    # Without the opam environment on PATH, let opam supply it.
    if shutil.which("dune"):
        dune = ["dune"]
    elif shutil.which("opam"):
        dune = ["opam", "exec", "--", "dune"]
    else:
        fail("neither dune nor opam is on PATH")

    # Build output goes to stderr: standard output ends with the result.
    build = subprocess.run(
        dune + ["build", "--root", ".", "./admitbench/main.exe"],
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0 or not os.path.exists(EXE):
        fail("build failed")

    cmd = [
        EXE,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--rev", git_rev(),
        "--out", os.path.join("admitbench", "out"),
    ]
    if args.short:
        cmd.append("--short")
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
