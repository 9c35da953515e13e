#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload serve_n16|paper_sweep|sampled_sweep \
        --seed N --seconds S --trace 0|1

Run it from the root of the repository.  The first run configures and
builds perfbench/ (which builds ../src) under .bench_build/perfbench;
later runs only check that the build is up to date.  Build output goes
to standard error, so the last line of standard output is the
benchmark's JSON result.  A traced run (--trace 1) also writes its
spans to .bench_build/spans-<workload>-seed<N>.jsonl.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("serve_n16", "paper_sweep", "sampled_sweep")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 3600:
        ap.error("--seed must be >= 0 and --seconds in [1, 3600]")

    root = os.getcwd()
    source = os.path.join(root, "perfbench")
    build = os.path.join(root, ".bench_build", "perfbench")
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        sys.exit("run.py: no simulator sources under ./src; "
                 "run from the root of the repository")

    def step(cmd):
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            sys.exit("run.py: '%s' failed with code %d"
                     % (" ".join(cmd), r.returncode))

    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        step(["cmake", "-S", source, "-B", build,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    step(["cmake", "--build", build, "-j3", "--target", "perfbench"])

    cmd = [os.path.join(build, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out",
                os.path.join(root, ".bench_build", "spans-%s-seed%d.jsonl"
                             % (args.workload, args.seed))]
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
