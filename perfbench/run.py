"""Closed-loop benchmark of the encrypted PAM controller.

Run from the root of a checkout:

    python3 perfbench/run.py --workload enc-inproc --seed 1 --seconds 20 --trace 0

Workloads: enc-inproc, enc-tcp, plain-sweep (see workloads.py). With
--trace 0 it prints the end-to-end metrics; with --trace 1 an untraced and
a traced pass over the same inputs and the per-layer metrics. The last line
of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}; the
line before it, prefixed DETAIL, holds sample counts, checks and the host
record. The exit code is 0 only when every correctness check passed.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import benchlib

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("enc-inproc", "enc-tcp", "plain-sweep")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True,
                        help="fixes every noise and nonce seed of the run")
    parser.add_argument("--seconds", type=float, required=True,
                        help="timed length; whole sessions or sweeps are run until it is reached")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # The device and the service process it starts share one CPU, set before
    # numpy starts any thread. The protocol is strictly request and reply, so
    # no overlap is lost, and a wake-up no longer waits on a second vCPU of a
    # shared host, a tail that belongs to the host rather than to the program.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    benchlib.import_program(ROOT)
    import workloads

    return workloads.main(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)


if __name__ == "__main__":
    sys.exit(main())
