"""CARBON benchmark: training and routed serving, end to end and per layer.

Run from the repository root:

    python3 carbonbench/run.py --workload train-serial --seed 0 --seconds 45 --trace 0

Workloads (rationale and layer map in ``carbonbench/layer_map.json``):

* ``train-serial`` — fixed-budget CARBON runs on n250-m10 instances in one
  process (``SerialExecutor``), each job trained four times; its correctness
  check re-trains a job through ``ProcessExecutor(workers=2)``;
* ``serve-routed`` — ``repro-bench serve --shards 2`` driven by one client
  over one connection: the same traffic replayed on three fresh fleets,
  each a warm-up, a fixed-rate open loop and closed-loop capacity chunks.

``--trace 0`` measures the unmodified program and prints the end-to-end
metrics; ``--trace 1`` makes a traced run that wraps each layer's entry
points from ``carbonbench/hook`` and prints the per-layer metrics.  The
last line of standard output is the result JSON; the exit code is
non-zero when an operation failed or an output check did not hold.
"""

from __future__ import annotations

import argparse
import os
import sys

WORKLOADS = ("train-serial", "serve-routed")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True,
                        help="all: every workload in turn (the last line is then "
                             "the last workload's result)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: self-test scale")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        print("carbonbench: run from the repository root (src/repro not found)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(1, os.path.abspath("src"))
    import serve
    import train

    codes = []
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        if workload == "serve-routed":
            codes.append(serve.run(args.seed, args.seconds, bool(args.trace), args.scale))
        else:
            codes.append(train.run(workload, args.seed, args.seconds, bool(args.trace),
                                   args.scale))
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
