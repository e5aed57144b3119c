"""Regenerate ``fingerprints.json``: the committed training results.

For each run seed ``s`` the table holds the fingerprint of that run's job
0 (instance seed ``1000*s``, algorithm seed 0), computed with the serial
executor; seed 0's entry is also the reference job that every run
checks.  A change to the program that alters any of them changes what
CARBON computes and fails the benchmark's correctness check.

    python3 carbonbench/make_fingerprints.py --seeds 40 --tiny-seeds 10
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from train import FINGERPRINTS, job_seed, run_segment  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=40)
    parser.add_argument("--tiny-seeds", type=int, default=10)
    args = parser.parse_args()
    table: dict[str, dict] = {}
    for scale, count in (("full", args.seeds), ("tiny", args.tiny_seeds)):
        table[scale] = {}
        for s in range(count):
            report = run_segment("serial", [job_seed(s, 0)], scale, timeout=150.0)
            if not report["ok"]:
                print(f"{scale} seed {s}: job failed", file=sys.stderr)
                return 1
            fp = report["jobs"][0]["fingerprint"]
            table[scale][str(job_seed(s, 0))] = fp
            print(scale, s, fp, flush=True)
    with open(FINGERPRINTS, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
