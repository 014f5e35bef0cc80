"""The slow oracle: one round of a workload with every distance checked exactly.

    python3 perfbench/oracle.py --workload powerlaw-3x6k --seed 1

Run from the root of a source checkout.  It makes the workload's inputs
anew from the seed, runs the four commands once and checks their outputs
as ``run.py`` does, except that the distance statistics and plots of
every component below the exact threshold are compared with all-pairs
distances from scipy's BFS.  ``run.py`` does that only on
``collection-mixed``; on ``powerlaw-3x6k`` it takes about 40 s, so each
benchmark run checks the radius and the diameter against BFS bounds and
the other distance rows against the distance plot instead.
Prints the operation counts and every problem; exits 1 on any.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run as bench  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=bench.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    base = bench.WORK / "oracle" / args.workload
    units, _ = bench.setup(args.workload, args.seed, base / "inputs")
    tally = bench.Tally()
    bench.run_round(units, base / "round", tally, exact=True)
    print(*tally.problems, sep="\n")
    print(f"attempted {tally.attempted}, failed {tally.failed}")
    return 1 if tally.failed else 0


if __name__ == "__main__":
    sys.exit(main())
