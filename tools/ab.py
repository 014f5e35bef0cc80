"""Time this checkout against a parent revision with the committed benchmark.

    python3 tools/ab.py --parent HEAD~1 --pairs 10 --out BENCH_N.json
    python3 tools/ab.py --parent HEAD~1 --pairs 5 --seed 401 --workload powerlaw-3x6k --out x.json

The parent's files are extracted with ``git archive``, and this checkout's
``src/`` and ``perfbench/`` are copied next to them, so that both sides run
from a fresh directory of the same depth.  For each workload the two trees
then take turns running ``perfbench/run.py --trace 0`` with the same seed
and the ``run_seconds`` of ``BENCHMARK.json``, ``--pairs`` times, the side
that runs first swapping from one pair to the next.  Each side runs its
own benchmark files, as a comparison of two commits does.

The result is one JSON file.  Per workload it holds the run counts and
failures, and per end-to-end metric both sides' runs, their median and
quartiles (numpy's linear percentiles), the change/parent ratio of the
medians minus 1, the number of pairs in which the change read lower, and
the metric's bound from ``BENCHMARK.json`` with whether the change's median
stays inside it.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def extract_tree(rev: str, dest: Path) -> None:
    """The files of ``rev`` under ``dest``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def copy_checkout(dest: Path) -> None:
    """This checkout's sources and benchmark under ``dest``."""
    for name in ("src", "perfbench"):
        shutil.copytree(ROOT / name, dest / name,
                        ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))


def run_bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run from ``tree``: the JSON of its last line."""
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise RuntimeError(f"run.py failed in {tree} ({proc.returncode}): {proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def _spread(values: list[float]) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": round(float(median), 4), "q1": round(float(q1), 4),
            "q3": round(float(q3), 4), "runs": values}


def summarize(runs: dict[str, list[dict]], first: list[str], bounds: dict) -> dict:
    """Both sides' runs of one workload, paired in order, as the file's entry."""
    pairs = len(runs["parent"])
    entry = {
        "pairs": pairs,
        "first": first,
        "all_correct": all(r["correct"] for side in SIDES for r in runs[side]),
        "failed_ops": {side: sum(r["failed"] for r in runs[side]) for side in SIDES},
        "attempted_ops_per_run": {side: [r["attempted"] for r in runs[side]] for side in SIDES},
        "metrics": {},
    }
    for name, metric in runs["parent"][0]["metrics"].items():
        values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in SIDES}
        parent, change = (_spread(values[side]) for side in SIDES)
        # every end-to-end metric is better lower, and none reads 0
        ratio = change["median"] / parent["median"] - 1
        bound = bounds.get(name)
        entry["metrics"][name] = {
            "unit": metric["unit"],
            "parent": parent,
            "change": change,
            "change_vs_parent": round(ratio, 4),
            "change_lower_pairs": sum(c < p for p, c in zip(values["parent"], values["change"])),
            "bound": bound,
            "within_bound": None if bound is None else bool(ratio <= bound),
        }
    return entry


def compare(trees: dict[str, Path], workload: str, seed: int, seconds: float,
            pairs: int, bounds: dict) -> dict:
    """``pairs`` alternating runs of both trees on one workload."""
    runs: dict[str, list[dict]] = {side: [] for side in SIDES}
    first = []
    for i in range(pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        first.append(order[0])
        for side in order:
            runs[side].append(run_bench(trees[side], workload, seed, seconds))
            stats_s = runs[side][-1]["metrics"].get("stats_s", {}).get("value")
            print(f"{workload} seed {seed} pair {i + 1}/{pairs} {side}: stats_s {stats_s}",
                  file=sys.stderr)
    return summarize(runs, first, bounds)


def _revision(rev: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), "rev-parse", rev],
                          capture_output=True, text=True, check=True).stdout.strip()


def _machine() -> str:
    import scipy

    return (f"{os.cpu_count()} cores {platform.machine()}; Python "
            f"{platform.python_version()}, numpy {np.__version__}, scipy {scipy.__version__}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="git revision to compare with")
    parser.add_argument("--pairs", type=int, required=True, help="runs per side and workload")
    parser.add_argument("--out", required=True, type=Path, help="JSON file to write")
    parser.add_argument("--seed", type=int, default=301)
    parser.add_argument("--workload", action="append",
                        help="a workload of BENCHMARK.json (repeatable; default: all)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = declared["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    workloads = args.workload or [w["name"] for w in declared["workloads"]]
    result = {
        "parent": _revision(args.parent),
        "change": f"the working tree of {ROOT.name} at {_revision('HEAD')}",
        "machine": _machine(),
        "method": (f"perfbench/run.py --workload W --seed {args.seed} --seconds "
                   f"{seconds:g} --trace 0, run from a copy of each side's files; "
                   f"{args.pairs} pairs per workload, alternating which side runs first"),
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        extract_tree(args.parent, trees["parent"])
        copy_checkout(trees["change"])
        for workload in workloads:
            result["workloads"][f"{workload} seed {args.seed}"] = compare(
                trees, workload, args.seed, seconds, args.pairs, bounds)
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    for key, entry in result["workloads"].items():
        for name, m in entry["metrics"].items():
            print(f"{key} {name}: {m['parent']['median']} -> {m['change']['median']} "
                  f"({m['change_vs_parent']:+.1%}, lower in {m['change_lower_pairs']} of "
                  f"{entry['pairs']}; parent q1-q3 {m['parent']['q1']}-{m['parent']['q3']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
