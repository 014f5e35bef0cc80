"""Benchmark of the ``netstats`` command line on three generated workloads.

    python3 perfbench/run.py --workload directed-300k --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout.  Set-up generates the workload's
inputs from the seed (seven times, timed); each round then runs
``validate``, ``stats``, ``plot`` and ``transform lcc`` as separate
processes, as a user would, and checks every output against the
benchmark's own computations.  Rounds repeat until ``--seconds`` have
passed.  The last line of standard output is one JSON object with the
operation counts and the metrics: end-to-end ones with ``--trace 0``,
per-layer ones (from ``trace_run.py``, in process) with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import workloads  # noqa: E402
from model import Model  # noqa: E402

ROOT = Path.cwd()
WORK = ROOT / ".perfbench_work"
SETUPS = 7  # set-up runs per benchmark run; setup_s is their median
# validate and transform take a few seconds each, so a round runs them this
# many times and takes the median; one run of stats and plot takes longer
REPEATS = 3
# The traced run measures the CLI's process pool with two workers (the
# machine has two cores).  The timed commands run with the default --jobs 1:
# with two workers each OpenBLAS spins two threads on the two cores, which
# made stats_s 4x slower and varied it by +-25% from run to run (CHANGES.md).
POOL_JOBS = 2

DIRECTED_KINDS = ["degree", "lorenz", "out-in", "assortativity", "clustering",
                  "multiplicity", "distance"]
# drawing is left to collection-mixed: its eigensolves took from 0 to 6 s
# more from one power-law graph to the next, more than the BFS they sit beside
POWERLAW_KINDS = ["temporal", "multiplicity", "degree", "lorenz", "assortativity",
                  "clustering", "distance", "temporal-distance"]
# alcon's eigensolver fails to converge on about one power-law graph in 40
# (CHANGES.md), so that workload leaves it out
POWERLAW_STATS = [name for name in checks.STAT_NAMES if name != "alcon"]
# kinds that apply to every dataset of the directory; spectrum and drawing
# are left out of directed inputs (see CHANGES.md)
COLLECTION_DIRECTED_KINDS = ["degree", "lorenz", "out-in", "assortativity",
                             "clustering", "complex-eigenvalues", "distance"]
COLLECTION_DYNAMIC_KINDS = ["temporal", "multiplicity", "degree", "lorenz",
                            "assortativity", "distance", "temporal-distance"]


@dataclass
class Unit:
    """One dataset path handed to the commands: an ``out.*`` file or a directory."""

    path: Path
    datasets: list
    kinds: list[str] | None  # None: plot --all
    transform: bool = True  # transform lcc on event logs fails (see CHANGES.md)
    stats: list[str] | None = None  # None: stats --all
    pool: bool = False  # a directory, run through the CLI's pool in the traced run
    models: list = field(default_factory=list)

    @property
    def folder(self) -> Path:
        return self.path.parent if self.path.name.startswith("out.") else self.path


def make_units(workload: str, seed: int, inputs: Path) -> list[Unit]:
    if workload == "directed-300k":
        return [Unit(inputs / "out.directed", workloads.directed(seed), DIRECTED_KINDS)]
    if workload == "powerlaw-3x6k":
        return [Unit(inputs / "powerlaw", workloads.powerlaw(seed), POWERLAW_KINDS,
                     stats=POWERLAW_STATS)]
    dirs = workloads.collection(seed)
    return [
        Unit(inputs / "undirected", dirs["undirected"], None, pool=True),
        Unit(inputs / "directed", dirs["directed"], COLLECTION_DIRECTED_KINDS, pool=True),
        Unit(inputs / "dynamic", dirs["dynamic"], COLLECTION_DYNAMIC_KINDS,
             transform=False, pool=True),
    ]


WORKLOADS = ("directed-300k", "powerlaw-3x6k", "collection-mixed")


def setup(workload: str, seed: int, inputs: Path) -> tuple[list[Unit], float]:
    """Generate and write the inputs SETUPS times; the median time is setup_s."""
    times = []
    for _ in range(SETUPS):
        shutil.rmtree(inputs, ignore_errors=True)
        start = time.perf_counter()
        units = make_units(workload, seed, inputs)
        for unit in units:
            unit.folder.mkdir(parents=True, exist_ok=True)
            for ds in unit.datasets:
                ds.write(unit.folder)
        times.append(time.perf_counter() - start)
    for unit in units:
        unit.models = [Model(ds) for ds in unit.datasets]
    return units, statistics.median(times)


# -- running the program ---------------------------------------------------------


def program_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("NETSTAT_OUT", None)
    return env


def netstats(args: list[str]) -> tuple[float, float, int, str]:
    """Run one CLI command: wall seconds, peak RSS in MB, exit code, stdout.

    The peak RSS comes from wait4 and covers the process and every worker
    it reaped.
    """
    logs = WORK / "logs"
    logs.mkdir(parents=True, exist_ok=True)
    with open(logs / "stdout", "w+b") as out, open(logs / "stderr", "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "netstats.cli", *map(str, args)],
                                stdout=out, stderr=err, env=program_env(), cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read().decode(), err.read().decode(errors="replace")
    if proc.returncode:
        sys.stderr.write(stderr[-2000:])
    return wall, usage.ru_maxrss / 1024, proc.returncode, stdout


# -- one round ---------------------------------------------------------------------


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def op(self, what: str, problems: list[str]):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems[:5])


def _net_problems(stdout: str, name: str) -> list[str]:
    return [ln for ln in stdout.splitlines() if ln.startswith("error") and f" {name}:" in ln]


def _exit_code(rc: int) -> list[str]:
    return [f"exit code {rc}"] if rc else []


def run_round(units: list[Unit], out: Path, tally: Tally, exact: bool) -> dict[str, float]:
    shutil.rmtree(out, ignore_errors=True)
    res, tfm = out / "results", out / "transformed"
    times = {"stats_s": 0.0, "plot_s": 0.0}
    reps = {"validate_s": [0.0] * REPEATS, "transform_s": [0.0] * REPEATS}
    rss = 0.0
    results = {}
    for rep in range(REPEATS):
        for unit in units:
            wall, peak, rc, stdout = netstats(["validate", unit.path])
            reps["validate_s"][rep] += wall
            rss = max(rss, peak)
            if rep == 0 or rc:
                results[id(unit), "validate"] = (rc, stdout)
    for unit in units:
        names = ["--all"] if unit.stats is None else unit.stats
        wall, peak, rc, stdout = netstats(["stats", unit.path, *names, "--out", res])
        times["stats_s"] += wall
        rss = max(rss, peak)
        results[id(unit), "stats"] = (rc, stdout)
    for unit in units:
        kinds = ["--all"] if unit.kinds is None else unit.kinds
        wall, peak, rc, stdout = netstats(["plot", unit.path, *kinds, "--out", res])
        times["plot_s"] += wall
        rss = max(rss, peak)
        results[id(unit), "plot"] = (rc, stdout)
    for rep in range(REPEATS):
        for unit in units:
            if unit.transform:
                wall, peak, rc, stdout = netstats(["transform", "lcc", unit.path, "--out", tfm])
                reps["transform_s"][rep] += wall
                rss = max(rss, peak)
                if rep == 0 or rc:
                    results[id(unit), "transform"] = (rc, stdout)
    for name, walls in reps.items():
        times[name] = statistics.median(walls)
    times["peak_rss_mb"] = rss
    start = time.perf_counter()
    check_round(units, res, tfm, results, tally, exact)
    print(f"round: {times}, checks {time.perf_counter() - start:.1f} s", file=sys.stderr)
    return times


def check_round(units, res, tfm, results, tally: Tally, exact: bool):
    for unit in units:
        rc, stdout = results[id(unit), "validate"]
        for md in unit.models:
            tally.op(f"validate {md.ds.name}", checks.check_validate(stdout, rc))
        rc_stats, out_stats = results[id(unit), "stats"]
        rc_plot, out_plot = results[id(unit), "plot"]
        for md in unit.models:
            name = md.ds.name
            path = res / name / "statistics.tsv"
            rows = checks.read_stats(path) if path.exists() else None
            problems = _exit_code(rc_stats) + _net_problems(out_stats, name) + (
                ["no statistics.tsv"] if rows is None
                else checks.check_stats(md, rows, exact, unit.stats))
            tally.op(f"stats {name}", problems)
            skipped = {ln.split("\t")[2] for ln in out_plot.splitlines()
                       if ln.startswith("skipped\t") and ln.split("\t")[1] == name}
            kinds = checks.PLOT_KINDS if unit.kinds is None else unit.kinds
            problems = _exit_code(rc_plot) + _net_problems(out_plot, name) + checks.check_plots(
                md, res / name, kinds, unit.kinds is None, skipped, rows, exact)
            tally.op(f"plot {name}", problems)
            if unit.transform:
                problems = _exit_code(results[id(unit), "transform"][0])
                problems += checks.check_transform(md, tfm / f"out.{name}_lcc")
                tally.op(f"transform {name}", problems)


# -- main --------------------------------------------------------------------------


END_TO_END = {"setup_s": "s", "validate_s": "s", "stats_s": "s", "plot_s": "s",
              "transform_s": "s", "peak_rss_mb": "MB"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "netstats" / "cli.py").is_file():
        print(f"error: no netstats sources under {ROOT / 'src'}; run from the checkout root",
              file=sys.stderr)
        return 2
    base = WORK / args.workload
    units, setup_s = setup(args.workload, args.seed, base / "inputs")
    # all-pairs distances are checked exactly where the model can afford them
    exact = args.workload == "collection-mixed"
    tally = Tally()
    if args.trace:
        import trace_run

        metrics = trace_run.run(units, base / "traced", tally, exact)
    else:
        rounds = []
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < args.seconds:
            rounds.append(run_round(units, base / "round", tally, exact))
        metrics = {"setup_s": {"value": setup_s, "unit": "s"}}
        for name, unit in END_TO_END.items():
            if name != "setup_s":
                metrics[name] = {"value": statistics.median(r[name] for r in rounds),
                                 "unit": unit}
    for line in tally.problems[:50]:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps({"correct": not tally.problems, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
