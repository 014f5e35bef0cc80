"""Self-test of the checks: each must fail when one value of a correct output changes.

    python3 perfbench/selftest.py

Run from the root of a source checkout.  It runs the CLI once on a small
set of generated datasets (every output must pass), then alters one value
at a time in a copy of the outputs and asserts that the check reading that
value reports a problem.  Prints one line per alteration and exits 1 if
any alteration went unnoticed.
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import run as bench  # noqa: E402
import workloads  # noqa: E402
from model import Model  # noqa: E402

# a statistic that is only bounded is altered to a value outside its bounds
BOUNDED = {"snorm", "alcon", "frustration", "nonbip", "nonbipn", "anticonflict", "conflict"}


def small_units(inputs: Path) -> list[bench.Unit]:
    rng = np.random.default_rng(7)
    g = workloads.collection_graph
    undirected = [
        g(rng, "sym-positive-t", "sym", "positive", 60, 80, [5, 8], True),
        g(rng, "sym-signed", "sym", "signed", 120, 150, [4], False),
        g(rng, "sym-weighted", "sym", "weighted", 90, 120, [6], False),
        g(rng, "sym-posweighted-big", "sym", "posweighted", 560, 700, [], False),
        g(rng, "bip-weighted", "bip", "weighted", 80, 100, [3], True),
    ]
    directed = [
        g(rng, "asym-multisigned", "asym", "multisigned", 70, 90, [4], True),
        g(rng, "asym-positive-big", "asym", "positive", 560, 900, [], False),
    ]
    dynamic = [g(rng, "sym-dynamic", "sym", "dynamic", 60, 90, [5], True)]
    return [
        bench.Unit(inputs / "undirected", undirected, None),
        bench.Unit(inputs / "directed", directed, bench.COLLECTION_DIRECTED_KINDS),
        bench.Unit(inputs / "dynamic", dynamic, bench.COLLECTION_DYNAMIC_KINDS,
                   transform=False),
    ]


def alter_cell(path: Path, row: int = -1, col: int = -1):
    """Change one number of a tab-separated file (data rows only)."""
    lines = path.read_text().splitlines()
    data = [i for i, ln in enumerate(lines) if ln and ln[0] not in "#%n"]
    i = data[row]
    cells = lines[i].split("\t")
    x = float(cells[col])
    cells[col] = repr(x + 0.37 + abs(x) * 0.5)
    lines[i] = "\t".join(cells)
    path.write_text("\n".join(lines) + "\n")


class SelfTest:
    def __init__(self):
        self.missed = []
        self.count = 0

    def expect(self, what: str, problems: list[str]):
        self.count += 1
        caught = bool(problems)
        print(f"{'caught' if caught else 'MISSED'}\t{what}\t{problems[0] if caught else ''}")
        if not caught:
            self.missed.append(what)


def main() -> int:
    work = bench.WORK / "selftest"
    inputs, out, scratch = work / "inputs", work / "round", work / "altered"
    shutil.rmtree(work, ignore_errors=True)
    units = small_units(inputs)
    for unit in units:
        unit.folder.mkdir(parents=True, exist_ok=True)
        for ds in unit.datasets:
            ds.write(unit.folder)
        unit.models = [Model(ds) for ds in unit.datasets]
    tally = bench.Tally()
    bench.run_round(units, out, tally, exact=True)
    if tally.failed:
        print("the unaltered outputs fail:", *tally.problems, sep="\n")
        return 1
    res, tfm = out / "results", out / "transformed"
    st = SelfTest()
    st.expect("validate: an error row", checks.check_validate("error\t3\tbroken\n", 0))
    st.expect("validate: exit code", checks.check_validate("", 1))
    for unit in units:
        for md in unit.models:
            name = md.ds.name
            kinds = checks.PLOT_KINDS if unit.kinds is None else unit.kinds

            def plot_problems(base, skipped=frozenset()):
                rows = checks.read_stats(base / "statistics.tsv")
                return checks.check_plots(md, base, kinds, unit.kinds is None, set(skipped)
                                          | _predicted_skips(md, unit), rows, True)

            rows = checks.read_stats(res / name / "statistics.tsv")
            for stat in checks.STAT_NAMES:
                altered = {k: list(v) for k, v in rows.items()}
                value = altered[stat][0]
                if value == "NA":
                    altered[stat][0] = "0.5"
                elif stat in BOUNDED:
                    altered[stat][0] = "-5"
                else:
                    altered[stat][0] = repr(float(value) * 1.5 + 1)
                st.expect(f"stats {name} {stat}: {value} -> {altered[stat][0]}",
                          checks.check_stats(md, altered, True))
            for path in sorted((res / name).glob("plot.*.tsv")) + sorted(
                    (res / name).glob("spectra.*.tsv")):
                copy = _copy(res / name, scratch)
                alter_cell(copy / path.name, col=1 if path.name.startswith("spectra.") else -1)
                st.expect(f"plot {path.name}: last value", plot_problems(copy))
            svg = next((res / name).glob("plot.*.svg"))
            copy = _copy(res / name, scratch)
            (copy / svg.name).write_bytes(svg.read_bytes()[:-20])
            st.expect(f"plot {svg.name}: truncated", plot_problems(copy))
            copy = _copy(res / name, scratch)
            (copy / svg.name).unlink()
            st.expect(f"plot {svg.name}: deleted", plot_problems(copy))
            st.expect(f"plot {name}: skipped distance", plot_problems(res / name, {"distance"}))
            if unit.transform:
                copy = _copy(tfm, scratch)
                alter_cell(copy / f"out.{name}_lcc")
                st.expect(f"transform {name}: last value",
                          checks.check_transform(md, copy / f"out.{name}_lcc"))
    for command in ("validate", "stats", "plot", "transform"):
        results = {(id(u), c): (0, "") for u in units
                   for c in ("validate", "stats", "plot", "transform")}
        results[id(units[0]), command] = (1, "")
        tally = bench.Tally()
        bench.check_round(units, res, tfm, results, tally, True)
        st.expect(f"{command}: exit code 1 with every output written", tally.problems)
    unsampled_distances(st, units[0].models[0], res)
    sampled_distances(st, units[0].models[0], units[0].folder, work / "sampled")
    shutil.rmtree(scratch, ignore_errors=True)
    print(f"{st.count - len(st.missed)} of {st.count} alterations caught")
    return 1 if st.missed else 0


def unsampled_distances(st: SelfTest, md, res: Path):
    """The exact distance rows without the all-pairs model (``powerlaw-3x6k``):
    each altered row must fail the stats check or the distance plot's."""
    base = res / md.ds.name
    rows = checks.read_stats(base / "statistics.tsv")

    def problems(rows):
        return checks.check_stats(md, rows, False) + checks.check_plots(
            md, base, ["distance"], False, set(), rows, False)

    unaltered = problems(rows)
    if unaltered:
        print("MISSED\tstats unsampled: the unaltered rows fail", *unaltered, sep="\n")
        st.missed.append("stats unsampled")
    for stat in ("diam", "radius", "meandist", "mediandist", "diam_eff"):
        value = float(rows[stat][0])
        for new in (value * 1.5 + 1, value + 1, value - 1, value * 1.001):
            altered = {k: list(v) for k, v in rows.items()}
            altered[stat][0] = repr(new)
            st.expect(f"stats unsampled: {stat} {value} -> {new}", problems(altered))


def sampled_distances(st: SelfTest, md, folder: Path, out: Path):
    """The sampled-distance rows, from a threshold below the component's size."""
    checks.EXACT_THRESHOLD, checks.SAMPLE_SOURCES = 50, 20
    bench.netstats(["stats", folder / f"out.{md.ds.name}", "--all", "--out", out,
                    "--exact-threshold", 50, "--sample-sources", 20])
    rows = checks.read_stats(out / md.ds.name / "statistics.tsv")
    unaltered = checks.check_stats(md, rows, False)
    if unaltered:
        print("MISSED\tstats sampled: the unaltered rows fail", *unaltered, sep="\n")
        st.missed.append("stats sampled")
    for what, col, value in (("method", 2, "exact"), ("parameters", 3, "seed=42"),
                             ("diam below radius", 0, "1")):
        altered = {k: list(v) for k, v in rows.items()}
        altered["diam"][col] = value
        st.expect(f"stats sampled: diam {what} -> {value}",
                  checks.check_stats(md, altered, False))


def _predicted_skips(md, unit) -> set[str]:
    return set(checks.PLOT_KINDS) - checks.applicable_kinds(md) if unit.kinds is None else set()


def _copy(src: Path, scratch: Path) -> Path:
    shutil.rmtree(scratch, ignore_errors=True)
    shutil.copytree(src, scratch)
    return scratch


if __name__ == "__main__":
    sys.exit(main())
