"""Byte-compare the outputs of this checkout with those of a parent revision.

    python3 tools/same_outputs.py --parent HEAD~1

The parent's files are extracted with ``git archive`` into a temporary
directory.  The benchmark's inputs of all three workloads are generated
once, with the seed below, by ``perfbench/workloads.py``; the units and
their plot kinds come from ``perfbench/run.py``.  Both trees then run the
same commands on them: ``validate``, ``stats``, each unit's benchmark plot
kinds, ``plot --all`` (except on directed-300k, where ``complex-eigenvalues``
takes minutes) and ``transform lcc`` where the benchmark runs it.  Every
output file, exit code, stdout and stderr must be byte-identical.  The
differences are printed, and the exit code is 1 when there are any.
"""

from __future__ import annotations

import argparse
import filecmp
import io
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED = 301
# plot --all on this workload's 36k-node graph runs complex-eigenvalues for minutes
NO_PLOT_ALL = {"directed-300k"}


def differences(a: Path, b: Path) -> list[str]:
    """Each file, by path relative to the two roots, that differs or is on one side only."""
    files_a = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    out = []
    for rel in sorted(files_a | files_b):
        if rel not in files_b:
            out.append(f"only in {a}: {rel}")
        elif rel not in files_a:
            out.append(f"only in {b}: {rel}")
        elif not filecmp.cmp(a / rel, b / rel, shallow=False):
            out.append(f"differs: {rel}")
    return out


def commands(inputs: Path) -> list[tuple[str, list[str]]]:
    """``(label, CLI arguments)`` per command, after writing the inputs.

    A command's files go to ``LABEL/out``: the paths are relative, so both
    trees print the same.
    """
    sys.path.insert(0, str(ROOT / "perfbench"))
    import run as bench

    cmds = []
    for workload in bench.WORKLOADS:
        for i, unit in enumerate(bench.make_units(workload, SEED, inputs / workload)):
            unit.folder.mkdir(parents=True, exist_ok=True)
            for ds in unit.datasets:
                ds.write(unit.folder)
            path, label = str(unit.path), f"{workload}.{i}"
            cmds.append((f"{label}.validate", ["validate", path]))
            writing = [("stats", ["stats", path, *(unit.stats or ["--all"])]),
                       ("plot", ["plot", path, *(unit.kinds or ["--all"])])]
            if unit.kinds is not None and workload not in NO_PLOT_ALL:
                writing.append(("plot-all", ["plot", path, "--all"]))
            if unit.transform:
                writing.append(("transform", ["transform", "lcc", path]))
            cmds += [(f"{label}.{what}", [*cmd, "--out", f"{label}.{what}/out"])
                     for what, cmd in writing]
    return cmds


def run_tree(src: Path, work: Path, cmds) -> None:
    """Run every command on the sources under ``src``, from ``work``, and
    record its stdout, stderr and exit code in ``work/LABEL``."""
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("NETSTAT_OUT", None)
    for label, args in cmds:
        (work / label).mkdir(parents=True)
        proc = subprocess.run([sys.executable, "-m", "netstats.cli", *args],
                              cwd=work, env=env, capture_output=True)
        (work / label / "stdout").write_bytes(proc.stdout)
        (work / label / "stderr").write_bytes(proc.stderr)
        (work / label / "exit").write_text(f"{proc.returncode}\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="git revision to compare with")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as tmp:
        tmp = Path(tmp)
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", args.parent],
                                 capture_output=True, check=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp / "parent-tree", filter="data")
        cmds = commands(tmp / "inputs")
        for side, src in (("parent", tmp / "parent-tree" / "src"), ("change", ROOT / "src")):
            print(f"{side}: {len(cmds)} commands", file=sys.stderr)
            run_tree(src, tmp / side, cmds)
        diff = differences(tmp / "parent", tmp / "change")
        files = sum(1 for p in (tmp / "change").rglob("*") if p.is_file())
        for line in diff:
            print(line)
        print(f"{len(cmds)} commands, {files} files on the change side "
              f"(stdout, stderr and exit code included), {len(diff)} differences")
        return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
