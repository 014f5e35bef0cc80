"""tools/ab.py on a stubbed benchmark runner: no benchmark runs here."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "ab.py"
_spec = importlib.util.spec_from_file_location("ab", _PATH)
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)


def _result(stats_s, correct=True):
    return {"correct": correct, "attempted": 12, "failed": 0 if correct else 1,
            "metrics": {"stats_s": {"value": stats_s, "unit": "s"},
                        "peak_rss_mb": {"value": 100.0, "unit": "MB"}}}


@pytest.fixture
def stubbed(monkeypatch):
    """Every run reads stats_s 2.0 s on the parent and 1.0 s + 0.1 s per
    earlier run of its own on the change; the calls are recorded."""
    calls = []

    def run_bench(tree, workload, seed, seconds):
        calls.append((tree.name, workload, seed, seconds))
        if tree.name == "parent":
            return _result(2.0)
        mine = sum(1 for c in calls if c[0] == "change" and c[1] == workload) - 1
        return _result(1.0 + 0.1 * mine)

    monkeypatch.setattr(ab, "run_bench", run_bench)
    monkeypatch.setattr(ab, "extract_tree", lambda rev, dest: dest.mkdir(parents=True))
    monkeypatch.setattr(ab, "copy_checkout", lambda dest: dest.mkdir(parents=True))
    monkeypatch.setattr(ab, "_revision", lambda rev: f"sha-of-{rev}")
    return calls


def test_pairs_alternate_and_summarize_in_one_schema(stubbed, tmp_path):
    out = tmp_path / "bench.json"
    assert ab.main(["--parent", "HEAD~1", "--pairs", "4", "--seed", "7",
                    "--workload", "powerlaw-3x6k", "--out", str(out)]) == 0
    assert [c[0] for c in stubbed] == ["parent", "change", "change", "parent"] * 2
    seconds = json.loads((_PATH.parents[1] / "BENCHMARK.json").read_text())["run_seconds"]
    assert {c[1:] for c in stubbed} == {("powerlaw-3x6k", 7, seconds)}
    result = json.loads(out.read_text())
    assert result["parent"] == "sha-of-HEAD~1"
    entry = result["workloads"]["powerlaw-3x6k seed 7"]
    assert entry["pairs"] == 4 and entry["all_correct"]
    assert entry["first"] == ["parent", "change"] * 2
    assert entry["failed_ops"] == {"parent": 0, "change": 0}
    stats_s = entry["metrics"]["stats_s"]
    assert stats_s["change"] == {"median": 1.15, "q1": 1.075, "q3": 1.225,
                                 "runs": [1.0, 1.1, 1.2, 1.3]}
    assert stats_s["parent"]["median"] == 2.0
    assert stats_s["change_vs_parent"] == -0.425
    assert stats_s["change_lower_pairs"] == 4
    assert stats_s["bound"] == 0.25 and stats_s["within_bound"] is True
    assert entry["metrics"]["peak_rss_mb"]["change_lower_pairs"] == 0


def test_every_workload_of_the_benchmark_by_default(stubbed, tmp_path):
    ab.main(["--parent", "HEAD", "--pairs", "1", "--out", str(tmp_path / "b.json")])
    declared = json.loads((_PATH.parents[1] / "BENCHMARK.json").read_text())
    assert [c[1] for c in stubbed[::2]] == [w["name"] for w in declared["workloads"]]


def test_a_metric_past_its_bound_and_a_failed_run_show():
    runs = {"parent": [_result(1.0), _result(1.0)],
            "change": [_result(1.3), _result(1.4, correct=False)]}
    entry = ab.summarize(runs, ["parent", "change"], {"stats_s": 0.25})
    assert not entry["all_correct"]
    assert entry["failed_ops"] == {"parent": 0, "change": 1}
    stats_s = entry["metrics"]["stats_s"]
    assert stats_s["change_vs_parent"] == 0.35 and stats_s["within_bound"] is False
    assert entry["metrics"]["peak_rss_mb"]["bound"] is None
