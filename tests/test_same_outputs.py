"""The byte comparison of tools/same_outputs.py."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "same_outputs.py"
_spec = importlib.util.spec_from_file_location("same_outputs", _PATH)
same_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_outputs)


def test_one_changed_byte_is_reported_by_name(tmp_path):
    a, b = tmp_path / "parent", tmp_path / "change"
    for root in (a, b):
        (root / "x.stats" / "out").mkdir(parents=True)
        (root / "x.stats" / "exit").write_text("0\n")
        (root / "x.stats" / "out" / "statistics.net.tsv").write_bytes(b"name\tvalue\n")
    assert same_outputs.differences(a, b) == []
    (b / "x.stats" / "out" / "statistics.net.tsv").write_bytes(b"name\tvalve\n")
    (b / "x.stats" / "stderr").write_bytes(b"")
    assert same_outputs.differences(a, b) == [
        "differs: x.stats/out/statistics.net.tsv",
        f"only in {b}: x.stats/stderr",
    ]
