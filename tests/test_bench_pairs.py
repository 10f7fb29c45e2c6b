"""The summary of ``tools/bench_pairs.py``: pairs won by the metric's better
direction, ties for neither side, and medians with quartiles per side; and
its ``git archive`` copy of a revision."""
import importlib.util
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def result(value, rounds):
    return {"metrics": {"m": {"value": value, "unit": "s"}}, "rounds": rounds,
            "failed": 0, "attempted": 10}


def test_summary_counts_pairs_won_by_direction():
    tool = load_tool()
    runs = [{"base": result(b, 3), "head": result(h, 4)}
            for b, h in ((1.0, 0.8), (1.0, 1.0), (1.0, 1.2), (2.0, 0.5))]
    lower = tool.summary(runs, {"m": "lower"})
    assert "head better in 2 of 4" in lower[0]
    assert "base 1 [1, 1.25]" in lower[0] and "head 0.9 [0.725, 1.05]" in lower[0]
    assert "head better in 1 of 4" in tool.summary(runs, {"m": "higher"})[0]
    assert lower[1:] == ["base         rounds per run [3, 3, 3, 3]; 0 of 40 tasks failed",
                         "head         rounds per run [4, 4, 4, 4]; 0 of 40 tasks failed"]


def test_export_writes_the_committed_files(tmp_path):
    tool = load_tool()
    probe = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=tool.ROOT,
                           capture_output=True, text=True)
    if probe.returncode != 0:
        pytest.skip("not a git checkout")
    dest = tmp_path / "head"
    assert tool.export("HEAD", dest) == probe.stdout.strip()
    committed = subprocess.run(["git", "show", "HEAD:BENCHMARK.json"], cwd=tool.ROOT,
                               check=True, capture_output=True, text=True).stdout
    assert (dest / "BENCHMARK.json").read_text() == committed
    assert (dest / "bench" / "run.py").is_file()
