"""The launcher end to end: a short checked run, and a refusal without sources."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def _launch(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


def test_short_run_prints_checked_result():
    scratch_before = (ROOT / ".perfbench_out").exists()
    done = _launch(ROOT, "--workload", "ode_families", "--seed", "5",
                   "--seconds", "1", "--trace", "0")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    # at least three timed passes of three scenarios
    assert result["attempted"] >= 9 and result["attempted"] % 3 == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0
    if not scratch_before:
        assert not (ROOT / ".perfbench_out").exists()


def test_run_without_sources_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _launch(tmp_path, "--workload", "ode_families", "--seed", "1",
                   "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert done.stdout == ""
