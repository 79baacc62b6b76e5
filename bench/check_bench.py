"""The benchmark's own tests, on reduced graph sizes.

Run from the repository root:  python3 -m pytest -q bench/check_bench.py

The file name keeps the package's test run from collecting these.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import layers
import run
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())


def declared(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in CONFIG[section]}


def run_cli(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )


def test_config_matches_the_code():
    assert [w["name"] for w in CONFIG["workloads"]] == list(WORKLOADS)
    assert declared("end_to_end") == run.END_TO_END_UNITS
    assert declared("per_layer") == layers.UNITS
    assert CONFIG["end_to_end"][0]["name"] == "setup_s"


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    proc = run_cli("--workload", workload, "--seed", "7", "--seconds", "1",
                   "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    want = declared("per_layer" if trace else "end_to_end")
    assert {m: v["unit"] for m, v in result["metrics"].items()} == want
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())


def _truncate(text: str) -> str:
    return text[: len(text) // 2]


def _loosen_alpha(text: str) -> str:
    return re.sub(r'("alpha": \{\n\s*"value": )([^,]+)', lambda m: m[1] + "0.75", text, count=1)


@pytest.mark.parametrize("corrupt", [_truncate, _loosen_alpha])
@pytest.mark.parametrize("which", ["plain", "traced"])
def test_corrupted_output_counts_as_failed(monkeypatch, capsys, corrupt, which):
    real_spawn = run.spawn

    def spawn_then_corrupt(argv, stdout_path):
        outcome = real_spawn(argv, stdout_path)
        traced = stdout_path.name.endswith(".traced.out")
        if stdout_path.suffix == ".out" and traced == (which == "traced"):
            stdout_path.write_text(corrupt(stdout_path.read_text()))
        return outcome

    monkeypatch.setattr(run, "spawn", spawn_then_corrupt)
    run.main(["--workload", "alpha-wide", "--seed", "3", "--seconds", "0", "--smoke",
              "--trace", "1" if which == "traced" else "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("out"))
    proc = run_cli("--workload", "alpha-wide", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
