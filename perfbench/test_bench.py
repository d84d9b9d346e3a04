"""Tests of the benchmark itself, on tiny inputs:

    python3 -m pytest perfbench
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run_tiny(workload, trace, cwd=HERE.parent, script=HERE / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    return proc, json.loads(lines[-1]) if lines else None


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc, result = run_tiny(workload, trace)
    assert proc.returncode == 0, proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_call_counts_repeat_exactly():
    counts = []
    for _ in range(2):
        proc, result = run_tiny("mc_paper", 1)
        assert proc.returncode == 0, proc.stderr
        counts.append({k: v["value"] for k, v in result["metrics"].items()
                       if v["unit"] == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["slm.fit_mle.calls"] > 0 and counts[0]["slm.fit_mle.nfev"] > 0


def run_corrupted(monkeypatch, capsys, workload, score_fn, **changes):
    """Run a tiny workload with every row of simulate.<score_fn> replaced."""
    run.import_program()
    import slmfic.simulate as simulate

    original = getattr(simulate, score_fn)

    def corrupted(*args, **kwargs):
        row = original(*args, **kwargs)
        return dataclasses.replace(row, **{k: f(row) for k, f in changes.items()})

    monkeypatch.setattr(simulate, score_fn, corrupted)
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.5",
                     "--trace", "0", "--tiny"])
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_corrupted_safic_score_trips_the_gate(monkeypatch, capsys):
    code, result = run_corrupted(monkeypatch, capsys, "sweep_p12", "safic_score",
                                 score=lambda row: row.score + 1e-3)
    assert code == 1
    assert result["correct"] is False and result["failed"] >= 1


@pytest.mark.parametrize("workload", ["sweep_p12", "maxvar_fic"])
def test_zero_fic_rows_trip_the_gate(monkeypatch, capsys, workload):
    """What a zero focus Jacobian gives: every FIC term 0, ranks still a permutation."""
    zero = lambda row: 0.0  # noqa: E731
    code, result = run_corrupted(monkeypatch, capsys, workload, "fic_score",
                                 bias2=zero, variance=zero, score=zero)
    assert code == 1
    assert result["correct"] is False and result["failed"] >= 1


def test_without_the_program_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc, result = run_tiny("mc_paper", 0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert result is None
