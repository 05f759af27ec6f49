"""Smoke test of the benchmark on a tiny bank: every workload end to end,
traced and untraced, with every metric BENCHMARK.json names."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench.bench import Run
from perfbench.workloads import BANKS, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_end_to_end(name, tmp_path):
    assert name in {w["name"] for w in SPEC["workloads"]}
    runs = {trace: Run(WORKLOADS[name], seed=5, seconds=0.2,
                       workdir=tmp_path / f"trace{trace}", spec=BANKS["tiny"])
            for trace in (0, 1)}
    plain = runs[0].untraced()
    traced = runs[1].traced(tmp_path / "spans.tsv.gz")
    for result, listed in ((plain, SPEC["end_to_end"]), (traced, SPEC["per_layer"])):
        assert result["correct"], result["errors"]
        assert result["attempted"] >= 1 and result["failed"] == 0
        assert set(result["metrics"]) == {m["name"] for m in listed}
        for m in listed:
            value, unit, samples = result["metrics"][m["name"]]
            assert unit == m["unit"], m["name"]
            assert isinstance(samples, int) and samples >= 0, m["name"]
            assert value == value, m["name"]  # not NaN
    assert traced["digest"] == traced["untraced_digest"] == plain["digest"]
    assert (tmp_path / "spans.tsv.gz").stat().st_size > 0


def test_bare_checkout_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cold-1k", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
