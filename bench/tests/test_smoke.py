"""Smoke test of the benchmark: metric names and units, deterministic inputs.

Run from the repository root:

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [*SPEC["command"], "--workload", workload, "--seed", "3", "--seconds", "0.5",
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize(
    "workload,trace,kind",
    [("linear-sweep", 0, "end_to_end"), ("oracle-verify", 0, "end_to_end"),
     ("linear-sweep", 1, "per_layer")],
)
def test_every_metric_is_emitted_with_its_unit(workload, trace, kind):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in SPEC[kind]}


def test_workload_names_match_the_spec():
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)


def test_inputs_are_deterministic_in_the_seed():
    assert workloads.linear_lambdas(5, 2) == workloads.linear_lambdas(5, 2)
    assert workloads.linear_lambdas(5, 2) != workloads.linear_lambdas(6, 2)
    q1, lam1, mc1 = workloads.oracle_case(5, 7, 17)
    q2, lam2, mc2 = workloads.oracle_case(5, 7, 17)
    assert (q1.M, lam1, mc1) == (q2.M, lam2, mc2)
    assert (q1.boundaries == q2.boundaries).all()
    q3, lam3, mc3 = workloads.oracle_case(6, 7, 17)
    assert (lam3, mc3) != (lam1, mc1)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in SPEC["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("linear-sweep", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
