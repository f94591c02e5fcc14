"""Smoke test for the benchmark itself: one cheap job per workload, untraced
and traced, plus the two refusals.

Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

CHEAP_JOB = {
    "natural-grids": "singular-gl23-l2-lp2",
    "twisted-capped": "theorem2-tw4113-l-2-lp1-cap6",
    "brackets-identities": "identities-all-variants",
}


def bench(*args, cwd=ROOT, env=None):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=170)


def test_every_workload_has_a_cheap_job():
    assert sorted(CHEAP_JOB) == sorted(w["name"] for w in SPEC["workloads"])
    for workload, job in CHEAP_JOB.items():
        assert job in run.WORKLOADS[workload]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(CHEAP_JOB))
def test_one_job_prints_every_metric(workload, trace, monkeypatch, capsys):
    monkeypatch.setitem(run.WORKLOADS, workload, [CHEAP_JOB[workload]])
    code = run.main(["--workload", workload, "--seed", "7", "--seconds", "0",
                     "--trace", str(trace)])
    out, err = capsys.readouterr()
    assert code == 0, err
    lines = out.strip().splitlines()
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert (result["correct"], result["attempted"], result["failed"]) == (True, 1, 0)
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in wanted)
    for metric in wanted:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"], metric["name"]
        assert isinstance(printed["value"], (int, float)), metric["name"]
        pattern = rf"^metric {re.escape(metric['name'])} \S+ " \
                  rf"{re.escape(metric['unit'])} samples=\d+$"
        assert any(re.match(pattern, line) for line in lines), metric["name"]
    assert any(line.startswith("env python=") and "nproc=" in line
               and "commit=" in line for line in lines)


def test_refuses_when_the_cell_budget_is_set():
    env = dict(os.environ, SUPERHARM_MAX_CELLS="1000000")
    proc = bench("--workload", "brackets-identities", "--seed", "1",
                 "--seconds", "0", "--trace", "0", env=env)
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("traces", "__pycache__"))
    proc = bench("--workload", "natural-grids", "--seed", "1", "--seconds", "0",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_a_rejected_argument_vector_counts_as_failed(monkeypatch, capsys):
    monkeypatch.setitem(run.JOBS, "bad-argv", ["check-brackets", "--no-such-option"])
    monkeypatch.setitem(run.WORKLOADS, "brackets-identities", ["bad-argv"])
    code = run.main(["--workload", "brackets-identities", "--seed", "1",
                     "--seconds", "0", "--trace", "0"])
    out, _ = capsys.readouterr()
    assert code == 0
    result = json.loads(out.strip().splitlines()[-1])
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 1, 1)
