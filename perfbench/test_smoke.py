"""Smoke test of the benchmark: all four workloads at tiny sizes, end to end
and traced, plus the refusal to run without the program's sources.

    python -m pytest perfbench/test_smoke.py

It takes a few seconds and is not part of the tier-1 test run (pytest's
testpaths there is tests/).
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 7


def _run(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc


def _result(*args):
    proc = _run(*args)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _check(result):
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result) == {"correct", "attempted", "failed", "metrics"}


def test_end_to_end_every_workload():
    result = _result("--smoke", "--workload", "all", "--seed", str(SEED),
                     "--seconds", "1", "--trace", "0")
    _check(result)
    names = {f"{w['name']}.{m['name']}" for w in BENCH["workloads"]
             for m in BENCH["end_to_end"]}
    assert set(result["metrics"]) == names


def test_single_workload_reports_the_end_to_end_metrics():
    result = _result("--smoke", "--workload", "mc_k2_box", "--seed", str(SEED),
                     "--seconds", "1", "--trace", "0")
    _check(result)
    assert set(result["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}
    for m in BENCH["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


def test_traced_run_reports_every_layer_metric():
    result = _result("--smoke", "--workload", "chaos_n20", "--seed", str(SEED),
                     "--seconds", "1", "--trace", "1")
    _check(result)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in BENCH["per_layer"]}


def test_refuses_without_the_program():
    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = _run("--workload", "mc_k1_interval", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    shutil.rmtree(bare)
