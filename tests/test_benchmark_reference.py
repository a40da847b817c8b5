"""The benchmark's seed-0 outputs, pinned in perfbench/reference.json, must
come out of the full-size workload configs byte for byte.

The configs are built by perfbench/workloads.py, loaded by path so the
benchmark directory needs no package marker."""
import hashlib
import importlib.util
import json
import os
from pathlib import Path

import pytest

from empint.cli import run

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
REFERENCE = json.loads((PERFBENCH / "reference.json").read_text())


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _workloads()


def _run_workload(tmp_path, name):
    ref = REFERENCE[name]
    cfg = workloads.make_config(name, ref["seed"])
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert run(str(path), str(out),
               workers=workloads.workers(name, os.cpu_count() or 1)) == 0
    return ref, out


@pytest.mark.parametrize("name", ["mc_k1_interval", "mc_k2_box"])
def test_curve_hash_matches_reference(tmp_path, name):
    ref, out = _run_workload(tmp_path, name)
    digest = hashlib.sha256((out / "curve.csv").read_bytes()).hexdigest()
    assert digest == ref["curve_sha256"]


def test_chaos_tails_match_reference(tmp_path):
    ref, out = _run_workload(tmp_path, "chaos_n20")
    report = json.loads((out / "report.json").read_text())
    assert report["payload"]["exact_tail"] == ref["exact_tail"]
