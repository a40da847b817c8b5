"""Every empint name the benchmark's hooks wrap or call still exists, and
the trace hooks fire on a real run.

perfbench/traced.py wraps module attributes by name and perfbench/probe.py
calls the package's constructors, so a rename in empint would otherwise
surface only in the benchmark's own smoke test.  Both files are parsed with
`ast`, never imported: traced.py's `instrument` monkeypatches empint, so the
traced runs below are subprocesses.
"""
import ast
import importlib.util
import json
import os
import pkgutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
HOOK_FILES = ("traced.py", "probe.py")

# names a hook must keep reaching, whatever else the scan finds
EXPECTED = {
    "empint.statistics.hoeffding_decompose",
    "empint.statistics.multiple_integral_j",
    "empint.statistics.u_statistic",
    "empint.cli.derive_expansion_coefficients",
    "empint.cli.validate_expansion",
    "empint.experiments._member_matrix",
    "empint.kernels.FunctionFamily.unique_tables",
}


def _dotted(node, bound):
    """Dotted empint name of a Name/Attribute chain, or None."""
    attrs = []
    while isinstance(node, ast.Attribute):
        attrs.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name) or node.id not in bound:
        return None
    return ".".join([bound[node.id]] + attrs[::-1])


def hook_names(source: str) -> set:
    """The empint names a hook file imports, reads, assigns or passes to
    `tracer.span` / `tracer.count` as (owner, "attribute")."""
    tree = ast.parse(source)
    bound = {}  # local name -> dotted empint name
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                root = a.name.split(".")[0]
                if root == "empint":
                    bound[a.asname or root] = a.name if a.asname else root
        elif isinstance(node, ast.ImportFrom) and node.level == 0 \
                and node.module.split(".")[0] == "empint":
            for a in node.names:
                bound[a.asname or a.name] = f"{node.module}.{a.name}"
    names = set(bound.values())
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names.add(_dotted(node, bound))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr in ("span", "count") and len(node.args) >= 2 \
                and isinstance(node.args[1], ast.Constant):
            owner = _dotted(node.args[0], bound)
            if owner is not None:
                names.add(f"{owner}.{node.args[1].value}")
    names.discard(None)
    return names


def _exists(dotted: str) -> bool:
    try:
        pkgutil.resolve_name(dotted)
    except (ImportError, AttributeError):
        return False
    return True


@pytest.mark.parametrize("name", HOOK_FILES)
def test_hook_names_exist(name):
    names = hook_names((PERFBENCH / name).read_text())
    assert names, f"no empint name found in {name}"
    missing = sorted(n for n in names if not _exists(n))
    assert not missing, f"{name} reaches names empint no longer has: {missing}"


def test_scan_finds_the_wrapped_names():
    found = set().union(*(hook_names((PERFBENCH / f).read_text())
                          for f in HOOK_FILES))
    assert EXPECTED <= found


def test_scan_flags_a_missing_name():
    names = hook_names("from empint import statistics\n"
                       "tracer.span(statistics, 'no_such_function', 'x')\n")
    assert "empint.statistics.no_such_function" in names
    assert not _exists("empint.statistics.no_such_function")


def _workloads():
    spec = importlib.util.spec_from_file_location("workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# per smoke workload (12 replications): draw_bundle spans, draw_sample spans,
# streams opened and uniforms drawn; J at k = 1 reads the base sample of
# n = 400, decoupled-I at k = 2 the two decoupled copies of n = 64
TRACE_COUNTS = {"mc_k1_interval": (12, 12, 12, 4800),
                "mc_k2_box": (12, 24, 24, 1536)}


@pytest.mark.parametrize("name", sorted(TRACE_COUNTS))
def test_traced_run_sees_every_draw(name, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(_workloads().make_config(name, 7, smoke=True)))
    trace = tmp_path / "trace.json"
    run = subprocess.run(
        [sys.executable, str(PERFBENCH / "traced.py"), str(config),
         str(tmp_path / "out"), "1", str(trace)],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    data = json.loads(trace.read_text())
    spans = Counter(span[0] for span in data["spans"])
    assert (spans["statistics.draw_bundle"], spans["spaces.draw_sample"],
            data["counts"]["spaces.streams"],
            data["counts"]["spaces.uniforms"]) == TRACE_COUNTS[name]
