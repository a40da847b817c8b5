"""Python 3.10 grammar guard.

Parses every Python file under src/, tests/ and perfbench/ (whose smoke
test the 3.10 CI leg runs) with the 3.10 grammar, so syntax newer than the
oldest supported interpreter fails here even when a newer one runs the
suite.  This checks syntax only, not library APIs: a
call into the standard library or numpy that 3.10 or numpy 1.24 lacks
still passes.

It also checks that every name a module or test file imports is read there.
"""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py"))
BENCHMARK_FILES = sorted((ROOT / "perfbench").glob("*.py"))


def test_files_found():
    assert any(p.name == "cli.py" for p in FILES)
    assert any(p.name == "test_syntax.py" for p in FILES)
    assert any(p.name == "run.py" for p in BENCHMARK_FILES)


@pytest.mark.parametrize("path", FILES + BENCHMARK_FILES,
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_with_python_310_grammar(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


# imported but never read by its module, on purpose: the traced benchmark
# run wraps statistics.hoeffding_decompose under that module's name
UNREAD_IMPORTS = {("statistics", "hoeffding_decompose")}
MODULES = [p for p in FILES if p.name != "__init__.py"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_imported_name_is_read(path):
    tree = ast.parse(path.read_text())
    imported = {(a.asname or a.name).split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for a in node.names}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unread = {name for name in imported - read
              if (path.stem, name) not in UNREAD_IMPORTS}
    assert not unread, f"{path.name} imports names it never reads: {sorted(unread)}"
