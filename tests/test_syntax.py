"""Python 3.10 grammar guard.

Parses every Python file under src/ and tests/ with the 3.10 grammar, so
syntax newer than the oldest supported interpreter fails here even when a
newer one runs the suite.  This checks syntax only, not library APIs: a
call into the standard library or numpy that 3.10 or numpy 1.24 lacks
still passes.
"""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py"))


def test_files_found():
    assert any(p.name == "cli.py" for p in FILES)
    assert any(p.name == "test_syntax.py" for p in FILES)


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_with_python_310_grammar(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
