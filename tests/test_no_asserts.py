"""No `assert` statement guards a result in `src/twistkit`: `python -O`
strips them, so every internal check is an explicit raise."""

import ast
from pathlib import Path

import twistkit

SOURCE = Path(twistkit.__file__).parent


def test_no_assert_statements_in_the_package():
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SOURCE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert list(SOURCE.glob("*.py")) and found == []
