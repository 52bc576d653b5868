"""The test oracles stand alone: ``oracles`` shares no code with the package."""

import ast
from pathlib import Path

ORACLES = Path(__file__).resolve().parent / "oracles.py"
ALLOWED = {"itertools", "math", "numpy"}


def test_oracles_import_no_package_module():
    # absolute imports of math, itertools and numpy only: never onewaysim,
    # nor a relative import, nor __import__
    for node in ast.walk(ast.parse(ORACLES.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0 and node.module in ALLOWED, ast.unparse(node)
        elif isinstance(node, ast.Import):
            assert {alias.name for alias in node.names} <= ALLOWED, ast.unparse(node)
        assert not (isinstance(node, ast.Name) and node.id == "__import__")
