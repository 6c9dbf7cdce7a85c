"""Checks on the package source itself."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "insdel"


def test_package_has_no_assert_statements():
    """Runtime bounds must survive `python -O`, so the package raises instead."""
    sources = sorted(PACKAGE.rglob("*.py"))
    assert sources, f"no package source under {PACKAGE}"
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
