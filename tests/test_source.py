import ast
from pathlib import Path

import psicert

PACKAGE = Path(psicert.__file__).resolve().parent


def test_package_has_no_assert_statements():
    # `python -O` strips asserts, so invariants must be explicit checks that raise
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) >= 10
    found = [
        f"{path.relative_to(PACKAGE)}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in psicert: {found}"
