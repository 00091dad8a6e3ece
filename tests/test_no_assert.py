"""python -O strips assert statements, so no check in the library may use one."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ellquot"


def test_the_library_has_no_assert_statement():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert list(SRC.glob("*.py")), SRC
    assert found == []
