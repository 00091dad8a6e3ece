"""pyproject.toml admits Python 3.10, so no module may use newer syntax.

ast.parse with feature_version=(3, 10) refuses grammar added later (except*,
type statements, ...).  It cannot catch a call to a newer library function.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_module_parses_as_python_3_10():
    modules = sorted([*(ROOT / "src" / "ellquot").glob("*.py"), *(ROOT / "tests").glob("*.py")])
    found = []
    for path in modules:
        try:
            ast.parse(path.read_text(), str(path), feature_version=(3, 10))
        except SyntaxError as exc:
            found.append(f"{path.relative_to(ROOT)}:{exc.lineno}: {exc.msg}")
    assert modules, ROOT
    assert found == []
