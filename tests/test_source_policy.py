import ast
from pathlib import Path

import pairloc


def test_package_has_no_assert_statements():
    # `python -O` strips asserts, so a cross-check must raise InternalError instead
    found = []
    for path in sorted(Path(pairloc.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []
