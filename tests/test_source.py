import ast
from pathlib import Path

import loewylab


def test_library_has_no_assert_statements():
    # `python -O` strips asserts, so invariants must be raised errors.
    found = []
    for path in sorted(Path(loewylab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)
        ]
    assert found == []
