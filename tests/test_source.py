import ast
from pathlib import Path

import loewylab

SOURCES = sorted(Path(loewylab.__file__).parent.glob("*.py"))


def test_library_has_no_assert_statements():
    # `python -O` strips asserts, so invariants must be raised errors.
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)
        ]
    assert found == []


def test_every_public_name_has_a_library_caller():
    # Library API that only its tests reach belongs in the tests.
    exported, used = {}, set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        used |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                for name in ast.literal_eval(node.value):
                    exported[name] = f"{path.stem}.{name}"
    assert sorted(dotted for name, dotted in exported.items() if name not in used) == []
