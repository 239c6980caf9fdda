import ast
import os
import subprocess
import sys
from pathlib import Path

import loewylab

SOURCES = sorted(Path(loewylab.__file__).parent.glob("*.py"))
ACCEPTANCE = Path(__file__).with_name("test_acceptance.py")


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


def test_acceptance_keeps_independent_expectations():
    # The acceptance criteria state their own expectations; they must not
    # reuse the verify battery or the command line that renders it.
    tree = ast.parse(ACCEPTANCE.read_text(), filename=str(ACCEPTANCE))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module:
            imported.add(node.module)
            imported |= {f"{node.module}.{alias.name}" for alias in node.names}
    banned = ("loewylab.checks", "loewylab.cli")
    assert sorted(
        name for name in imported if any(name == b or name.startswith(b + ".") for b in banned)
    ) == []


def test_lru_caches_are_bounded():
    # A cache keyed by (n, i) must not grow with every size a process meets.
    unbounded = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for deco in node.decorator_list:
                func = deco.func if isinstance(deco, ast.Call) else deco
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
                if name != "lru_cache":
                    continue
                args = getattr(deco, "args", [])
                size = {kw.arg: kw.value for kw in getattr(deco, "keywords", [])}.get(
                    "maxsize", args[0] if args else None
                )
                if not (isinstance(size, ast.Constant) and isinstance(size.value, int)):
                    unbounded.append(f"{path.name}:{node.name}")
    assert unbounded == []


def test_verify_battery_reads_layer_rows():
    # The battery reads Verma and cover layers as rows; `rad_layers_z_g1`,
    # the Frobenius-kernel table keyed by block index, has no rows form.
    path = Path(loewylab.__file__).with_name("checks.py")
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    assert sorted(n for n in imported if n.startswith("rad_layers_")) == ["rad_layers_z_g1"]


def test_cli_builds_no_verma_rows():
    # A Verma listing leaves `loewy` as blocks and is written from them: the
    # command line imports no `*_rows` function from `loewy`, so it never
    # materialises a Verma's 2^n rows as a list.
    path = Path(loewylab.__file__).with_name("cli.py")
    tree = ast.parse(path.read_text(), filename=str(path))
    from_loewy = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module in ("loewy", "loewylab.loewy")
        for alias in node.names
    }
    assert "verma_blocks" in from_loewy
    assert sorted(name for name in from_loewy if name.endswith("_rows")) == []


def test_layer_modules_build_no_labels_or_dataclasses():
    # Verma layers leave `loewy` as rows: it needs no label class.  No
    # library module imports `dataclasses` or `typing`, whose imports cost
    # more than the library's own modules.
    imported = {}
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        imported[path.stem] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported[path.stem] |= {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                imported[path.stem] |= {node.module} | {alias.name for alias in node.names}
    assert "IrreducibleLabel" not in imported["loewy"]
    assert sorted(
        f"{stem}: {module}"
        for stem, modules in imported.items()
        for module in modules & {"dataclasses", "typing"}
    ) == []


def test_cli_import_leaves_heavy_modules_unloaded():
    # Without site (-S), nothing but the library decides what importing the
    # command line loads.
    script = "import sys, loewylab.cli; print(sorted(sys.modules))"
    env = {**os.environ, "PYTHONPATH": str(Path(loewylab.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-S", "-c", script], env=env, capture_output=True, text=True, check=True
    ).stdout
    loaded = set(ast.literal_eval(out))
    assert "loewylab.cli" in loaded
    assert sorted(loaded & {"dataclasses", "inspect", "ast", "typing"}) == []
