import ast
import os
import subprocess
import sys
from collections import Counter
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


def test_exact_int_checks_live_in_one_helper():
    # "An exact int, not a float, not a bool" is written once, in
    # `lattice._check_int`: no other `type(x) is int`, `type(x) is not int`
    # or `isinstance(x, int)` test anywhere in the library.
    def is_int(node):
        return isinstance(node, ast.Name) and node.id == "int"

    def tests_int(node):
        if isinstance(node, ast.Compare):
            left = node.left
            return (
                isinstance(left, ast.Call)
                and getattr(left.func, "id", None) == "type"
                and any(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops)
                and any(map(is_int, node.comparators))
            )
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
            kinds = node.args[1:]
            kinds += [e for k in kinds if isinstance(k, ast.Tuple) for e in k.elts]
            return any(map(is_int, kinds))
        return False

    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        helper = {
            id(node)
            for func in tree.body
            if path.stem == "lattice" and getattr(func, "name", None) == "_check_int"
            for node in ast.walk(func)
        }
        found += sorted({
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if tests_int(node) and id(node) not in helper
        })
    assert found == []


def test_every_public_name_has_a_library_caller():
    # Library API that only its tests reach belongs in the tests: every
    # exported name, and every top-level function and class, private or
    # not, is read somewhere in the library outside its own definition.
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}

    def reads(tree):
        return Counter(
            node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
        )

    read = sum(map(reads, trees.values()), Counter())
    unread = []
    for path, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if read[node.name] == reads(node)[node.name]:
                    unread.append(f"{path.stem}.{node.name}")
            elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                unread += [
                    f"{path.stem}.{name}" for name in ast.literal_eval(node.value) if not read[name]
                ]
    assert sorted(unread) == []


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
    # A cache keyed by (n, i) or by a block context must not grow with every
    # size a process meets: `functools.cache` and `lru_cache(maxsize=None)`
    # are unbounded.
    unbounded = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for deco in node.decorator_list:
                func = deco.func if isinstance(deco, ast.Call) else deco
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
                if name == "cache":
                    unbounded.append(f"{path.name}:{node.name}")
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
    # A label is the pair (i, coords), a weight its coordinate tuple and a
    # Weyl element its image tuple, so there is no record module, no record
    # class and no `Weight`.  Certificates are tuples and Ext^1 kinds are
    # strings.  No library module imports `dataclasses`, `enum` or `typing`,
    # whose imports cost more than the library's own modules.
    assert sorted(path.stem for path in SOURCES if path.stem == "record") == []
    found, imported = [], {}
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        imported[path.stem] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported[path.stem] |= {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                imported[path.stem] |= {node.module} | {alias.name for alias in node.names}
            names = [
                getattr(node, field, None)
                for field in ("id", "attr", "name", "asname", "arg", "module")
            ]
            if isinstance(node, ast.ClassDef):
                names += [getattr(base, "id", getattr(base, "attr", None)) for base in node.bases]
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.append(node.value)
            found += [
                f"{path.name}:{node.lineno}: {name}"
                for name in names
                if isinstance(name, str)
                and name.rpartition(".")[2] in {"Weight", "_weight", "Record", "record"}
            ]
    assert found == []
    assert sorted(
        f"{stem}: {module}"
        for stem, modules in imported.items()
        for module in modules & {"dataclasses", "enum", "typing"}
    ) == []


def test_layer_modules_import_nothing_from_lattice():
    # Every layer API takes its simple's label (i, coords), so `loewy`,
    # `projective` and `ext` compute on int tuples and never do weight
    # arithmetic: none of them imports the weight lattice.
    found = []
    for stem in ("loewy", "projective", "ext"):
        path = Path(loewylab.__file__).with_name(f"{stem}.py")
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            elif isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            else:
                continue
            found += [f"{stem}: {m}" for m in modules if m.rpartition(".")[2] == "lattice"]
    assert found == []


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
