"""Rules that every module of the package's source keeps."""

import ast
import os
import pathlib
import subprocess
import sys

import swapstable

SRC = pathlib.Path(swapstable.__file__).parent


def test_no_assert_statements_in_the_package():
    # Checks that guard an output must survive `python -O`, which strips
    # assert statements; they raise through errors.verify instead.
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 10
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            "%s:%d" % (path.name, node.lineno)
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []


def _private_defs(tree):
    """Module-level _name functions and _name methods of module-level classes."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield from (
                item
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                and item.name.startswith("_")
                and not item.name.endswith("__")
            )
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name.startswith("_"):
                yield node


def test_private_functions_have_a_caller():
    # A private helper nobody calls is dead code; public names may serve
    # library users, private ones only the package itself.
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in sorted(SRC.glob("*.py"))
    }
    uses = [
        node
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    ]
    orphans = []
    checked = 0
    for name, tree in trees.items():
        for fn in _private_defs(tree):
            checked += 1
            inside = {id(node) for node in ast.walk(fn)}
            if not any(
                id(node) not in inside
                and fn.name == (node.id if isinstance(node, ast.Name) else node.attr)
                for node in uses
            ):
                orphans.append("%s:%d %s" % (name, fn.lineno, fn.name))
    assert checked >= 20
    assert orphans == []


def test_no_unused_imports_in_the_package():
    # A module-level import nothing reads is dead weight; __init__.py is
    # skipped because its imports are the package's re-exports.
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in read:
                        unused.append("%s:%d %s" % (path.name, node.lineno, name))
    assert unused == []


def test_no_numpy_in_the_package():
    # Ingest, the engines and the oracle all read plain lists: on the small
    # inputs most calls see, numpy's fixed cost per call dominates, and its
    # import was most of the package's import time.
    importers = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "numpy" for name in names):
                importers.append(path.name)
    assert importers == []
    code = "import sys, swapstable.cli, swapstable.oracle; print('numpy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def test_no_indented_json_dumps_in_the_package():
    # json.dumps with indent runs the standard library's pure-Python
    # encoder; reports go through cli._emit's encoder, the one path that
    # writes indented JSON.
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            "%s:%d" % (path.name, node.lineno)
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("dumps", "dump")
            and any(k.arg == "indent" for k in node.keywords)
        ]
    assert found == []
