"""Rules that every module of the package's source keeps."""

import ast
import pathlib

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


_RANK_MATRICES = {"rank_u", "rank_w"}


def _rank_aliases(fn):
    """Names in fn bound to a rank matrix: parameters called rank_u/rank_w
    and assignments from a .rank_u/.rank_w attribute, tuples included."""
    names = {a.arg for a in fn.args.args if a.arg in _RANK_MATRICES}
    for node in ast.walk(fn):
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            pairs = [(target, node.value)]
            if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                pairs = zip(target.elts, node.value.elts)
            for name, value in pairs:
                if (
                    isinstance(name, ast.Name)
                    and isinstance(value, ast.Attribute)
                    and value.attr in _RANK_MATRICES
                ):
                    names.add(name.id)
    return names


def _is_scalar_read(node, aliases):
    """Is node a subscript m[a, b] with two plain indices of a rank matrix?"""
    if not (isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Tuple)):
        return False
    index = node.slice.elts
    if len(index) != 2 or any(isinstance(e, ast.Slice) for e in index):
        return False
    base = node.value
    if isinstance(base, ast.Attribute):
        return base.attr in _RANK_MATRICES
    return isinstance(base, ast.Name) and base.id in aliases


def test_no_scalar_reads_of_rank_matrices():
    # A numpy scalar read costs about four list reads.  Loops that read one
    # rank at a time use Profile.rank_u_rows/rank_w_rows; the matrices feed
    # the vector kernels only.
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "_kernels.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            aliases = _rank_aliases(fn)
            found += [
                "%s:%d" % (path.name, node.lineno)
                for node in ast.walk(fn)
                if _is_scalar_read(node, aliases)
            ]
    assert found == []


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
