"""Rules that every module of the package's source keeps."""

import ast
import importlib
import os
import pathlib
import subprocess
import sys
import types

import pytest

import swapstable

SRC = pathlib.Path(swapstable.__file__).parent


def _child(code):
    """stdout of a fresh interpreter that runs code with the package on its path."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.strip()


def _importers(module):
    """Package files that import module or one of its submodules."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == module for name in names):
                found.append(path.name)
    return found


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
    """Module-level _name functions and _name methods of module-level
    classes; dunders, which the interpreter calls (a method's __eq__, a
    module's __getattr__), are not private."""
    for node in tree.body:
        body = node.body if isinstance(node, ast.ClassDef) else [node]
        yield from (
            item
            for item in body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            and item.name.startswith("_")
            and not item.name.endswith("__")
        )


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
    assert _importers("numpy") == []
    code = "import sys, swapstable.cli, swapstable.oracle; print('numpy' in sys.modules)"
    assert _child(code) == "False"


def test_no_dataclasses_in_the_package():
    # Importing dataclasses loads inspect, ast, dis and tokenize, several
    # milliseconds and about 1 MB in every process, and each generated
    # class costs more; the records subclass profile._Record or NamedTuple.
    assert _importers("dataclasses") == []


# Self-calls the rule allows, each with the bound on its depth.
RECURSION_ALLOWED = {
    "cli._encode": "depth is bounded by the report's shape",
    "oracle.extend": "depth is at most MATCHING_CAP + 1",
}


def test_no_function_calls_itself():
    # One frame per element would make the input size meet the
    # interpreter's recursion limit; walks keep an explicit stack instead.
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if not isinstance(node, ast.Call):
                    continue
                f = node.func
                if (isinstance(f, ast.Name) and f.id == fn.name) or (
                    isinstance(f, ast.Attribute)
                    and f.attr == fn.name
                    and isinstance(f.value, ast.Name)
                    and f.value.id in ("self", "cls")
                ):
                    found.append("%s.%s" % (path.stem, fn.name))
                    break
    assert sorted(found) == sorted(RECURSION_ALLOWED)


def test_no_parameter_defaults_to_a_cap():
    # A default is bound when the function is defined, so a cap patched
    # on its module later would not reach the call; caps are read inside
    # the body instead.
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            defaults = fn.args.defaults + [d for d in fn.args.kw_defaults if d is not None]
            found += [
                "%s:%d %s" % (path.name, node.lineno, node.id)
                for default in defaults
                for node in ast.walk(default)
                if isinstance(node, ast.Name) and node.id.endswith("_CAP")
            ]
    assert found == []


def test_importing_the_package_runs_no_submodule():
    # Exported names resolve on first use, so `import swapstable` loads
    # nothing of the package, the brute-force oracle (the CLI's referee)
    # included, and a name loads only its defining module's imports.
    loaded = "print(sorted(m for m in sys.modules if m.startswith('swapstable.')))"
    code = "import sys, swapstable; %s; swapstable.gen_random; %s" % (loaded, loaded)
    first, then = map(ast.literal_eval, _child(code).splitlines())
    assert first == []
    assert then == [
        "swapstable._kernels", "swapstable.errors", "swapstable.generators", "swapstable.profile"
    ]


def test_check_stable_loads_no_engine(tmp_path):
    # Each CLI command imports the engines it runs: a stability check
    # needs the parser and the blocking scan, and none of the modules a
    # process would otherwise compile for the other commands.
    from swapstable import gen_example3, serialize_profile

    (tmp_path / "p.txt").write_text(serialize_profile(gen_example3()), encoding="utf-8")
    (tmp_path / "m.txt").write_text("", encoding="utf-8")
    argv = ["check", "stable", "--profile", str(tmp_path / "p.txt"),
            "--matching", str(tmp_path / "m.txt")]
    code = (
        "import contextlib, io, sys\n"
        "from swapstable import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    rc = cli.main(%r)\n"
        "print(rc, *sys.modules)" % argv
    )
    rc, *modules = _child(code).split()
    assert rc == "1"  # the empty matching leaves mutually acceptable agents single
    unloaded = {"oracle", "nearstable", "robustness", "rotations", "_flow", "generators"}
    modules = set(modules)
    assert {"swapstable." + name for name in unloaded} & modules == set()
    assert {"dataclasses", "inspect"} & modules == set()


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


def test_profiles_are_derived_in_one_place():
    # A profile made from another goes through profile._derive, which
    # passes the input's rank rows on; a Profile(...) or
    # dataclasses.replace elsewhere would build both tables again.  The
    # oracle builds its ball members itself, so it stays independent of
    # the engines it checks.
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name in ("profile.py", "oracle.py"):
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                if (isinstance(f, ast.Name) and f.id == "Profile") or (
                    isinstance(f, ast.Attribute)
                    and (
                        f.attr == "Profile"
                        or (
                            f.attr == "replace"
                            and isinstance(f.value, ast.Name)
                            and f.value.id == "dataclasses"
                        )
                    )
                ):
                    found.append("%s:%d" % (path.name, node.lineno))
            elif isinstance(node, ast.ImportFrom) and node.module == "dataclasses":
                found += [
                    "%s:%d import replace" % (path.name, node.lineno)
                    for alias in node.names
                    if alias.name == "replace"
                ]
    assert found == []


def test_flow_networks_are_built_in_one_place():
    # Both min-cut engines, the optimal robust solvers' rotation closure
    # and the stabilization cut, are minimum-weight closures: one builder
    # makes the network for both, so a second FlowNetwork(...) would be a
    # second network model to keep in step with it.
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        stack = [(tree, "<module>")]
        while stack:
            node, where = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                where = node.name
            elif isinstance(node, ast.Call) and "FlowNetwork" in (
                getattr(node.func, "id", None),
                getattr(node.func, "attr", None),
            ):
                found.append("%s:%s" % (path.name, where))
            stack += [(child, where) for child in ast.iter_child_nodes(node)]
    assert found == ["_flow.py:_closure_cut"]


def test_no_seeded_draw_goes_through_a_random_helper():
    # A seeded profile must not depend on how the standard library spells
    # a helper: every draw is spelled out in the package from random() and
    # getrandbits (generators._shuffle is random.Random.shuffle's loop).
    # The rule bans these method names on any receiver, on purpose: a
    # Random reached through an alias or a bound method would slip past a
    # receiver check, and no package code needs the names for anything else.
    helpers = {"shuffle", "sample", "choice", "choices", "randrange", "randint"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                names = [node.func.attr]
            elif isinstance(node, ast.ImportFrom) and node.module == "random":
                names = [alias.name for alias in node.names]
            else:
                continue
            found += ["%s:%d %s" % (path.name, node.lineno, n) for n in names if n in helpers]
    assert found == []


def test_cli_reaches_the_engines_through_public_names():
    # The benchmark's tracer wraps the engines' public functions, so a CLI
    # call into a private core hides that engine's time under cli.main:
    # the near-stability spans read 0 calls while the CLI called private
    # twins of the three checkers.
    engines = {"nearstable", "robustness", "rotations", "classic", "oracle"}
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    found = [
        "%s:%d %s" % (node.module, node.lineno, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "") in engines
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert found == []


EXPORTS = """
    Agent Error INFINITE InvalidInput InvalidMatching Matching NearStabilityReport
    NoSuccessorDefined NonAdjacentSwap NotClosed NotNearlyStable Objective PartitionResult
    Profile Rotation RotationDigraph Side SwapOp TooLarge UnknownAgent ValidationError
    apply_swap backend blocking_indices blocking_pairs closed_subsets egalitarian_cost
    egalitarian_deltas eliminate enumerate_stable_matchings example2_rotated_matching
    example2_stable_matching exposed_rotations find_d_robust find_d_robust_optimal
    gen_cyclic_latin gen_example1_fixture gen_example2 gen_example3 gen_random
    global_stabilization_cost is_d_robust is_locally_d_nearly_stable is_perfect is_stable
    local_instability matched_partition matching_of max_robustness min_weight_closure
    near_stability_report parse_matching parse_profile rank repair_after_swap
    rotation_digraph serialize_matching serialize_profile solve_global_near
    solve_local_near stable_pairs successor swap_distance swap_distance_per_agent
    tradeoff_curve u_optimal validate_matching validate_profile w_optimal
    witness_profile_local
""".split()


def test_every_export_resolves_to_its_defining_module():
    assert len(EXPORTS) == 70
    assert sorted(swapstable.__all__) == sorted(EXPORTS)
    listed = dir(swapstable)
    for name in swapstable.__all__:
        home = importlib.import_module("swapstable." + swapstable._MODULE_OF[name])
        value = getattr(swapstable, name)
        assert value is getattr(home, name)
        assert name in listed
        if isinstance(value, (type, types.FunctionType)):
            assert value.__module__ == home.__name__, name
    with pytest.raises(AttributeError, match="no attribute 'oracle_of'"):
        swapstable.oracle_of
