"""Invariant checks stay on under ``python -O``, and the package holds no
public name that only the tests reach."""

import ast
import importlib.util
import os
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _referenced_names(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Every identifier ``tree`` mentions outside the subtree ``skip``: names,
    attributes, imported names, and the dotted parts of string constants
    (``bench/tracing.py`` names its targets as strings).  An attribute of a
    name bound by ``import`` (``itertools.product``) belongs to that other
    module, so it is not counted."""
    modules = {alias.asname or alias.name.split(".", 1)[0]
               for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names}
    found = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            if not (isinstance(node.value, ast.Name) and node.value.id in modules):
                found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.update(node.value.split("."))
        stack.extend(ast.iter_child_nodes(node))
    return found


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
               and d.func.id == "dataclass"
               for d in node.decorator_list)


def _public_definitions(tree: ast.Module):
    """(qualified name, name, node) for every public module-level def or
    class, every public method or property of a module-level class, and
    every public annotated field of a module-level dataclass."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef):
                    name = member.name
                elif (_is_dataclass(node) and isinstance(member, ast.AnnAssign)
                      and isinstance(member.target, ast.Name)):
                    name = member.target.id
                else:
                    continue
                if not name.startswith("_"):
                    yield f"{node.name}.{name}", name, member


def test_every_public_definition_has_a_caller():
    # A public module-level def or class, a public method or property of a
    # class, and a public field of a dataclass must be named somewhere in
    # the package outside its own definition, or in the demos or the
    # benchmark.  A keyword argument that only sets a field does not count.
    modules = {path: ast.parse(path.read_text())
               for path in sorted((SRC / "dcrlab").glob("*.py"))}
    outside = set()
    for folder in ("demos", "bench"):
        for path in sorted((ROOT / folder).glob("*.py")):
            outside |= _referenced_names(ast.parse(path.read_text()))
    names = {path: _referenced_names(tree) for path, tree in modules.items()}
    unused = []
    for path, tree in modules.items():
        elsewhere = outside.union(*(found for other, found in names.items() if other != path))
        for qualname, name, node in _public_definitions(tree):
            if name not in elsewhere and name not in _referenced_names(tree, skip=node):
                unused.append(f"{path.stem}.{qualname}")
    assert unused == []


def test_package_has_no_assert_statements():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted((SRC / "dcrlab").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_joint_route_check_raises_under_optimize():
    # Swap the two keys' Col laws before they reach the joint sum, so the
    # joint route disagrees with the per-key route; the check must fire even
    # with assert statements stripped.
    script = textwrap.dedent("""
        import sys

        from dcrlab import hashfam

        if not sys.flags.optimize:
            sys.exit("not running under -O")
        joint = hashfam._joint_distance
        hashfam._joint_distance = lambda laws: joint(
            [(laws[0][0], laws[1][1]), (laws[1][0], laws[0][1])])
        fam = hashfam.uniform_random_family(3, 2, num_keys=2, seed=1)
        hashfam.dcrh_distance(fam, hashfam.ColAdversary())
    """)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run([sys.executable, "-O", "-c", script],
                            capture_output=True, text=True, env=env)
    assert result.returncode == 1
    assert "AssertionError: joint and per-key game values disagree" in result.stderr


def test_bench_trace_targets_resolve():
    # bench/tracing.py names the functions it wraps as strings and reads
    # col_distribution's cache counters; a rename in the package would
    # otherwise break ``bench/run.py --trace 1`` without any test failing.
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module_name, path, _ in tracing.TARGETS:
        module = importlib.import_module(f"dcrlab.{module_name}")
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        assert callable(vars(owner).get(attr)), (module_name, path)
    hashfam = importlib.import_module("dcrlab.hashfam")
    assert callable(hashfam.col_distribution.cache_info)
