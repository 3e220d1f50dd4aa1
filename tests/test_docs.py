"""The README stays in step with the package it describes."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _memoized_functions() -> list[str]:
    """Every function in ``src/dcrlab`` decorated with ``functools.lru_cache``
    or ``functools.cache``, called or bare, imported by name or through the
    module."""
    names = []
    for path in sorted((ROOT / "src" / "dcrlab").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for deco in node.decorator_list:
                target = deco.func if isinstance(deco, ast.Call) else deco
                name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
                if name in ("lru_cache", "cache"):
                    names.append(node.name)
    return names


def test_readme_names_every_memoized_function():
    names = _memoized_functions()
    assert "col_distribution" in names
    readme = (ROOT / "README.md").read_text()
    missing = [name for name in names if name not in readme]
    assert not missing, f"README does not name the process-wide caches {missing}"
