"""Invariant checks stay on under ``python -O``."""

import ast
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_package_has_no_assert_statements():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted((SRC / "dcrlab").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_joint_route_check_raises_under_optimize():
    # Swap the key tags of the Col laws so the joint route disagrees with the
    # per-key route; the check must fire even with assert statements stripped.
    script = textwrap.dedent("""
        import itertools
        import sys

        from dcrlab import hashfam

        if not sys.flags.optimize:
            sys.exit("not running under -O")
        tag = hashfam._tag
        calls = itertools.count()
        hashfam._tag = lambda d, idx: tag(d, idx if next(calls) < 2 else 1 - idx)
        fam = hashfam.uniform_random_family(3, 2, num_keys=2, seed=1)
        hashfam.dcrh_distance(fam, hashfam.ColAdversary())
    """)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run([sys.executable, "-O", "-c", script],
                            capture_output=True, text=True, env=env)
    assert result.returncode == 1
    assert "AssertionError: joint and per-key game values disagree" in result.stderr
