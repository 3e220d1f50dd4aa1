"""Every narrated demo runs to completion against the current package."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# sha256 of a demo's stdout, for demos whose every printed number is exact
# or drawn from a fixed seed: 02's fibers, Col support size, seeded Col
# samples and game values, and 05's honest transcript, hiding ledger and
# binding numbers.
STDOUT_SHA256 = {
    "02_collision_game.py": "7fce7a5310e3fb36d7ee7df0de7f3165d4428ade2a1074d9a5264e5870118b8a",
    "05_protocol.py": "8b31ba3e2618bf78b20d0dbb11f01e720d87d1456c34c4cadece9e116afaffe8",
}


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_zero(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, str(demo)], cwd=ROOT,
                            capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    if demo.name in STDOUT_SHA256:
        assert hashlib.sha256(result.stdout.encode()).hexdigest() == STDOUT_SHA256[demo.name]
