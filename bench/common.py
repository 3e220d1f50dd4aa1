"""Paths and process settings shared by the benchmark's scripts."""

import os
import platform
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

# Every numeric library the program may load runs on one thread.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def pin_threads(env: dict) -> dict:
    for var in THREAD_VARS:
        env[var] = "1"
    # Fixed string hashing, so set and dict orders (and trace counts) repeat.
    env["PYTHONHASHSEED"] = "0"
    return env


def use_checkout_source() -> None:
    """Import dcrlab from this checkout's src/ and from nowhere else.

    Exits with status 2 when the sources are missing or another copy of
    the package would be imported instead.
    """
    if not (SRC / "dcrlab" / "__init__.py").is_file():
        sys.exit(f"bench: no dcrlab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import dcrlab

    if Path(dcrlab.__file__).resolve().parent != SRC / "dcrlab":
        sys.exit(f"bench: imported dcrlab from {dcrlab.__file__}, not from {SRC}")


def machine() -> dict:
    import numpy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform()}
