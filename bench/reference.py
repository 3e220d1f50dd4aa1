"""Reference figure: one `dcrlab verify-all` run, with each criterion's time.

    python3 bench/reference.py [--seed 7]

Runs the CLI entry point in this process, with numeric libraries held to
one thread, and prints one JSON object: the wall time of the whole command
and the elapsed time the battery records for each criterion.  Reports go
to .bench_out/reference/.  One run takes a few minutes.
"""

import argparse
import json
import os
import sys
import time

from common import OUT_DIR, machine, pin_threads, use_checkout_source


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    pin_threads(os.environ)
    use_checkout_source()
    from dcrlab import acceptance, cli

    captured = []
    run_all = acceptance.run_all

    def recording_run_all(*a, **kw):
        results = run_all(*a, **kw)
        captured.extend(results)
        return results

    acceptance.run_all = recording_run_all
    start = time.perf_counter()
    status = cli.main(["verify-all", "--seed", str(args.seed),
                       "--out", str(OUT_DIR / "reference")])
    wall = time.perf_counter() - start
    print(json.dumps({
        "command": f"dcrlab verify-all --seed {args.seed}",
        "exit_status": status,
        "wall_s": round(wall, 2),
        "criteria_s": {f"c{r.number}": round(r.elapsed, 2) for r in captured},
        "machine": machine(),
    }))
    return 0 if status == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
