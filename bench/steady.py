"""Steadiness of the end-to-end metrics over repeated runs.

    python3 bench/steady.py --workload NAME [--runs 10] [--first-seed 1]

Runs bench/run.py with --trace 0 and the run length of BENCHMARK.json,
once per seed (first-seed, first-seed + 1, ...), one run after another,
and prints each metric's values, median, quartiles and
quartile spread as a share of the median, next to the bound that
BENCHMARK.json gives it.  Quartiles are statistics.quantiles(values, n=4).
The last line repeats the figures as one JSON object.
"""

import argparse
import json
import statistics
import subprocess
import sys

from common import BENCH_DIR, ROOT


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values: dict[str, list] = {}
    shares = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            print(f"seed {seed}: run.py exited {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        shares.append(f"{result['failed']}/{result['attempted']}")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{name} {metric['value']:.4g}" for name, metric in result["metrics"].items()),
            flush=True)

    summary = {}
    print(f"\n{args.workload}, {args.runs} runs of {seconds} s, seeds "
          f"{args.first_seed}..{args.first_seed + args.runs - 1}")
    print(f"{'metric':<28}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>8}")
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        bound = bounds[name]
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bound}
        print(f"{name:<28}{med:>12.5g}{q1:>12.5g}{q3:>12.5g}{spread:>9.3f}"
              f"{bound:>8}")
    failed_shares = sorted(set(shares))
    print(f"failed/attempted per run: {failed_shares}")
    print(json.dumps({"workload": args.workload, "runs": args.runs, "seconds": seconds,
                      "failed_shares": failed_shares, "metrics": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
