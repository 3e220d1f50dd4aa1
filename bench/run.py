"""dcrlab benchmark: time to a verified result, end to end and per layer.

    python3 bench/run.py --workload gap-grid|commit-protocol|float-laws
                         --seed N --seconds S --trace 0|1 [--inject-fault]

Run from the root of a checkout.  Every round of the workload runs in a
fresh Python process (cold lru_caches, as for each CLI invocation), one
thread, with its inputs built from --seed.  Rounds repeat while the next
one is expected to end within S seconds; every round runs the same
operations, and there is always at least one.

--trace 0 prints the end-to-end metrics: setup_s and run_s (medians over
rounds), max_op_s (the longest operation, each timed as its median over
rounds) and peak_rss_mib (largest over the round processes).  Times are
corrected for the host's CPU contention (see clock.py).  --trace 1 pairs
each untraced round with a traced one and prints the per-layer metrics
and trace.overhead_s; spans go to .bench_out/.  --inject-fault falsifies
one result per round to show that the checks catch it.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The exit status is 0 when every
check passed, 1 when a check failed, 2 when the sources or the arguments
are wrong.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from common import BENCH_DIR, OUT_DIR, SRC, pin_threads

# The keys of workloads.WORKLOADS and the kinds of hashfam.builtin_families;
# this process does not import dcrlab, so it names them here.
WORKLOADS = ("gap-grid", "commit-protocol", "float-laws")
FAMILY_KINDS = ("identity", "constant", "affine", "uniform_random", "degree2")
SETUP_REPEATS = 3  # set-up-only processes per run, after one warm-up
CHILD_TIMEOUT_S = 170


class RoundError(RuntimeError):
    """A round process exited with an error."""


def run_round(workload: str, seed: int, mode: str, inject_fault: bool = False,
              spans=None) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "round.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode]
    if inject_fault:
        cmd.append("--inject-fault")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                          env=pin_threads(dict(os.environ)))
    if proc.returncode != 0:
        raise RoundError(f"{mode} round exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_traced(args, index: int) -> dict:
    spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}-{index}.json"
    return run_round(args.workload, args.seed, "trace", args.inject_fault, spans)


def main() -> int:
    parser = argparse.ArgumentParser(description="dcrlab benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject-fault", action="store_true")
    args = parser.parse_args()
    if not (SRC / "dcrlab" / "__init__.py").is_file():
        print(f"bench: no dcrlab sources under {SRC}", file=sys.stderr)
        return 2

    try:
        # The first process compiles bytecode; its set-up time is dropped.
        setups = [run_round(args.workload, args.seed, "setup")
                  for _ in range(SETUP_REPEATS + 1)][1:]
        plain, traced = [], []
        began = time.perf_counter()
        while True:
            modes = ["run", "trace"] if args.trace else ["run"]
            if len(plain) % 2:
                # Pairs alternate their order, so a steady drift in machine
                # speed cancels out of trace.overhead_s.
                modes.reverse()
            for mode in modes:
                if mode == "run":
                    plain.append(run_round(args.workload, args.seed, "run", args.inject_fault))
                else:
                    traced.append(run_traced(args, len(traced)))
            # Start another round only if it is expected to end in the window.
            elapsed = time.perf_counter() - began
            if elapsed + elapsed / len(plain) > args.seconds:
                break
    except (RoundError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    rounds = plain + traced
    failures = [msg for r in rounds for msg in r["failures"]]
    mismatched = sum(r["mismatched"] for r in rounds)
    print("machine: " + json.dumps(setups[0]["machine"]))
    print(f"rounds: {len(plain)} untraced, {len(traced)} traced; "
          f"run_s per round {[round(r['run_s'], 3) for r in plain]}, "
          f"wall {[round(r['run_wall_s'], 3) for r in plain]}")
    for msg in failures[:5]:
        print(f"failed: {msg}")

    def median(key, group=plain):
        return statistics.median(r[key] for r in group)

    if args.trace:
        counts = [{k: v for k, v in r["layers"].items() if isinstance(v, int)} for r in traced]
        print(f"trace counts identical over {len(traced)} traced rounds: "
              f"{all(c == counts[0] for c in counts)}")
        metrics = {name: {"value": v, "unit": "count" if isinstance(v, int) else "s"}
                   for name, v in _layer_metrics(traced).items()}
        for kind in FAMILY_KINDS:
            value = statistics.median(r["group_s"].get(kind, 0.0) for r in plain)
            metrics[f"cell.{kind}.s"] = {"value": value, "unit": "s"}
        overhead = median("run_s", traced) - median("run_s")
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        # Each operation's time is its median over the rounds; a single slow
        # moment of the machine then does not set max_op_s.
        op_medians = [statistics.median(t) for t in zip(*(r["op_s"] for r in plain))]
        setup_s = statistics.median(r["setup_s"] for r in setups + plain)
        peak_kib = max(r["peak_rss_kib"] for r in plain)
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "run_s": {"value": median("run_s"), "unit": "s"},
            "max_op_s": {"value": max(op_medians), "unit": "s"},
            "peak_rss_mib": {"value": peak_kib / 1024, "unit": "MiB"},
        }
    print(json.dumps({
        "correct": mismatched == 0,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }))
    return 0 if mismatched == 0 else 1


def _layer_metrics(traced: list) -> dict:
    """Counts from the first traced round (they repeat exactly); times are
    medians over the traced rounds."""
    first = traced[0]["layers"]
    return {name: value if isinstance(value, int)
            else statistics.median(r["layers"][name] for r in traced)
            for name, value in first.items()}


if __name__ == "__main__":
    sys.exit(main())
