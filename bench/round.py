"""One round of a workload, in a fresh process with cold caches.

    python3 bench/round.py --workload NAME --seed N --mode setup|run|trace
                           [--inject-fault] [--spans PATH]

``setup`` imports dcrlab and builds the inputs, then stops.  ``run`` also
times every operation and checks its result.  ``trace`` does the same with
the layer wrappers of tracing.py installed and writes the spans to PATH.
Times are corrected for the host's CPU contention by clock.py; the round's
wall time is reported as ``run_wall_s`` too.
In ``trace`` rounds the layer times are scaled by the round's correction
too; they include the probe's own time, about 1.5% of each span.
Prints one JSON object.  bench/run.py starts these processes; running one
by hand is useful when debugging a single workload.
"""

import argparse
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

from clock import Sampler
from common import machine, use_checkout_source


def main() -> int:
    parser = argparse.ArgumentParser(description="one round of a benchmark workload")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--inject-fault", action="store_true")
    parser.add_argument("--spans")
    args = parser.parse_args()

    sampler = Sampler()
    sampler.start()
    start = perf_counter()
    use_checkout_source()
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    ops = workload.build(args.seed % 2**32)
    out = {"setup_s": sampler.span(start, perf_counter())[1], "machine": machine()}
    if args.mode == "setup":
        sampler.stop()
        print(json.dumps(out))
        return 0

    tracer = None
    if args.mode == "trace":
        import tracing

        tracer = tracing.Tracer()
        tracer.install()

    fault_pending = args.inject_fault
    spans = []  # (began, ended) of each operation
    grouped = []  # (hash-family kind, index into spans) of each success
    failures = []
    mismatched = 0
    for op in ops:
        call = op.run if tracer is None else tracer.wrap_op(op.label, op.run)
        began = perf_counter()
        try:
            result = call()
        except Exception as exc:  # the operation failed; record it and go on
            spans.append((began, perf_counter()))
            failures.append(f"{op.label}: {type(exc).__name__}: {exc}")
            continue
        spans.append((began, perf_counter()))
        if op.group is not None:
            grouped.append((op.group, len(spans) - 1))
        if fault_pending and op.label.startswith(workload.fault_prefix):
            result = workload.perturb(result)
            fault_pending = False
        problems = op.check(result)
        if problems:
            mismatched += 1
            failures.append(f"{op.label}: {'; '.join(problems)}")

    sampler.stop()
    timed = [sampler.span(*span) for span in spans]
    op_s = [corrected for _, corrected in timed]
    group_s: dict[str, float] = {}
    for group, index in grouped:
        group_s[group] = group_s.get(group, 0.0) + op_s[index]
    run_wall_s = sum(wall for wall, _ in timed)
    out.update({
        "run_s": sum(op_s),
        "run_wall_s": run_wall_s,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "attempted": len(ops),
        "failed": len(failures),
        "mismatched": mismatched,
        "failures": failures[:5],
        "group_s": group_s,
        "op_s": op_s,
    })
    if tracer is not None:
        scale = out["run_s"] / run_wall_s
        out["layers"] = {name: value if isinstance(value, int) else value * scale
                         for name, value in tracer.layer_metrics().items()}
        if args.spans:
            tracer.write_spans(Path(args.spans))
    print(json.dumps(out))
    return 0



if __name__ == "__main__":
    sys.exit(main())
