"""Batch experiment runner: seeded sweeps in, deterministic CSV out.

Subcommands
-----------
entropy        distribution-toolkit identity battery
dcrh-game      collision-game values for stock families and adversaries
gap-sweep      distance-vs-gap reports across the generator/family grid
commit-reduce  two-message commitment reduction rates per sampled key
szk-protocol   completeness / hiding / binding measurements
verify-all     the entire verification battery; nonzero exit on failure

Configuration precedence: command-line flags, then a flat key=value
config file (--config), then the DCRLAB_OUT environment variable for the
output directory, then built-in defaults.  A config key must name a value
option of some subcommand.  One seed fixes every random choice, so
identical invocations write byte-identical files.

Every subcommand but dcrh-game runs criteria of the verification battery
(``dcrlab.acceptance``) and hands their results to ``emit``, so each
report has one producer and ``verify-all`` writes the same bytes.
"""

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from dcrlab.hashfam import EnumerationCap

OUTPUT_ENV_VAR = "DCRLAB_OUT"


def parse_range(text: str) -> range:
    """'3..8' -> range(3, 9); '5' -> range(5, 6); '8..3' is an error."""
    if ".." in text:
        lo, hi = text.split("..", 1)
        out = range(int(lo), int(hi) + 1)
        if not out:
            raise ValueError(f"empty range {text!r}")
        return out
    value = int(text)
    return range(value, value + 1)


def load_config(path: str) -> dict[str, str]:
    out = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def write_lines(path: Path, lines: list[str]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")


def emit(results, outdir: Path) -> int:
    """Print each criterion's line and write the rows of each one that has
    rows and an artifact; exit code 0 iff every criterion passed."""
    for res in results:
        print(res.line())
        if res.rows and res.artifact:
            path = outdir / res.artifact
            write_lines(path, [res.header, *res.rows])
            print(f"wrote {path} ({len(res.rows)} rows)")
    return 0 if all(res.passed for res in results) else 1


def _resolve(args, config: dict, key: str, default, cast=str):
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    if key in config:
        return cast(config[key])
    return default


def _outdir(args, config) -> Path:
    flag = getattr(args, "out", None)
    if flag is not None:
        return Path(flag)
    if "out" in config:
        return Path(config["out"])
    env = os.environ.get(OUTPUT_ENV_VAR)
    if env:
        return Path(env)
    return Path("reports")


# ------------------------------------------------------------------ subcommands

def cmd_entropy(args, config) -> int:
    from dcrlab.acceptance import criterion_probkit_identities

    seed = _resolve(args, config, "seed", 0, int)
    trials = _resolve(args, config, "trials", 10_000, int)
    return emit([criterion_probkit_identities(seed, trials=trials)], _outdir(args, config))


def cmd_dcrh_game(args, config) -> int:
    from dcrlab.entropy_gap import RewindingAdversary, consistent_suite
    from dcrlab.hashfam import ColAdversary, DiagonalAdversary, builtin_families, dcrh_distance
    from dcrlab.reporting import csv_line

    seed = _resolve(args, config, "seed", 0, int)
    ns = parse_range(_resolve(args, config, "n", "2..4"))
    mode = _resolve(args, config, "mode", "exact")
    samples = _resolve(args, config, "samples", 10_000, int)
    num_keys = _resolve(args, config, "num_keys", 4, int)
    rows = []
    failures = 0
    for n in ns:
        rng = np.random.default_rng(seed + n)
        for fam in builtin_families(n, num_keys=num_keys, seed=seed + n):
            adversaries = [ColAdversary(), DiagonalAdversary()]
            adversaries += [RewindingAdversary(gt, fam) for gt in consistent_suite(fam)]
            for adv in adversaries:
                try:
                    rep = dcrh_distance(fam, adv, mode=mode,
                                        samples=samples if mode == "monte-carlo" else 0,
                                        rng=rng if mode == "monte-carlo" else None)
                except AssertionError as exc:
                    failures += 1
                    print(f"bound violation: {exc}", file=sys.stderr)
                    continue
                rows.append(csv_line([fam.name, n, adv.name, rep.mode, rep.samples,
                                      rep.distance, rep.ci_half_width]))
    out = _outdir(args, config) / "dcrh_game.csv"
    write_lines(out, ["family,n,adversary,mode,samples,distance,ci_half_width", *sorted(rows)])
    print(f"wrote {out} ({len(rows)} rows)")
    return 0 if failures == 0 else 1


def cmd_gap_sweep(args, config) -> int:
    from dcrlab.acceptance import criterion_gap_sweep

    seed = _resolve(args, config, "seed", 0, int)
    ns = parse_range(_resolve(args, config, "n", "2..6"))
    num_keys = _resolve(args, config, "num_keys", 4, int)
    return emit([criterion_gap_sweep(seed, ns=ns, num_keys=num_keys)], _outdir(args, config))


def cmd_commit_reduce(args, config) -> int:
    from dcrlab.acceptance import criterion_commit_reduction

    seed = _resolve(args, config, "seed", 0, int)
    k = _resolve(args, config, "k", 6, int)
    m = _resolve(args, config, "m", 3, int)
    num_seeds = _resolve(args, config, "num_seeds", 100, int)
    return emit([criterion_commit_reduction(seed, num_seeds=num_seeds, k=k, m=m)],
                _outdir(args, config))


def cmd_szk_protocol(args, config) -> int:
    from dcrlab.acceptance import (
        criterion_binding_reduction,
        criterion_hiding_analysis,
        criterion_protocol_completeness,
    )

    seed = _resolve(args, config, "seed", 0, int)
    return emit([criterion_protocol_completeness(seed),
                 criterion_binding_reduction(seed),
                 criterion_hiding_analysis(seed)], _outdir(args, config))


def cmd_verify_all(args, config) -> int:
    from dcrlab.acceptance import run_all

    seed = _resolve(args, config, "seed", 0, int)
    fast = bool(getattr(args, "fast", False))
    inject = bool(getattr(args, "inject_fault", False))
    outdir = _outdir(args, config)
    results = run_all(seed=seed, inject_fault=inject, fast=fast)
    code = emit(results, outdir)
    report = outdir / "verify_report.txt"
    write_lines(report, [res.line() for res in results])
    print(f"wrote {report}")
    return code


# ------------------------------------------------------------------ entry point

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dcrlab",
        description="exact collision-game, entropy-gap, and commitment experiments")
    parser.add_argument("--config", help="flat key=value config file")
    sub = parser.add_subparsers(dest="command")

    def common(p):
        p.add_argument("--seed", type=int, default=None, help="master seed")
        p.add_argument("--out", default=None, help=f"output directory (default ${OUTPUT_ENV_VAR} or ./reports)")

    p = sub.add_parser("entropy", help="distribution identity battery")
    common(p)
    p.add_argument("--trials", type=int, default=None)

    p = sub.add_parser("dcrh-game", help="collision-game distances")
    common(p)
    p.add_argument("--n", default=None, help="input length or range, e.g. 3..6")
    p.add_argument("--num-keys", dest="num_keys", type=int, default=None)
    p.add_argument("--mode", choices=["exact", "monte-carlo"], default=None)
    p.add_argument("--samples", type=int, default=None)

    p = sub.add_parser("gap-sweep", help="distance-vs-gap grid")
    common(p)
    p.add_argument("--n", default=None, help="range, e.g. 3..8")
    p.add_argument("--num-keys", dest="num_keys", type=int, default=None)

    p = sub.add_parser("commit-reduce", help="commitment-to-collision rates")
    common(p)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--num-seeds", dest="num_seeds", type=int, default=None)

    p = sub.add_parser("szk-protocol", help="protocol completeness/hiding/binding")
    common(p)

    p = sub.add_parser("verify-all", help="full verification battery")
    common(p)
    p.add_argument("--fast", action="store_true", help="reduced grid for smoke runs")
    p.add_argument("--inject-fault", dest="inject_fault", action="store_true",
                   help="negative control: force a broken generator through")
    return parser


def config_keys(parser: argparse.ArgumentParser) -> set[str]:
    """The keys a config file may set: every subcommand's value options."""
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {a.dest for p in sub.choices.values() for a in p._actions
            if a.option_strings and a.nargs != 0}


HANDLERS = {
    "entropy": cmd_entropy,
    "dcrh-game": cmd_dcrh_game,
    "gap-sweep": cmd_gap_sweep,
    "commit-reduce": cmd_commit_reduce,
    "szk-protocol": cmd_szk_protocol,
    "verify-all": cmd_verify_all,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    config = {}
    if args.config:
        try:
            config = load_config(args.config)
        except (OSError, ValueError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        unknown = sorted(config.keys() - config_keys(parser))
        if unknown:
            print(f"config error: {args.config}: unknown key(s) "
                  f"{', '.join(map(repr, unknown))}", file=sys.stderr)
            return 2
    try:
        return HANDLERS[args.command](args, config)
    except (ValueError, KeyError, EnumerationCap) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
