"""Batch experiment runner: seeded sweeps in, deterministic CSV out.

Subcommands
-----------
entropy        distribution-toolkit identity battery
dcrh-game      collision-game values for stock families and adversaries
gap-sweep      distance-vs-gap reports across the generator/family grid
commit-reduce  two-message commitment reduction rates per sampled key
szk-protocol   completeness / hiding / binding measurements
verify-all     the entire verification battery; nonzero exit on failure

Each setting is declared once, in ``build_parser``, with its default;
``dcrlab <cmd> --help`` prints them.  Precedence: command-line flags, then
a flat key=value config file (--config), then the DCRLAB_OUT environment
variable for the output directory, then the built-in defaults.  A config
key must name a value option of some subcommand, and its value becomes
that option's default, so it is converted like the flag: a bad value exits
2 with argparse's message.  One seed fixes every random choice, so
identical invocations write byte-identical files.

Every subcommand hands its results (``dcrlab.acceptance``) to ``emit``,
which writes no CSV for a result without rows.  All but dcrh-game run
criteria of the verification battery, so ``verify-all`` writes the same
bytes; dcrh-game's table is outside the battery, so its line carries no
criterion number.
"""

import argparse
import os
import sys
from pathlib import Path

from dcrlab import acceptance
from dcrlab.hashfam import EnumerationCap

OUTPUT_ENV_VAR = "DCRLAB_OUT"


def parse_range(text: str) -> range:
    """'3..8' -> range(3, 9); '5' -> range(5, 6); '8..3' and lengths below
    1 are errors."""
    lo, sep, hi = text.partition("..")
    out = range(int(lo), int(hi if sep else lo) + 1)
    if not out or out.start < 1:
        raise ValueError(f"not a range of input lengths >= 1: {text!r}")
    return out


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


# ------------------------------------------------------------------ subcommands
# Each handler reads its settings off ``args`` and looks its battery
# function up on ``acceptance`` when it runs, so a patched one is called.

def cmd_entropy(args) -> int:
    return emit([acceptance.criterion_probkit_identities(args.seed, trials=args.trials)],
                args.out)


def cmd_dcrh_game(args) -> int:
    return emit([acceptance.collision_game_table(args.seed, ns=args.n, num_keys=args.num_keys,
                                                 mode=args.mode, samples=args.samples)],
                args.out)


def cmd_gap_sweep(args) -> int:
    return emit([acceptance.criterion_gap_sweep(args.seed, ns=args.n, num_keys=args.num_keys)],
                args.out)


def cmd_commit_reduce(args) -> int:
    return emit([acceptance.criterion_commit_reduction(args.seed, num_seeds=args.num_seeds,
                                                       k=args.k, m=args.m)], args.out)


def cmd_szk_protocol(args) -> int:
    return emit([acceptance.criterion_protocol_completeness(args.seed),
                 acceptance.criterion_binding_reduction(args.seed),
                 acceptance.criterion_hiding_analysis(args.seed)], args.out)


def cmd_verify_all(args) -> int:
    results = acceptance.run_all(seed=args.seed, inject_fault=args.inject_fault, fast=args.fast)
    code = emit(results, args.out)
    report = args.out / "verify_report.txt"
    write_lines(report, [res.line() for res in results])
    print(f"wrote {report}")
    return code


# ------------------------------------------------------------------ entry point

def build_parser() -> argparse.ArgumentParser:
    """Every setting, its default and its handler, declared once."""
    parser = argparse.ArgumentParser(
        prog="dcrlab",
        description="exact collision-game, entropy-gap, and commitment experiments")
    parser.add_argument("--config", help="flat key=value config file")
    sub = parser.add_subparsers(dest="command")

    def command(name, handler, summary):
        p = sub.add_parser(name, help=summary,
                           formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        p.set_defaults(handler=handler)
        p.add_argument("--seed", type=int, default=0, help="master seed")
        p.add_argument("--out", type=Path, default=os.environ.get(OUTPUT_ENV_VAR) or "reports",
                       help=f"output directory; ${OUTPUT_ENV_VAR} replaces the default")
        return p

    p = command("entropy", cmd_entropy, "distribution identity battery")
    p.add_argument("--trials", type=int, default=10_000, help="seeded trials per identity")

    p = command("dcrh-game", cmd_dcrh_game, "collision-game distances")
    p.add_argument("--n", type=parse_range, default="2..4",
                   help="input length or range, e.g. 3..6")
    p.add_argument("--num-keys", type=int, default=4, help="keys per family")
    p.add_argument("--mode", choices=["exact", "monte-carlo"], default="exact",
                   help="full enumeration or sampled estimate")
    p.add_argument("--samples", type=int, default=10_000, help="samples per monte-carlo game")

    p = command("gap-sweep", cmd_gap_sweep, "distance-vs-gap grid")
    p.add_argument("--n", type=parse_range, default="2..6",
                   help="input length or range, e.g. 3..8")
    p.add_argument("--num-keys", type=int, default=4, help="keys per family")

    p = command("commit-reduce", cmd_commit_reduce, "commitment-to-collision rates")
    p.add_argument("--k", type=int, default=6, help="coin bits")
    p.add_argument("--m", type=int, default=3, help="commit-message bits")
    p.add_argument("--num-seeds", type=int, default=100, help="receiver keys sampled")

    command("szk-protocol", cmd_szk_protocol, "protocol completeness/hiding/binding")

    p = command("verify-all", cmd_verify_all, "full verification battery")
    p.add_argument("--fast", action="store_true", help="reduced grid for smoke runs")
    p.add_argument("--inject-fault", action="store_true",
                   help="negative control: force a broken generator through")
    return parser


def _subcommands(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def _value_options(parser: argparse.ArgumentParser) -> set[str]:
    return {a.dest for a in parser._actions if a.option_strings and a.nargs != 0}


def config_keys(parser: argparse.ArgumentParser) -> set[str]:
    """The keys a config file may set: every subcommand's value options."""
    return set().union(*map(_value_options, _subcommands(parser).values()))


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
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
        # The chosen subcommand's config values become its defaults, so
        # flags still win and each value is converted by its option's type.
        chosen = _subcommands(parser)[args.command]
        own = _value_options(chosen)
        chosen.set_defaults(**{key: value for key, value in config.items() if key in own})
        args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, KeyError, EnumerationCap) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
