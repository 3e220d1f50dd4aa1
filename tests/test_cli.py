"""Command-line surface: flags, config file, env var, exit codes."""

import hashlib
import os
import re
import resource
import subprocess
import sys

import pytest

from dcrlab.cli import build_parser, config_keys, load_config, main, parse_range


def run_cli(argv, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "dcrlab", *argv],
        capture_output=True, text=True, env=env)


def test_parse_range():
    assert list(parse_range("3..5")) == [3, 4, 5]
    assert list(parse_range("7")) == [7]
    with pytest.raises(ValueError):
        parse_range("abc")
    with pytest.raises(ValueError):
        parse_range("8..3")
    for text in ["0", "-1", "0..3"]:
        with pytest.raises(ValueError):
            parse_range(text)


def test_no_command_prints_usage_and_exits_2():
    assert main([]) == 2


def test_gap_sweep_writes_csv(tmp_path):
    code = main(["gap-sweep", "--n", "2..2", "--num-keys", "1",
                 "--seed", "1", "--out", str(tmp_path)])
    assert code == 0
    text = (tmp_path / "gap_sweep.csv").read_text()
    lines = text.strip().splitlines()
    assert lines[0] == "family,generator,n,gap,kl1,kl2,distance,bound"
    assert len(lines) > 1
    assert lines[1:] == sorted(lines[1:])


def test_empty_range_exits_2_and_writes_nothing(tmp_path, capsys):
    # argparse converts --n, from a flag or from a config, before any
    # handler runs; input lengths below 1 are refused there too.
    cfg = tmp_path / "range.cfg"
    cfg.write_text("n=5..3\n")
    for argv in [["gap-sweep", "--n", "8..3"], ["dcrh-game", "--n", "5..3"],
                 ["dcrh-game", "--n=-1", "--seed", "5"], ["gap-sweep", "--n=-1", "--seed", "5"],
                 ["dcrh-game", "--n", "0"], ["gap-sweep", "--n", "0..2"],
                 ["--config", str(cfg), "gap-sweep"], ["--config", str(cfg), "dcrh-game"]]:
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(tmp_path / "out")])
        assert exc.value.code == 2, argv
        assert "error: argument --n: invalid parse_range value: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, keys", [("dcrh-game", "-1"), ("gap-sweep", "0")])
def test_no_keys_exits_2_and_writes_nothing(tmp_path, capsys, command, keys):
    code = main([command, "--n", "2", "--num-keys", keys, "--out", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err == f"error: num_keys must be at least 1, got {keys}\n"
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_entropy_without_trials_exits_2_and_writes_nothing(tmp_path, capsys, trials):
    code = main(["entropy", "--trials", trials, "--out", str(tmp_path)])
    assert code == 2
    assert "error: trials must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "entropy_identities.csv").exists()


def test_enumeration_cap_exits_2(tmp_path, capsys):
    code = main(["dcrh-game", "--n", "15", "--out", str(tmp_path)])
    assert code == 2
    assert "error: n=15 exceeds enumeration cap" in capsys.readouterr().err
    assert not (tmp_path / "dcrh_game.csv").exists()


def test_pair_cap_names_pair_count(tmp_path, capsys):
    # The Monte-Carlo game writes Col's pairs out as floats; the constant
    # family's Col at n = 11 has 4^11 of them, past the 2^20 pair cap.
    code = main(["dcrh-game", "--mode", "monte-carlo", "--n", "11", "--out", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err == "error: 4194304 pairs exceed 2^20\n"
    assert not (tmp_path / "dcrh_game.csv").exists()


def test_dcrh_game_exact(tmp_path):
    code = main(["dcrh-game", "--n", "2..2", "--num-keys", "1",
                 "--seed", "2", "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "dcrh_game.csv").exists()


def test_dcrh_game_exact_rows_pinned(tmp_path):
    # sha256 of dcrh_game.csv as written while laws carried declared domains.
    code = main(["dcrh-game", "--n", "2..5", "--seed", "3", "--out", str(tmp_path)])
    assert code == 0
    digest = hashlib.sha256((tmp_path / "dcrh_game.csv").read_bytes()).hexdigest()
    assert digest == "81b70afc79715c8218a4d3e62d99e3c9144659f72cdf175f6fc459ee42f3a8c1"


def test_dcrh_game_exact_rows_pinned_at_n11(tmp_path):
    # sha256 of dcrh_game.csv at n = 11, the first size past the old 2n <= 20
    # pair cap: the exact game reads Col and the rewound laws off their blocks.
    code = main(["dcrh-game", "--n", "11", "--seed", "7", "--out", str(tmp_path)])
    assert code == 0
    digest = hashlib.sha256((tmp_path / "dcrh_game.csv").read_bytes()).hexdigest()
    assert digest == "c5e1d6d4dfbbcc188e1260a97228ecb5096271515371d2f9674d106a95eef1eb"


def test_dcrh_game_monte_carlo_rows_pinned(tmp_path):
    # sha256 of dcrh_game.csv as the draw-and-run-per-sample loop wrote it.
    code = main(["dcrh-game", "--mode", "monte-carlo", "--n", "2..4", "--seed", "3",
                 "--samples", "2000", "--out", str(tmp_path)])
    assert code == 0
    digest = hashlib.sha256((tmp_path / "dcrh_game.csv").read_bytes()).hexdigest()
    assert digest == "140adbc6808501bb0153d1024e106f51e5975495d195ac50136ba8343779632a"


def _limit_address_space():
    # Runs in the child between fork and exec: the limit binds it alone.
    limit = 512 * 2**20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
def test_closed_stdout_ends_quietly(tmp_path, unbuffered):
    # stdout is a pipe whose reader has already gone, as after `| head -1`.
    # Unbuffered, the first line fails before any file is written; buffered,
    # the report is written and the flush at the end fails.
    read, write = os.pipe()
    os.close(read)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "dcrlab", "gap-sweep", "--n", "2..3", "--out", str(tmp_path)],
            stdout=write, stderr=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONUNBUFFERED=unbuffered))
    finally:
        os.close(write)
    assert result.returncode == 141
    assert result.stderr == ""
    assert (tmp_path / "gap_sweep.csv").exists() == (not unbuffered)


def test_unwritable_out_exits_2_without_traceback(tmp_path, capsys):
    # The output directory would sit under a regular file, so the report
    # cannot be written: one error line, not an OSError traceback.
    blocker = tmp_path / "file"
    blocker.write_text("")
    code = main(["gap-sweep", "--n", "2", "--num-keys", "1", "--out", str(blocker / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_commit_reduce_cap_checked_before_tables(tmp_path):
    # At k = 20 each receiver's table has 2^21 entries, about 16 MiB; the
    # default 100 seeds would need some 1.6 GiB before the cap fired.  The
    # cap is checked first, so the run fits in 512 MiB of address space.
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    result = subprocess.run(
        [sys.executable, "-m", "dcrlab", "commit-reduce", "--k", "20", "--out", str(tmp_path)],
        capture_output=True, text=True, env=env, preexec_fn=_limit_address_space)
    assert result.returncode == 2
    assert "error: n=21 exceeds enumeration cap 20" in result.stderr
    assert "Traceback" not in result.stderr
    assert not (tmp_path / "commit_reduce.csv").exists()


def test_monte_carlo_sample_count_capped_before_drawing(tmp_path):
    # 10^10 samples would need 80 GB of tapes; the cap fires first, so the
    # run fits in 512 MiB of address space and exits 2, not 1.
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    result = subprocess.run(
        [sys.executable, "-m", "dcrlab", "dcrh-game", "--n", "2", "--mode", "monte-carlo",
         "--samples", "10000000000", "--out", str(tmp_path)],
        capture_output=True, text=True, env=env, preexec_fn=_limit_address_space)
    assert result.returncode == 2
    assert result.stderr == "error: 10000000000 samples exceed 2^24\n"
    assert not (tmp_path / "dcrh_game.csv").exists()


def test_commit_reduce(tmp_path):
    code = main(["commit-reduce", "--k", "4", "--m", "2", "--num-seeds", "5",
                 "--seed", "3", "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "commit_reduce.csv").read_text().strip().splitlines()
    assert lines[0] == "scheme,h_index,epsilon,rate,bound"
    assert len(lines) == 6


def test_config_file_supplies_defaults(tmp_path):
    cfg = tmp_path / "lab.cfg"
    cfg.write_text(f"# comment\nseed=4\nout={tmp_path / 'from_config'}\nn=2..2\nnum_keys=1\n")
    code = main(["--config", str(cfg), "gap-sweep"])
    assert code == 0
    assert (tmp_path / "from_config" / "gap_sweep.csv").exists()


def test_flags_override_config(tmp_path):
    cfg = tmp_path / "lab.cfg"
    cfg.write_text(f"out={tmp_path / 'config_dir'}\nn=2..2\nnum_keys=1\nseed=1\n")
    code = main(["--config", str(cfg), "gap-sweep", "--out", str(tmp_path / "flag_dir")])
    assert code == 0
    assert (tmp_path / "flag_dir" / "gap_sweep.csv").exists()
    assert not (tmp_path / "config_dir").exists()


def test_malformed_config_exits_2(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("this is not a key value pair\n")
    assert main(["--config", str(cfg), "gap-sweep"]) == 2


def test_misspelled_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "typo.cfg"
    cfg.write_text(f"sed=4\nnum_key=1\nn=2..2\nout={tmp_path}\n")
    assert main(["--config", str(cfg), "gap-sweep"]) == 2
    assert capsys.readouterr().err == (
        f"config error: {cfg}: unknown key(s) 'num_key', 'sed'\n")
    assert not (tmp_path / "gap_sweep.csv").exists()


def test_config_shared_across_subcommands(tmp_path):
    # trials is read by entropy, samples by dcrh-game; gap-sweep ignores both.
    cfg = tmp_path / "shared.cfg"
    cfg.write_text(f"trials=200\nsamples=500\nn=2..2\nnum_keys=1\nout={tmp_path}\n")
    assert main(["--config", str(cfg), "gap-sweep"]) == 0
    assert (tmp_path / "gap_sweep.csv").exists()


def test_load_config_parsing(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("a=1\n# note\n\nb = two words \n")
    assert load_config(cfg) == {"a": "1", "b": "two words"}


def test_env_var_sets_output_dir(tmp_path):
    result = run_cli(["entropy", "--seed", "1", "--trials", "200"],
                     env_extra={"DCRLAB_OUT": str(tmp_path / "envdir")})
    assert result.returncode == 0
    assert (tmp_path / "envdir" / "entropy_identities.csv").exists()


def test_szk_protocol_command(tmp_path):
    code = main(["szk-protocol", "--seed", "2", "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "szk_binding.csv").exists()
    assert (tmp_path / "szk_hiding.csv").exists()


def _raise_bound_violation(*args, **kwargs):
    raise AssertionError("injected violation")


def test_dcrh_game_bound_violation_exits_1(tmp_path, capsys, monkeypatch):
    import dcrlab.hashfam

    monkeypatch.setattr(dcrlab.hashfam, "dcrh_distance", _raise_bound_violation)
    code = main(["dcrh-game", "--n", "2..2", "--num-keys", "1", "--out", str(tmp_path)])
    assert code == 1
    out = capsys.readouterr().out
    assert "collision-game table [FAIL]" in out
    assert "injected violation" in out
    assert not (tmp_path / "dcrh_game.csv").exists()


def test_gap_sweep_bound_violation_exits_1(tmp_path, capsys, monkeypatch):
    import dcrlab.entropy_gap

    monkeypatch.setattr(dcrlab.entropy_gap, "gap_bound_report", _raise_bound_violation)
    code = main(["gap-sweep", "--n", "2..2", "--num-keys", "1", "--out", str(tmp_path)])
    assert code == 1
    assert "criterion 2 [FAIL]" in capsys.readouterr().out


def test_gap_sweep_headline_failure_exits_1(tmp_path, capsys, monkeypatch):
    import dcrlab.entropy_gap

    monkeypatch.setattr(dcrlab.entropy_gap.GapReport, "headline_ok", False)
    code = main(["gap-sweep", "--n", "2..2", "--num-keys", "1", "--out", str(tmp_path)])
    assert code == 1
    assert "headline bound fails" in capsys.readouterr().out


def test_commit_reduce_bound_violation_exits_1(tmp_path, capsys, monkeypatch):
    import dcrlab.commitments

    monkeypatch.setattr(dcrlab.commitments, "col_equivocation_rate", _raise_bound_violation)
    code = main(["commit-reduce", "--k", "4", "--m", "2", "--num-seeds", "2",
                 "--out", str(tmp_path)])
    assert code == 1
    out = capsys.readouterr().out
    assert "criterion 5 [FAIL]" in out
    assert "injected violation" in out
    assert not (tmp_path / "commit_reduce.csv").exists()


def test_subcommands_write_verify_all_bytes(tmp_path):
    # Each report subcommand runs the battery's own criterion, so its CSV
    # is the one verify-all writes, byte for byte.
    battery = tmp_path / "verify-all"
    assert main(["verify-all", "--fast", "--seed", "7", "--out", str(battery)]) == 0
    for argv, names in [
        (["entropy", "--trials", "2000"], ["entropy_identities.csv"]),
        (["gap-sweep", "--n", "2..5"], ["gap_sweep.csv"]),
        (["commit-reduce", "--num-seeds", "20"], ["commit_reduce.csv"]),
        (["szk-protocol"], ["szk_binding.csv", "szk_hiding.csv"]),
    ]:
        out = tmp_path / argv[0]
        assert main([*argv, "--seed", "7", "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == names
        for name in names:
            assert (out / name).read_bytes() == (battery / name).read_bytes(), name


def _cli_csv(argv, out, hash_seed):
    result = run_cli([*argv, "--out", str(out)], env_extra={"PYTHONHASHSEED": hash_seed})
    assert result.returncode == 0, result.stderr
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("argv", [
    ["gap-sweep", "--n", "2..4", "--seed", "3"],
    ["dcrh-game", "--n", "2..3"],
    ["commit-reduce", "--seed", "3", "--num-seeds", "20"],
    ["dcrh-game", "--n", "2..3", "--mode", "monte-carlo", "--samples", "2000"],
])
def test_reports_identical_across_hash_seeds(tmp_path, argv):
    first = _cli_csv(argv, tmp_path / "hash0", "0")
    second = _cli_csv(argv, tmp_path / "hash1", "1")
    assert first and first == second


@pytest.mark.parametrize("command, defaults", [
    ("entropy", {"--trials": "10000"}),
    ("dcrh-game", {"--n": "2..4", "--num-keys": "4", "--mode": "exact", "--samples": "10000"}),
    ("gap-sweep", {"--n": "2..6", "--num-keys": "4"}),
    ("commit-reduce", {"--k": "6", "--m": "3", "--num-seeds": "100"}),
    ("szk-protocol", {}),
    ("verify-all", {}),
])
def test_help_names_every_default(command, defaults, capsys, monkeypatch):
    monkeypatch.delenv("DCRLAB_OUT", raising=False)
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    options = " ".join(capsys.readouterr().out.split("options:", 1)[1].split())
    entries = {entry.split()[0]: entry for entry in re.split(r" (?=--)", options)}
    del entries["-h,"], entries["--help"]
    for flag, entry in entries.items():
        assert "(default: " in entry, flag
    for flag, default in {"--seed": "0", "--out": "reports", **defaults}.items():
        assert entries[flag].endswith(f"(default: {default})"), entries[flag]


def test_bad_config_value_exits_2_with_argparse_message(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("seed=abc\n")
    result = run_cli(["--config", str(cfg), "gap-sweep", "--n", "2..2",
                      "--out", str(tmp_path / "out")])
    assert result.returncode == 2
    assert "argument --seed: invalid int value: 'abc'" in result.stderr
    assert "Traceback" not in result.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["entropy", "dcrh-game", "gap-sweep", "commit-reduce",
                                     "szk-protocol", "verify-all"])
def test_negative_seed_exits_2_with_argparse_message(tmp_path, capsys, command):
    # numpy refuses seeds below 0; argparse refuses them first, whatever
    # the seed offsets and n of the subcommand's criteria.
    for seed in ["-1", "-100"]:
        with pytest.raises(SystemExit) as exc:
            main([command, "--seed", seed, "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert f"argument --seed: invalid int value: '{seed}'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    assert build_parser().parse_args([command, "--seed", "0"]).seed == 0


def test_negative_seed_in_config_exits_2_with_argparse_message(tmp_path):
    cfg = tmp_path / "seed.cfg"
    cfg.write_text("seed=-1\n")
    result = run_cli(["--config", str(cfg), "gap-sweep", "--n", "2..2",
                      "--out", str(tmp_path / "out")])
    assert result.returncode == 2
    assert "argument --seed: invalid int value: '-1'" in result.stderr
    assert "Traceback" not in result.stderr
    assert not (tmp_path / "out").exists()


def test_config_keys_are_the_value_options():
    assert config_keys(build_parser()) == {
        "seed", "out", "trials", "n", "num_keys", "mode", "samples", "k", "m", "num_seeds"}


def test_verify_all_calls_run_all_at_call_time(tmp_path, monkeypatch):
    # The handler looks run_all up when it runs, so a patched one is called.
    import dcrlab.acceptance

    calls = []

    def fake_run_all(*args, **kwargs):
        calls.append((args, kwargs))
        return [dcrlab.acceptance.CriterionResult(1, "stub", True, "patched")]

    monkeypatch.setattr(dcrlab.acceptance, "run_all", fake_run_all)
    assert main(["verify-all", "--fast", "--seed", "7", "--out", str(tmp_path)]) == 0
    assert calls == [((), {"seed": 7, "inject_fault": False, "fast": True})]
    assert (tmp_path / "verify_report.txt").read_text() == "criterion 1 [PASS] stub: patched\n"


def test_commit_reduce_negative_coin_bits_exits_2(tmp_path):
    result = run_cli(["commit-reduce", "--k", "-2", "--out", str(tmp_path)])
    assert result.returncode == 2
    assert result.stderr == "error: coin_bits must be at least 0, got -2\n"
    assert not (tmp_path / "commit_reduce.csv").exists()


@pytest.mark.parametrize("m", ["64", "-1"])
def test_commit_reduce_message_bits_out_of_range_exits_2(tmp_path, m):
    result = run_cli(["commit-reduce", "--m", m, "--out", str(tmp_path)])
    assert result.returncode == 2
    assert result.stderr == f"error: message_bits must be in 1..63, got {m}\n"
    assert not (tmp_path / "commit_reduce.csv").exists()


@pytest.mark.parametrize("argv", [
    ["entropy", "--trials", "10"],
    ["dcrh-game", "--n", "2", "--num-keys", "1"],
    ["gap-sweep", "--n", "2", "--num-keys", "1"],
    ["commit-reduce", "--k", "2", "--m", "1", "--num-seeds", "1"],
    ["szk-protocol"],
    ["verify-all", "--fast"],
], ids=lambda argv: argv[0])
def test_report_subcommands_call_emit_once(tmp_path, monkeypatch, argv):
    import dcrlab.acceptance
    import dcrlab.cli

    calls = []

    def fake_emit(results, outdir):
        calls.append((results, outdir))
        return 0

    monkeypatch.setattr(dcrlab.cli, "emit", fake_emit)
    stub = [dcrlab.acceptance.CriterionResult(1, "stub", True, "patched")]
    monkeypatch.setattr(dcrlab.acceptance, "run_all", lambda **kwargs: stub)
    assert main([*argv, "--out", str(tmp_path)]) == 0
    [(results, outdir)] = calls
    assert results and outdir == tmp_path
