"""The verification battery, one test per criterion, each printing its
pass/fail line.  Tolerances are pinned inside dcrlab.acceptance; nothing
is configurable from here."""

import builtins
import hashlib
import itertools
import math
import subprocess
import sys

import numpy as np

from dcrlab import acceptance
from dcrlab import szkcommit as szk

SEED = 7


def _check(result):
    print()
    print(result.line() + f"  ({result.elapsed:.1f}s)")
    assert result.passed, result.detail


def test_criterion_1_real_entropy_equals_n():
    _check(acceptance.criterion_real_entropy(SEED))


def test_criterion_2_gap_bound_sweep_full():
    result = acceptance.criterion_gap_sweep(SEED, ns=range(2, 9), num_keys=4)
    _check(result)
    assert result.elapsed < 600
    # sha256 of the newline-joined n = 2..8 rows as the tagged-mixture
    # joint route and the unmemoized logs and block laws wrote them.
    digest = "a8aec494ce66dea95930481d79623c0b97c83fe1651f8a7b3e22758551d33e7f"
    assert hashlib.sha256("\n".join(result.rows).encode()).hexdigest() == digest


def test_criterion_2_rows_pinned():
    # sha256 of the newline-joined gap_sweep.csv rows as the
    # Fraction-per-outcome sample-entropy logs wrote them.
    rows = acceptance.criterion_gap_sweep(7, ns=range(2, 7)).rows
    digest = "9f861f78fb9d8f4d2bce57b6a7f95a840eaad358ef417f0983de480b514cbdc6"
    assert hashlib.sha256("\n".join(rows).encode()).hexdigest() == digest


def test_criterion_2_rows_pinned_at_n9():
    # sha256 of the newline-joined n = 9 rows as the tape-counting route
    # wrote them for the generators whose tape space was at most 2^16.
    rows = acceptance.criterion_gap_sweep(7, ns=range(9, 10)).rows
    digest = "89f1f9a94999722d87dc6016aa553e8cd1bc20b2169bf26d1b6413d6f5124289"
    assert hashlib.sha256("\n".join(rows).encode()).hexdigest() == digest


def test_criterion_2_rows_pinned_at_n10():
    # sha256 of the newline-joined n = 10 rows (seed 7, 4 keys) as the
    # materialized pair laws wrote them; the block laws make this size a
    # matter of seconds.
    rows = acceptance.criterion_gap_sweep(7, ns=range(10, 11)).rows
    digest = "33a8ca5b7fbf28593413952f3b346a5372923ff8bea2cc3930c85ab733ff65e6"
    assert hashlib.sha256("\n".join(rows).encode()).hexdigest() == digest


def test_criterion_2_rows_pinned_at_n11():
    # sha256 of the newline-joined n = 11 rows (seed 7, 4 keys), the first
    # size past the old 2n <= 20 pair cap; no law here writes its pairs out.
    rows = acceptance.criterion_gap_sweep(7, ns=range(11, 12)).rows
    digest = "638af4fcf7d642aa851db7dfe700b4f770f9a078bce816234c030101520aec5b"
    assert hashlib.sha256("\n".join(rows).encode()).hexdigest() == digest


def compensated_sum(iterable, start=0):
    """The builtin ``sum`` of Python 3.12 and later, written out.  Ints
    that fit a C long add exactly.  From the first float on, floats add
    with Neumaier's compensation and such ints add plainly, and the
    compensation joins the total once, when the floats end, if it is
    nonzero and finite.  Anything else, or an int overflow, falls back to
    ``+`` for the rest of the items."""
    items = iter(iterable)
    total = start
    if type(total) is int and -2**63 <= total < 2**63:
        for x in items:
            if type(x) in (int, bool) and -2**63 <= total + x < 2**63:
                total += x
            else:
                total = total + x
                break
    if type(total) is float:
        comp = 0.0
        for x in items:
            if type(x) is float:
                t = total + x
                comp += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
                total = t
            elif isinstance(x, int) and -2**63 <= x < 2**63:
                total += float(x)
            else:
                items = itertools.chain([x], items)
                break
        if comp and math.isfinite(comp):
            total += comp
    for x in items:
        total = total + x
    return total


def test_compensated_sum_gives_python_3_12_values():
    assert compensated_sum([0.1] * 10) == 1.0
    assert compensated_sum([1e16, 1.0, -1e16]) == 1.0
    assert compensated_sum([0.1, 0.2, 0.3]) == 0.6


def test_criterion_2_rows_pinned_under_compensated_sum(monkeypatch):
    # The float kernels add left to right themselves, so the rows hold
    # under 3.12's compensated ``sum`` as well.
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    rows = acceptance.criterion_gap_sweep(7, ns=range(2, 7)).rows
    digest = "9f861f78fb9d8f4d2bce57b6a7f95a840eaad358ef417f0983de480b514cbdc6"
    assert hashlib.sha256("\n".join(rows).encode()).hexdigest() == digest


def test_criterion_3_ideal_tightness():
    result = acceptance.criterion_ideal_tightness(SEED, max_n=8)
    _check(result)


def test_criterion_4_toolkit_identities():
    result = acceptance.criterion_probkit_identities(SEED, trials=10_000)
    _check(result)
    assert result.elapsed < 60


def test_criterion_4_rows_pinned():
    # sha256 of the newline-joined entropy_identities.csv rows as the
    # per-outcome float path wrote them.
    rows = acceptance.criterion_probkit_identities(SEED).rows
    digest = "4f40b372bac4a93fe2b8af9d83b9babeb483aafcc45cfa5b8af8bfd57abcd6d8"
    assert hashlib.sha256("\n".join(rows).encode()).hexdigest() == digest


def test_flat_dirichlet_is_numpy_dirichlet():
    # Criterion 4 draws its laws without rng.dirichlet; a numpy whose
    # Dirichlet at alpha = 1 draws differently fails here, not in the pin.
    for seed in range(20):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for size in itertools.islice(itertools.cycle(range(2, 26)), 2000):
            assert acceptance._flat_dirichlet(rng, size) == ref.dirichlet(np.ones(size)).tolist()
        assert rng.bit_generator.state == ref.bit_generator.state


def test_criterion_5_commit_reduction():
    result = acceptance.criterion_commit_reduction(SEED, num_seeds=100)
    _check(result)
    assert result.elapsed < 300


def test_criterion_5_rows_pinned():
    # sha256 of the newline-joined commit_reduce.csv rows as the
    # pair-by-pair Col loop wrote them.
    expected = {
        0: "558a96a27102784167da094df7b1a1d6a7f387a3be0ab1cfe31274f27ee5cd78",
        7: "660ca9cdd04c91627b0e59219114fab6c4b69b7329f8a0f2bb3d4ef653ef42bb",
    }
    for seed, digest in expected.items():
        rows = acceptance.criterion_commit_reduction(seed).rows
        assert hashlib.sha256("\n".join(rows).encode()).hexdigest() == digest


def test_criterion_6_protocol_completeness():
    result = acceptance.criterion_protocol_completeness(SEED)
    _check(result)
    assert result.elapsed < 300


def test_criterion_6_catches_a_coin_toss_that_drops_sigma(monkeypatch):
    def no_xor(self, rho, sigma):
        self.r = dict(rho)
        self.phase = "instance-gen"
        return self

    monkeypatch.setattr(szk.ProtocolSession, "coin_toss_phase", no_xor)
    result = acceptance.criterion_protocol_completeness(SEED)
    assert not result.passed
    assert "coin-toss xor bookkeeping broken" in result.detail


def test_criterion_7_binding_reduction():
    result = acceptance.criterion_binding_reduction(SEED)
    _check(result)
    assert result.elapsed < 600


def test_criterion_7_rows_pinned():
    # szk_binding.csv rows as the session-per-tuple loop wrote them.
    rows = [f"hybrid_{stage}_pr_event,15/64" for stage in range(5)]
    rows += ["break_probability,15/16", "decider_correct,79/128", "decider_pr_event,15/64"]
    for seed in (0, 7):
        assert acceptance.criterion_binding_reduction(seed).rows == rows


def test_criterion_8_hiding_analysis():
    result = acceptance.criterion_hiding_analysis(SEED)
    _check(result)
    assert result.elapsed < 300


def test_criterion_8_rows_pinned():
    # szk_hiding.csv rows (n, inadmissible_prob, union_bound,
    # epsilon_given_admissible) as the session-per-preamble loop wrote them.
    expected = {
        0: ["1,1/4,1,0", "2,1/16,0.5,0", "3,1/64,0.25,0"],
        7: ["1,1/4,1,0", "2,1/16,0.5,0", "3,1/64,0.25,0.25"],
    }
    for seed, rows in expected.items():
        assert acceptance.criterion_hiding_analysis(seed).rows == rows


def test_criterion_9_cli_determinism_and_fault_flag(tmp_path):
    def run(extra, outdir, python_flags=()):
        return subprocess.run(
            [sys.executable, *python_flags, "-m", "dcrlab", "verify-all", "--seed", str(SEED),
             "--fast", "--out", str(outdir), *extra],
            capture_output=True, text=True)

    first = run([], tmp_path / "a")
    second = run([], tmp_path / "b")
    assert first.returncode == 0 and second.returncode == 0

    files_a = sorted(p.name for p in (tmp_path / "a").iterdir())
    files_b = sorted(p.name for p in (tmp_path / "b").iterdir())
    assert files_a == files_b and files_a
    for name in files_a:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    # Under -O, so the control shows the checks cannot be switched off.
    faulted = run(["--inject-fault"], tmp_path / "c", python_flags=["-O"])
    assert faulted.returncode == 1
    assert "injected-fault control" in faulted.stdout
    print()
    print("criterion 9 [PASS] determinism: byte-identical same-seed reports;"
          " --inject-fault flips the exit code, under -O too")
