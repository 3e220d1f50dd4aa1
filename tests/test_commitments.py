"""Commitment games and the collision-equivocation reduction."""

import csv
import io
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcrlab.acceptance import criterion_commit_reduction
from dcrlab.commitments import (
    TOL,
    ClearTextCommitment,
    EquivocationReport,
    MarkovStepReport,
    OpaqueCommitment,
    RandomFunctionCommitment,
    TwoMessageCommitment,
    col_equivocation_rate,
    hiding_distance,
    markov_step_check,
    scheme_to_hash_family,
    string_variant_rate,
)
from dcrlab.hashfam import HashFunction, col_distribution
from dcrlab.probkit import Dist, stat_distance

from reference_laws import ref_col_distribution


class InjectiveCommitment(TwoMessageCommitment):
    """An injective random table: perfectly binding, not hiding at all.
    Negative control for the equivocation claims."""

    def __init__(self, coin_bits: int, message_bits: int, num_seeds: int = 8,
                 seed: int = 0, ell: int = 1):
        size = 2 ** (ell + coin_bits)
        if 2**message_bits < size:
            raise ValueError("injective table needs message_bits >= ell + coin_bits")
        super().__init__(ell, coin_bits, message_bits, range(num_seeds))
        self.name = f"injective[k={coin_bits},m={message_bits}]"
        rng = np.random.default_rng(seed)
        self._tables = {
            s: tuple(int(v) for v in rng.choice(2**message_bits, size=size, replace=False))
            for s in self.receiver_seeds
        }

    def first_message(self, seed):
        return self._tables[seed]

    def commit_value(self, first_msg, plaintext, coins):
        return first_msg[(plaintext << self.coin_bits) | coins]

ALL_SCHEMES = [
    RandomFunctionCommitment(3, 2, num_seeds=4, seed=1),
    InjectiveCommitment(3, 5, num_seeds=4, seed=2),
    OpaqueCommitment(3, num_seeds=3, seed=3),
    ClearTextCommitment(3),
]


# ---------------------------------------------------------------- completeness

def _honest_commitment(scheme, seed, b, r):
    """The receiver's first message and the sender's commit message on
    plaintext b and coins r."""
    first = scheme.first_message(seed)
    return first, scheme.commit_value(first, b, r)


def test_honest_runs_verify_exhaustively():
    for scheme in ALL_SCHEMES:
        for seed in scheme.receiver_seeds:
            for b in range(2**scheme.ell):
                for r in range(2**scheme.coin_bits):
                    com = _honest_commitment(scheme, seed, b, r)
                    assert scheme.verify(com, (b, r)) == b


def test_random_honest_runs_all_verify():
    rng = np.random.default_rng(77)
    for _ in range(10_000):
        scheme = ALL_SCHEMES[int(rng.integers(len(ALL_SCHEMES)))]
        seed = scheme.receiver_seeds[int(rng.integers(len(scheme.receiver_seeds)))]
        b = int(rng.integers(2**scheme.ell))
        r = int(rng.integers(2**scheme.coin_bits))
        com = _honest_commitment(scheme, seed, b, r)
        assert scheme.verify(com, (b, r)) == b


def test_malformed_opening_does_not_verify():
    scheme = OpaqueCommitment(2)
    com = _honest_commitment(scheme, 0, 0, 0)
    assert scheme.verify(com, (5, 0)) is None


def test_injective_scheme_distinct_commit_messages():
    scheme = InjectiveCommitment(3, 5, num_seeds=2, seed=5)
    first = scheme.first_message(0)
    msgs = {scheme.commit_value(first, b, r) for b in range(2) for r in range(8)}
    assert len(msgs) == 16


# --------------------------------------------------------------------- hiding

def _hiding_by_coins(scheme, seed):
    """The hiding distance from one ``commit_value`` per coin value per
    plaintext: the largest pairwise TV between the plaintexts' exact
    commit-message laws.  Reference for the table-slice kernel."""
    first = scheme.first_message(seed)
    views = []
    for b in range(2**scheme.ell):
        counts = {}
        for coins in range(2**scheme.coin_bits):
            msg = scheme.commit_value(first, b, coins)
            counts[msg] = counts.get(msg, 0) + 1
        views.append(Dist(counts, denominator=2**scheme.coin_bits))
    return max((stat_distance(v0, v1) for v0, v1 in itertools.combinations(views, 2)),
               default=Fraction(0))


@pytest.mark.parametrize("scheme", ALL_SCHEMES + [RandomFunctionCommitment(4, 3, ell=3)],
                         ids=lambda s: s.name)
def test_hiding_distance_matches_per_coin_views(scheme):
    for h in scheme_to_hash_family(scheme):
        assert hiding_distance(h, scheme.coin_bits) == _hiding_by_coins(scheme, h.key)


def test_hiding_opaque_is_exactly_zero():
    scheme = OpaqueCommitment(4, num_seeds=2, seed=9)
    for h in scheme_to_hash_family(scheme):
        assert hiding_distance(h, scheme.coin_bits) == 0


def test_hiding_clear_text_is_one():
    scheme = ClearTextCommitment(3)
    [h] = scheme_to_hash_family(scheme)
    assert hiding_distance(h, scheme.coin_bits) == 1


def test_hiding_shrinks_with_extra_coin_bits():
    # Random-function commitments: average epsilon falls as k - m grows.
    k = 6
    means = []
    for m in (5, 4, 3, 2):  # k - m = 1, 2, 3, 4
        scheme = RandomFunctionCommitment(k, m, num_seeds=24, seed=40 + m)
        eps = [hiding_distance(h, k) for h in scheme_to_hash_family(scheme)]
        means.append(sum(eps) / len(eps))
    assert means[0] > means[1] > means[2] > means[3]


# ------------------------------------------------------------------- reduction

def test_scheme_to_hash_family_shapes():
    scheme = RandomFunctionCommitment(3, 2, num_seeds=5, seed=8)
    fam = scheme_to_hash_family(scheme)
    assert fam.n == 4 and fam.m == 2 and len(fam) == 5
    # Every induced function is total: the table is the commit map itself.
    h = fam.functions[0]
    first = scheme.first_message(h.key)
    for x in range(16):
        assert h(x) == scheme.commit_value(first, x >> 3, x & 7)


def test_injective_scheme_gives_diagonal_col():
    fam = scheme_to_hash_family(InjectiveCommitment(3, 5, num_seeds=2, seed=3))
    for h in fam:
        assert all(x1 == x2 for (x1, x2) in col_distribution(h).joint().support())


def _pairwise_equivocation_rate(scheme, h):
    """The pair-by-pair loop over the Col(h) law, kept as the reference for
    the per-fiber count: one commit and two verifies per Col-supported pair.
    Returns the report the checks would raise on, without raising, and
    whether every pair re-opened."""
    first = scheme.first_message(h.key)
    eps = float(_hiding_by_coins(scheme, h.key))
    col = ref_col_distribution(h)
    split_count = 0
    valid = True
    for (x1, x2), c in col.counts.items():
        b1, r1 = x1 >> scheme.coin_bits, x1 & (2**scheme.coin_bits - 1)
        b2, r2 = x2 >> scheme.coin_bits, x2 & (2**scheme.coin_bits - 1)
        com = (first, scheme.commit_value(first, b1, r1))
        if scheme.verify(com, (b1, r1)) is None or scheme.verify(com, (b2, r2)) is None:
            valid = False
        if b1 != b2:
            split_count += c
    rate = Fraction(split_count, col.denominator)
    return EquivocationReport(rate=float(rate), epsilon=eps,
                              lower_bound=0.5 - 2 * math.sqrt(eps)), valid


def _dist_markov_step(scheme, h):
    """The averaging step with one posterior ``Dist`` per commit message and
    ``stat_distance`` to the uniform plaintext, kept as the reference for
    the integer distance."""
    eps = float(_hiding_by_coins(scheme, h.key))
    root_eps = math.sqrt(eps)
    n_plain = 2**scheme.ell
    first = scheme.first_message(h.key)
    by_msg = {}
    for b in range(n_plain):
        for r in range(2**scheme.coin_bits):
            counts = by_msg.setdefault(scheme.commit_value(first, b, r), {})
            counts[b] = counts.get(b, 0) + 1
    total = n_plain * 2**scheme.coin_bits
    heavy = Fraction(0)
    all_uniform = True
    for counts in by_msg.values():
        d = stat_distance(Dist(counts, denominator=sum(counts.values())),
                          Dist.uniform(range(n_plain)))
        all_uniform = all_uniform and d == 0
        if eps > 0 and float(d) >= root_eps:
            heavy += Fraction(sum(counts.values()), total)
    ok = all_uniform if eps == 0 else float(heavy) <= root_eps + TOL
    return MarkovStepReport(heavy_fraction=float(heavy), ok=ok)


REFERENCE_SCHEMES = [
    RandomFunctionCommitment(k, m, num_seeds=6, seed=60 + 8 * k + m + ell, ell=ell)
    for ell in (1, 2, 3)
    for k, m in ((2, 1), (3, 2), (4, 2), (5, 3), (6, 3), (3, 4))
] + [
    OpaqueCommitment(3, num_seeds=3, seed=23),
    OpaqueCommitment(4, message_bits=2, num_seeds=3, seed=24, ell=2),
    ClearTextCommitment(3),
    ClearTextCommitment(2, ell=3),
    InjectiveCommitment(3, 5, num_seeds=3, seed=25),
    InjectiveCommitment(2, 4, num_seeds=3, seed=26, ell=2),
]


@pytest.mark.parametrize("scheme", REFERENCE_SCHEMES, ids=lambda s: s.name)
def test_reduction_reports_match_reference(scheme):
    for h in scheme_to_hash_family(scheme):
        expected, valid = _pairwise_equivocation_rate(scheme, h)
        assert valid
        assert col_equivocation_rate(scheme, h) == expected
        assert markov_step_check(scheme, h) == _dist_markov_step(scheme, h)


class TableCommitment(TwoMessageCommitment):
    """One receiver key whose commit map is a given table over
    x = (plaintext || coins)."""

    def __init__(self, table: tuple, ell: int, coin_bits: int, message_bits: int):
        super().__init__(ell, coin_bits, message_bits, (0,))
        self.name = f"table[k={coin_bits},m={message_bits},ell={ell}]"
        self._table = table

    def first_message(self, seed):
        return self._table

    def commit_value(self, first_msg, plaintext, coins):
        return first_msg[(plaintext << self.coin_bits) | coins]


@st.composite
def tables_and_coin_bits(draw):
    n = draw(st.integers(1, 8))
    m = draw(st.integers(1, n + 1))
    table = tuple(draw(st.lists(st.integers(0, 2**m - 1), min_size=2**n, max_size=2**n)))
    coin_bits = draw(st.sampled_from(sorted({0, 1, n - 1, n})))
    return HashFunction(n=n, m=m, table=table, key=0), coin_bits


@settings(deadline=None)
@given(tables_and_coin_bits())
def test_count_table_reports_match_references_on_random_tables(case):
    h, coin_bits = case
    if coin_bits == h.n:  # one plaintext: nothing to tell apart
        assert hiding_distance(h, coin_bits) == 0
        return
    scheme = TableCommitment(h.table, h.n - coin_bits, coin_bits, h.m)
    assert hiding_distance(h, coin_bits) == _hiding_by_coins(scheme, h.key)
    expected, valid = _pairwise_equivocation_rate(scheme, h)
    assert valid
    if scheme.ell == 1 and expected.rate < expected.lower_bound - TOL:
        with pytest.raises(AssertionError, match=r"below 1/2 - 2 sqrt\(eps\)"):
            col_equivocation_rate(scheme, h)
    else:
        assert col_equivocation_rate(scheme, h) == expected
    assert markov_step_check(scheme, h) == _dist_markov_step(scheme, h)


def test_equivocation_merged_fiber_fails_to_reopen():
    # One fiber holding two different commit values: the table is not the
    # scheme's commit map, so some Col-supported pair cannot re-open.
    scheme = ClearTextCommitment(2)
    h = HashFunction(n=3, m=3, table=(0,) * 8, key=0)
    _, valid = _pairwise_equivocation_rate(scheme, h)
    assert not valid
    with pytest.raises(AssertionError, match="failed to re-open"):
        col_equivocation_rate(scheme, h)


def test_equivocation_bound_fires_when_hiding_overstated(monkeypatch):
    # Clear text never equivocates (rate 0); claiming perfect hiding makes
    # the bound 1/2, which the rate misses.
    import dcrlab.commitments

    scheme = ClearTextCommitment(3)
    monkeypatch.setattr(dcrlab.commitments, "hiding_distance", lambda h, coin_bits: Fraction(0))
    h = scheme_to_hash_family(scheme).functions[0]
    with pytest.raises(AssertionError, match=r"below 1/2 - 2 sqrt\(eps\)"):
        col_equivocation_rate(scheme, h)


def test_equivocation_rate_opaque_is_half():
    scheme = OpaqueCommitment(4, num_seeds=3, seed=11)
    for h in scheme_to_hash_family(scheme):
        rep = col_equivocation_rate(scheme, h)
        assert rep.epsilon == 0.0
        assert rep.rate == 0.5


def test_equivocation_rate_clear_text_is_zero():
    scheme = ClearTextCommitment(3)
    h = scheme_to_hash_family(scheme).functions[0]
    rep = col_equivocation_rate(scheme, h)
    assert rep.rate == 0.0
    assert rep.lower_bound <= 0  # vacuous at epsilon = 1


def test_equivocation_bound_random_function_family():
    scheme = RandomFunctionCommitment(6, 3, num_seeds=20, seed=12)
    for h in scheme_to_hash_family(scheme):
        rep = col_equivocation_rate(scheme, h)
        assert rep.rate >= rep.lower_bound - 1e-9


def test_markov_step_exact():
    scheme = RandomFunctionCommitment(6, 3, num_seeds=10, seed=13)
    for h in scheme_to_hash_family(scheme):
        rep = markov_step_check(scheme, h)
        assert rep.ok
    zero = OpaqueCommitment(4, num_seeds=2, seed=14)
    for h in scheme_to_hash_family(zero):
        rep = markov_step_check(zero, h)
        assert rep.ok and rep.heavy_fraction == 0.0


def test_hiding_distance_computed_once_per_key():
    scheme = RandomFunctionCommitment(4, 2, num_seeds=3, seed=16)
    fam = scheme_to_hash_family(scheme)
    hiding_distance.cache_clear()
    for h in fam:
        col_equivocation_rate(scheme, h)
        markov_step_check(scheme, h)
    assert hiding_distance.cache_info().misses == len(fam)


def test_string_variant_exact_eighth():
    scheme = OpaqueCommitment(4, num_seeds=2, seed=15, ell=3)
    for h in scheme_to_hash_family(scheme):
        rep = string_variant_rate(scheme, h)
        assert rep.collision_rate == pytest.approx(1 / 8, abs=1e-12)
        assert rep.epsilon == 0.0


def test_string_variant_bit_case_matches_complement():
    scheme = OpaqueCommitment(3, num_seeds=1, seed=16, ell=1)
    h = scheme_to_hash_family(scheme).functions[0]
    eq = col_equivocation_rate(scheme, h)
    st = string_variant_rate(scheme, h)
    assert st.collision_rate == pytest.approx(1 - eq.rate, abs=1e-12)


def test_string_variant_clear_text_vacuous():
    scheme = ClearTextCommitment(2, ell=3)
    h = scheme_to_hash_family(scheme).functions[0]
    rep = string_variant_rate(scheme, h)
    assert rep.collision_rate == 1.0
    assert rep.upper_bound >= 1.0


# ------------------------------------------------------------------- reports

def test_commit_reduction_csv_rows():
    # Criterion 5's rows are commit_reduce.csv: one per key, in key order.
    rows = criterion_commit_reduction(18, num_seeds=3, k=4, m=2).rows
    assert len(rows) == 3
    for idx, r in enumerate(rows):
        [fields] = list(csv.reader(io.StringIO(r)))
        assert len(fields) == 5
        assert fields[:2] == ["random-function[k=4,m=2,ell=1]", str(idx)]


@pytest.mark.parametrize("ell, coin_bits, message", [
    (1, -2, "coin_bits must be at least 0, got -2"),
    (1, -1, "coin_bits must be at least 0, got -1"),
    (0, 3, "ell must be at least 1, got 0"),
    (30, -2, "coin_bits must be at least 0, got -2"),  # checked before the cap
])
def test_commitment_refuses_negative_sizes(ell, coin_bits, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        RandomFunctionCommitment(coin_bits, 2, num_seeds=1, ell=ell)
