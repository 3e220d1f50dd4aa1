"""Hash families, the ideal collision finder, and the exact game value."""

from fractions import Fraction

import numpy as np
import pytest

from dcrlab.hashfam import (
    ColAdversary,
    DiagonalAdversary,
    EnumerationCap,
    FixedPairAdversary,
    FunctionAdversary,
    HashFunction,
    adversary_distribution,
    builtin_families,
    col_distribution,
    col_sample,
    constant_family,
    dcrh_distance,
    identity_family,
    mc_ci_half_width,
    preimage_set,
    uniform_random_family,
)
from dcrlab.probkit import stat_distance


def parity_fn(n=2):
    table = tuple(bin(x).count("1") % 2 for x in range(2**n))
    return HashFunction(n=n, m=1, table=table, key="parity")


# ---------------------------------------------------------------- preimage sets

def test_preimage_identity():
    h = identity_family(3).functions[0]
    for y in range(8):
        assert preimage_set(h, y) == (y,)


def test_preimage_constant():
    h = HashFunction(n=3, m=2, table=(1,) * 8, key=None)
    assert preimage_set(h, 1) == tuple(range(8))
    assert preimage_set(h, 0) == ()


def test_preimage_parity():
    assert preimage_set(parity_fn(), 0) == (0, 3)
    assert preimage_set(parity_fn(), 1) == (1, 2)


def test_preimages_partition_inputs():
    rng = np.random.default_rng(3)
    for fam in builtin_families(4, seed=9):
        for h in fam:
            seen = []
            for y in range(2**h.m):
                seen.extend(preimage_set(h, y))
            assert sorted(seen) == list(range(2**h.n))


def test_cap_enforced():
    with pytest.raises(EnumerationCap):
        identity_family(21)


# ------------------------------------------------------------- col distribution

def test_col_identity_uniform_diagonal():
    h = identity_family(3).functions[0]
    d = col_distribution(h)
    assert set(d.support()) == {(x, x) for x in range(8)}
    assert all(p == Fraction(1, 8) for _, p in d.items())


def test_col_constant_uniform_pairs():
    h = HashFunction(n=2, m=1, table=(0, 0, 0, 0))
    d = col_distribution(h)
    assert len(d.support()) == 16
    assert all(p == Fraction(1, 16) for _, p in d.items())


def test_col_parity_eight_pairs():
    d = col_distribution(parity_fn())
    assert len(d.support()) == 8
    assert all(p == Fraction(1, 8) for _, p in d.items())


def test_col_marginal_uniform_and_fiber_conditionals():
    # First coordinate uniform; given x1, second uniform on h^-1(h(x1)).
    # Exact for every toy family up to n = 8 (spot-checking three x1 per
    # key at the larger sizes keeps the run short without sampling).
    for n in (2, 5, 8):
        for fam in builtin_families(n, num_keys=2, seed=4):
            for h in fam:
                d = col_distribution(h)
                marg = d.marginal(0)
                assert all(p == Fraction(1, 2**h.n) for _, p in marg.items())
                assert len(marg.support()) == 2**h.n
                for x1 in (0, 1, 2**h.n - 1):
                    fiber = preimage_set(h, h(x1))
                    cond = d.conditional(0, x1)
                    assert set(cond.support()) == set(fiber)
                    assert all(p == Fraction(1, len(fiber)) for _, p in cond.items())


def test_col_sample_consistency_and_chisquare():
    rng = np.random.default_rng(2024)
    h = parity_fn()
    for _ in range(200):
        x1, x2 = col_sample(h, rng)
        assert h(x1) == h(x2)

    # Chi-square of 1e5 samples from a constant function against the exact
    # uniform law over all 16 pairs; statistic stays within 3 sigma of its
    # mean (df) under the null.
    h = HashFunction(n=2, m=1, table=(1, 1, 1, 1))
    expected = col_distribution(h)
    counts = {}
    trials = 100_000
    for _ in range(trials):
        pair = col_sample(h, rng)
        counts[pair] = counts.get(pair, 0) + 1
    stat = sum(
        (counts.get(pair, 0) - trials * float(p)) ** 2 / (trials * float(p))
        for pair, p in expected.items()
    )
    df = len(expected.support()) - 1
    assert stat <= df + 3 * (2 * df) ** 0.5


# ----------------------------------------------------------------- adversaries

def test_col_adversary_matches_col_distribution():
    for fam in builtin_families(3, seed=7):
        for h in fam:
            adv = adversary_distribution(ColAdversary(), h)
            assert stat_distance(adv, col_distribution(h)) == 0


def test_analytic_law_built_only_beyond_enum_threshold():
    class CountingCol(ColAdversary):
        calls = 0

        def exact_distribution(self, h):
            self.calls += 1
            return super().exact_distribution(h)

    h = identity_family(2).functions[0]  # tape space 4
    below, above = CountingCol(), CountingCol()
    assert adversary_distribution(below, h, enum_threshold=4) == col_distribution(h)
    assert below.calls == 0
    assert adversary_distribution(above, h, enum_threshold=3) == col_distribution(h)
    assert above.calls == 1


def test_col_adversary_reads_fiber_lcm_once_per_key(monkeypatch):
    table = tuple(int(v) for v in np.random.default_rng(21).integers(0, 8, size=16))
    h = HashFunction(n=4, m=3, table=table, key="fiber-lcm-once")
    adv = ColAdversary()
    rng = np.random.default_rng(22)
    computed = []
    prop = HashFunction.__dict__["fiber_lcm"]
    compute = prop.func
    monkeypatch.setattr(prop, "func", lambda g: computed.append(g.key) or compute(g))
    space = adv.tape_space(h)
    for _ in range(1000):
        x1, x2 = adv.run(h, int(rng.integers(space)))
        assert h(x1) == h(x2)
    assert computed == ["fiber-lcm-once"]


def test_fixed_pair_adversary_point_mass():
    h = identity_family(3).functions[0]
    d = adversary_distribution(FixedPairAdversary((0, 0)), h)
    assert d.prob((0, 0)) == 1


def test_tape_echo_adversary_on_identity():
    # Outputting (tape, tape) on the identity function reproduces Col exactly.
    h = identity_family(3).functions[0]
    a = FunctionAdversary("echo", 3, lambda hh, t: (t, t))
    assert stat_distance(adversary_distribution(a, h), col_distribution(h)) == 0


def test_monte_carlo_mode_has_sample_count():
    h = parity_fn()
    rng = np.random.default_rng(8)
    d = adversary_distribution(DiagonalAdversary(), h, mode="monte-carlo", samples=2000, rng=rng)
    assert not d.exact
    assert abs(sum(float(p) for _, p in d.items()) - 1) < 1e-9


# ------------------------------------------------------------------- game value

def test_game_value_ideal_adversary_is_zero():
    for fam in builtin_families(3, seed=1):
        rep = dcrh_distance(fam, ColAdversary())
        assert rep.distance == 0
        assert all(v == 0 for v in rep.per_h.values())


def test_game_value_fixed_pair_on_identity():
    # Col(identity) is uniform over 8 diagonal pairs; distance of a point
    # mass is 1 - 1/8.
    rep = dcrh_distance(identity_family(3), FixedPairAdversary((0, 0)))
    assert rep.distance == pytest.approx(7 / 8, abs=1e-15)


def test_game_value_diagonal_on_parity():
    # Oracle: direct (1/2) sum |.| over all 16 pairs.
    h = parity_fn()
    fam_like = [h]
    adv = adversary_distribution(DiagonalAdversary(), h)
    col = col_distribution(h)
    direct = sum(
        abs(adv.prob((a, b)) - col.prob((a, b))) for a in range(4) for b in range(4)
    ) / 2
    assert direct == Fraction(1, 2)

    class ParityFamily:
        name, n, m, functions = "parity", 2, 1, (h,)

        def __iter__(self):
            return iter(self.functions)

        def __len__(self):
            return 1

    rep = dcrh_distance(ParityFamily(), DiagonalAdversary())
    assert rep.distance == pytest.approx(0.5, abs=1e-15)


def test_monte_carlo_distance_within_ci():
    rng = np.random.default_rng(55)
    fam = uniform_random_family(3, 2, num_keys=2, seed=12)
    exact = dcrh_distance(fam, DiagonalAdversary())
    mc = dcrh_distance(fam, DiagonalAdversary(), mode="monte-carlo", samples=20_000, rng=rng)
    assert abs(mc.distance - exact.distance) <= mc.ci_half_width


def test_monte_carlo_interval_covers_exact_distance():
    """Coverage of the Monte-Carlo interval against the exact game value:
    every (family, adversary) pair at n = 4, each over 20 fixed rng seeds."""
    families = builtin_families(4, num_keys=2, seed=3)
    for fam in families:
        for adversary in (ColAdversary(), DiagonalAdversary()):
            exact = dcrh_distance(fam, adversary).distance
            for seed in range(20):
                mc = dcrh_distance(fam, adversary, mode="monte-carlo", samples=2_000,
                                   rng=np.random.default_rng(seed))
                assert abs(mc.distance - exact) <= mc.ci_half_width, (fam.name, adversary.name,
                                                                      seed)


def test_ci_half_width_shrinks():
    assert mc_ci_half_width(40_000, 64) < mc_ci_half_width(10_000, 64)


def test_game_report_threshold_field():
    rep = dcrh_distance(constant_family(2, 2, num_keys=2, seed=0), ColAdversary(), p_inv=0.25)
    assert rep.p_inv == 0.25
    assert rep.beats_threshold is True


def test_per_key_values_average_to_distance():
    fam = uniform_random_family(3, 2, num_keys=4, seed=6)
    rep = dcrh_distance(fam, DiagonalAdversary())
    assert sum(rep.per_h.values()) / len(rep.per_h) == pytest.approx(rep.distance, abs=1e-12)
    assert rep.joint_equality_gap <= 1e-12


def test_non_compressing_families_allowed():
    fam = uniform_random_family(3, 5, num_keys=2, seed=10)  # m > n
    assert fam.m == 5
    rep = dcrh_distance(fam, ColAdversary())
    assert rep.distance == 0

