"""Hash families, the ideal collision finder, and the exact game value."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from dcrlab import hashfam
from dcrlab.entropy_gap import RewindingAdversary, consistent_suite, honest_online
from dcrlab.hashfam import (
    Adversary,
    ColAdversary,
    DiagonalAdversary,
    EnumerationCap,
    FixedPairAdversary,
    HashFunction,
    adversary_distribution,
    builtin_families,
    col_distribution,
    col_sample,
    dcrh_distance,
    identity_family,
    mc_ci_half_width,
    preimage_set,
    rng_bigint,
    uniform_random_family,
)
from dcrlab.probkit import BlockLaw, Dist, JointDist, _cap_pairs, _float_masses, stat_distance

from reference_laws import ref_joint_distance, ref_monte_carlo_distribution


class FunctionAdversary(Adversary):
    """Wraps an arbitrary (h, tape) -> pair map over 2^t tapes."""

    def __init__(self, name, tape_bits, fn):
        self.name = name
        self.tape_bits = tape_bits
        self.fn = fn

    def tape_space(self, h):
        return 2**self.tape_bits

    def run(self, h, tape):
        return self.fn(h, tape)


def parity_fn(n=2):
    table = tuple(bin(x).count("1") % 2 for x in range(2**n))
    return HashFunction(n=n, m=1, table=table, key="parity")


def test_hash_is_the_field_tuple_hash():
    # The hash taken once per object is the one the dataclass would take.
    for h in [parity_fn(), *identity_family(3), *uniform_random_family(3, 2, seed=1)]:
        assert hash(h) == hash((h.n, h.m, h.table, h.key))
    assert len({parity_fn(), parity_fn()}) == 1


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


def test_fiber_laws_made_on_first_use_and_shared_by_col():
    h = HashFunction(n=3, m=2, table=(0, 1, 1, 2, 2, 2, 3, 0), key="fiber-laws")
    assert "fiber_laws" not in vars(h)
    assert h.fiber_laws == {y: Dist.uniform(fiber) for y, fiber in h.fibers.items()}
    _, conditionals = col_distribution(h).marginal_and_conditionals()
    assert all(conditionals[x] is h.fiber_laws[h(x)] for x in range(2**h.n))


def test_cap_enforced():
    with pytest.raises(EnumerationCap):
        identity_family(21)


@pytest.mark.parametrize("make", [hashfam.constant_family, hashfam.affine_family,
                                  hashfam.uniform_random_family, hashfam.degree2_family],
                         ids=lambda make: make.__name__)
@pytest.mark.parametrize("num_keys", [0, -1])
def test_seeded_families_refuse_no_keys(make, num_keys):
    with pytest.raises(ValueError, match=f"^num_keys must be at least 1, got {num_keys}$"):
        make(3, 2, num_keys=num_keys)


def test_pair_domain_cap_enforced():
    # Col and the exact adversary laws are product blocks, so n = 11 is no
    # longer refused.  Writing the pairs out is capped at 2^20 pairs in
    # all, counted from the block supports before the first pair is made.
    h = HashFunction(n=11, m=1, table=(0,) * 2**11)
    col = col_distribution(h)
    assert col.support_size() == 4**11
    assert adversary_distribution(FixedPairAdversary((0, 0)), h) == Dist.point((0, 0))
    for write in [col.joint, lambda: _float_masses(col)]:
        tracemalloc.start()
        with pytest.raises(EnumerationCap, match=r"^4194304 pairs exceed 2\^20$"):
            write()
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 2**20  # 4^11 written pairs would take hundreds of MiB
    _cap_pairs([(1, Dist.uniform(range(1024)))])
    with pytest.raises(EnumerationCap, match=r"^1049801 pairs exceed 2\^20$"):
        _cap_pairs([(1, Dist.uniform(range(725))), (1, Dist.uniform(range(725, 1449)))])


@pytest.mark.parametrize("bad", [-1, 4, float("nan")], ids=["negative", "two-to-the-m", "nan"])
@pytest.mark.parametrize("where", [0, 3, 7])
def test_table_entry_outside_output_range_raises(bad, where):
    table = [1] * 8
    table[where] = bad
    with pytest.raises(ValueError, match="^table entry outside output range$"):
        HashFunction(n=3, m=2, table=tuple(table))


# ------------------------------------------------------------- col distribution

def test_col_identity_uniform_diagonal():
    h = identity_family(3).functions[0]
    d = col_distribution(h).joint()
    assert set(d.support()) == {(x, x) for x in range(8)}
    assert all(p == Fraction(1, 8) for _, p in d.items())


def test_col_constant_uniform_pairs():
    h = HashFunction(n=2, m=1, table=(0, 0, 0, 0))
    d = col_distribution(h).joint()
    assert len(d.support()) == 16
    assert all(p == Fraction(1, 16) for _, p in d.items())


def test_col_parity_eight_pairs():
    d = col_distribution(parity_fn()).joint()
    assert len(d.support()) == 8
    assert all(p == Fraction(1, 8) for _, p in d.items())


def test_col_marginal_uniform_and_fiber_conditionals():
    # First coordinate uniform; given x1, second uniform on h^-1(h(x1)).
    # Exact for every x1 of every toy family up to n = 8, read off the
    # blocks without the pairs.
    for n in (2, 5, 8):
        for fam in builtin_families(n, num_keys=2, seed=4):
            for h in fam:
                marg, conds = col_distribution(h).marginal_and_conditionals()
                assert all(p == Fraction(1, 2**h.n) for _, p in marg.items())
                assert len(marg.support()) == 2**h.n
                assert list(conds) == list(marg.support())
                for x1 in range(2**h.n):
                    fiber = preimage_set(h, h(x1))
                    cond = conds[x1]
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
    expected = col_distribution(h).joint()
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

def test_exact_mode_reads_a_supplied_law_once_without_runs():
    class CountingCol(ColAdversary):
        laws = runs = 0

        def exact_distribution(self, h):
            self.laws += 1
            return super().exact_distribution(h)

        def run(self, h, tape):
            self.runs += 1
            return super().run(h, tape)

    h = identity_family(2).functions[0]  # tape space 4
    adv = CountingCol()
    assert adversary_distribution(adv, h) == col_distribution(h)
    assert (adv.laws, adv.runs) == (1, 0)


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


@pytest.mark.parametrize("mode", ["exact", "monte-carlo"])
@pytest.mark.parametrize("pair", [(0, 2**3), (-1, 0)])
def test_adversary_output_outside_pair_range_raises(mode, pair):
    h = identity_family(3).functions[0]
    rng = np.random.default_rng(0) if mode == "monte-carlo" else None
    with pytest.raises(ValueError):
        adversary_distribution(FixedPairAdversary(pair), h, mode=mode, samples=10, rng=rng)


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


def per_sample_distribution(a, h, samples, rng):
    """The Monte-Carlo law by one draw and one ``run`` per sample: the
    reference for the draw-once, run-each-distinct-tape path."""
    space = a.tape_space(h)
    counts = {}
    for _ in range(samples):
        t = int(rng.integers(space)) if space <= 2**63 else rng_bigint(rng, space)
        out = a.run(h, t)
        counts[out] = counts.get(out, 0) + 1
    return JointDist({pair: c / samples for pair, c in counts.items()})


class WideTapeAdversary(Adversary):
    """A tape space above 2^63, so tapes are drawn one at a time."""

    name = "wide-tape"

    def tape_space(self, h):
        return 2**64 + 5

    def run(self, h, tape):
        return tape % 2**h.n, (tape >> 60) % 2**h.n


def monte_carlo_adversary(name, fam):
    return {"ideal-col": ColAdversary, "diagonal": DiagonalAdversary,
            "fixed": lambda: FixedPairAdversary((1, 2)),
            "rewind": lambda: RewindingAdversary(honest_online(fam), fam),
            "wide-tape": WideTapeAdversary}[name]()


@pytest.mark.parametrize("seed", [5, 2024])
@pytest.mark.parametrize("name", ["ideal-col", "diagonal", "fixed", "rewind", "wide-tape"])
def test_monte_carlo_matches_per_sample_loop(seed, name):
    fam = uniform_random_family(3, 2, num_keys=2, seed=12)
    a, h = monte_carlo_adversary(name, fam), fam.functions[0]
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    d = adversary_distribution(a, h, mode="monte-carlo", samples=3000, rng=rng)
    ref = per_sample_distribution(a, h, 3000, ref_rng)
    assert list(d.items()) == list(ref.items())
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert rng.integers(2**40) == ref_rng.integers(2**40)


@pytest.mark.parametrize("n", range(1, 9))
def test_tape_runners_equal_run_on_every_tape(n):
    for fam in builtin_families(n, num_keys=2, seed=n):
        for a in (ColAdversary(), DiagonalAdversary()):
            for h in fam:
                space = a.tape_space(h)
                expected = [a.run(h, t) for t in range(space)]
                got = list(a.run_tapes(h, np.arange(space)))
                assert got == expected, (fam.name, a.name)
                assert {type(x) for pair in got for x in pair} == {int}
                assert list(a.run_tapes(h, range(space))) == expected
                tapes = np.random.default_rng(n).integers(space, size=50)
                assert list(a.run_tapes(h, tapes)) == [a.run(h, t) for t in tapes.tolist()]


@pytest.mark.parametrize("m", [63, 64, 70])
def test_col_tape_runner_on_outputs_beyond_int64(m):
    # Outputs near 2^(m-1) beside small ones: as one numpy array, m = 64
    # turns them to float64 and merges fibers that differ in the low bits.
    table = tuple(2**(m - 1) + x % 3 if x % 5 else x % 2 for x in range(16))
    h = HashFunction(4, m, table)
    a = ColAdversary()
    space = a.tape_space(h)
    assert list(a.run_tapes(h, np.arange(space))) == [a.run(h, t) for t in range(space)]


@pytest.mark.parametrize("n", range(1, 9))
def test_monte_carlo_matches_run_per_distinct_tape(n):
    # Both tape runners, the default one and a tape space above 2^63 (one
    # ``run`` per drawn tape): the same items, in the same order, and the
    # same rng state after.
    for fam in builtin_families(n, num_keys=1, seed=n):
        h = fam.functions[0]
        for a in (ColAdversary(), DiagonalAdversary(), FixedPairAdversary((1, 0)),
                  WideTapeAdversary()):
            rng, ref_rng = np.random.default_rng(n), np.random.default_rng(n)
            d = adversary_distribution(a, h, mode="monte-carlo", samples=3000, rng=rng)
            ref = ref_monte_carlo_distribution(a, h, 3000, ref_rng)
            assert list(d.items()) == list(ref.items()), (fam.name, a.name)
            assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_monte_carlo_runs_each_distinct_tape_once():
    # The echo finder at n = 3 has 8 tapes; one run per sample made 2,000
    # calls.  It has no tape runner of its own, so each tape is one ``run``.
    calls = []
    a = FunctionAdversary("echo", 3, lambda h, tape: calls.append(tape) or (tape, tape))
    h = identity_family(3).functions[0]
    adversary_distribution(a, h, mode="monte-carlo", samples=2000,
                           rng=np.random.default_rng(1))
    assert sorted(calls) == list(range(8))


def test_monte_carlo_sample_count_capped_before_drawing():
    # 10^10 draws would need 80 GB of tapes; the cap fires before any draw.
    h = identity_family(2).functions[0]
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    with pytest.raises(EnumerationCap, match=f"exceed 2\\^{hashfam.TAPE_CAP_BITS}"):
        adversary_distribution(DiagonalAdversary(), h, mode="monte-carlo",
                               samples=10**10, rng=rng)
    assert rng.bit_generator.state == state


# ------------------------------------------------------------------- game value

def test_game_value_ideal_adversary_is_zero():
    for fam in builtin_families(3, seed=1):
        rep = dcrh_distance(fam, ColAdversary())
        assert rep.distance == 0


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
    col = col_distribution(h).joint()
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


def test_monte_carlo_interval_coverage_over_game_grid():
    """Coverage of the 99% interval against the exact game value over the
    five stock families at n = 3 and 4, against Col, Diagonal and the four
    rewinding adversaries, 20 rng seeds each: 1,200 reports."""
    reports = misses = 0
    worst = 0.0
    for n in (3, 4):
        for fam in builtin_families(n, seed=n):
            adversaries = [ColAdversary(), DiagonalAdversary()]
            adversaries += [RewindingAdversary(gt, fam) for gt in consistent_suite(fam)]
            for adversary in adversaries:
                exact = dcrh_distance(fam, adversary).distance
                for s in range(20):
                    mc = dcrh_distance(fam, adversary, mode="monte-carlo", samples=2_000,
                                       rng=np.random.default_rng(1000 + s))
                    ratio = abs(mc.distance - exact) / mc.ci_half_width
                    reports += 1
                    misses += ratio > 1
                    worst = max(worst, ratio)
    assert reports == 1_200
    assert misses <= reports // 100, (misses, worst)


def test_ci_half_width_shrinks():
    assert mc_ci_half_width(40_000, 64) < mc_ci_half_width(10_000, 64)


def materialized(law):
    return law.joint() if isinstance(law, BlockLaw) else law


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_joint_sum_matches_tagged_mixture_route(n):
    for fam in builtin_families(n, seed=n):
        # The fixed pair's support differs from Col's on every family.
        advs = [ColAdversary(), DiagonalAdversary(), FixedPairAdversary((0, 1))]
        advs += [RewindingAdversary(gt, fam) for gt in consistent_suite(fam)]
        for a in advs:
            laws = [(adversary_distribution(a, h), col_distribution(h)) for h in fam]
            joint = hashfam._joint_distance(laws)
            pairs = [(materialized(p), materialized(q)) for p, q in laws]
            assert joint == ref_joint_distance(pairs), (fam.name, a.name)
            assert joint == sum(stat_distance(p, q) for p, q in laws) / len(laws)


def test_non_compressing_families_allowed():
    fam = uniform_random_family(3, 5, num_keys=2, seed=10)  # m > n
    assert fam.m == 5
    rep = dcrh_distance(fam, ColAdversary())
    assert rep.distance == 0

