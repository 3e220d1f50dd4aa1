"""The distance-vs-entropy-gap chain, checked link by link."""

import math
from fractions import Fraction

import pytest

from dcrlab import entropy_gap
from dcrlab.entropy_gap import (
    TOL,
    ConsistencyError,
    RewindingAdversary,
    _first_block_kl,
    _second_block_kl,
    build_two_block_generator,
    collision_rate,
    consistent_suite,
    gap_bound_report,
    honest_online,
    ideal_online,
    lazy_online,
    mismatched_online,
)
from dcrlab.generators import (
    OnlineGenerator,
    accessible_entropy,
    check_consistent,
    real_entropy,
)
from dcrlab.hashfam import (
    ColAdversary,
    HashFamily,
    HashFunction,
    adversary_distribution,
    builtin_families,
    col_distribution,
    constant_family,
    dcrh_distance,
    identity_family,
    uniform_random_family,
)
from dcrlab.probkit import BlockLaw, JointDist, stat_distance

from reference_laws import lopsided_online, overlapping_online, ref_rewound_law, ref_row_pass


def parity_family(n=2) -> HashFamily:
    table = tuple(bin(x).count("1") % 2 for x in range(2**n))
    return HashFamily("parity", [HashFunction(n=n, m=1, table=table, key="p")])


def cheating_length_online(family: HashFamily) -> OnlineGenerator:
    """Emits an out-of-range second block; never consistent."""
    def block(h, coins):
        return h(coins[0]) if len(coins) == 1 else coins[0] + 2**family.n
    return OnlineGenerator("cheating-length", family.functions, (2**family.n, 1), block)


def per_tape_distribution(adv, h) -> JointDist:
    """The output law by one ``run`` per tape: the reference every law an
    adversary supplies is checked against."""
    counts = {}
    space = adv.tape_space(h)
    for t in range(space):
        out = adv.run(h, t)
        counts[out] = counts.get(out, 0) + 1
    return JointDist(counts, denominator=space)


def kl1_check(gt, family):
    """``_first_block_kl`` of the rewound generator against its entropy gap."""
    return _first_block_kl(RewindingAdversary(gt, family), family.n - accessible_entropy(gt))


def kl2_check(gt, family):
    """``_second_block_kl`` of the rewound generator against its entropy gap."""
    return _second_block_kl(RewindingAdversary(gt, family), family.n - accessible_entropy(gt))


# ------------------------------------------------------------ two-block builder

def test_two_block_identity_family():
    fam = identity_family(3)
    g = build_two_block_generator(fam)
    h = fam.functions[0]
    assert g.run(h, 5) == (5, 5)
    assert real_entropy(g) == pytest.approx(3, abs=1e-12)


def test_two_block_constant_family():
    fam = constant_family(3, 3, num_keys=2, seed=0)
    g = build_two_block_generator(fam)
    h = fam.functions[0]
    assert g.run(h, 6) == (h(0), 6)
    assert real_entropy(g) == pytest.approx(3, abs=1e-12)


def test_two_block_parity_real_entropy():
    g = build_two_block_generator(parity_family())
    assert real_entropy(g) == pytest.approx(2, abs=1e-12)


def test_real_entropy_is_n_across_families():
    for n in (2, 3, 4):
        for fam in builtin_families(n, num_keys=2, seed=n):
            g = build_two_block_generator(fam)
            assert real_entropy(g) == pytest.approx(n, abs=1e-9), fam.name


# ------------------------------------------------------------------ consistency

def test_suite_is_consistent_and_cheaters_are_not():
    fam = parity_family()
    g = build_two_block_generator(fam)
    for gt in consistent_suite(fam):
        assert check_consistent(gt, g), gt.name
    assert not check_consistent(cheating_length_online(fam), g)
    assert not check_consistent(mismatched_online(fam), g)


def test_consistency_check_reads_the_memoized_laws():
    # accessible_entropy fills the generator's law memo first; the check
    # must still find the mismatched tape from the memoized laws.
    fam = uniform_random_family(3, 2, num_keys=2, seed=8)
    gt = mismatched_online(fam)
    accessible_entropy(gt)
    assert gt._law_cache
    assert not check_consistent(gt, build_two_block_generator(fam))


def test_rewinding_rejects_inconsistent_generator():
    fam = parity_family()
    with pytest.raises(ConsistencyError):
        RewindingAdversary(mismatched_online(fam), fam)


# ------------------------------------------------------------------- rewinding

def test_ideal_generator_matches_col_exactly():
    for fam in builtin_families(3, num_keys=2, seed=5):
        adv = RewindingAdversary(ideal_online(fam), fam)
        for h in fam:
            assert adv.exact_distribution(h) == col_distribution(h)
            assert stat_distance(adv.exact_distribution(h), col_distribution(h)) == 0


def test_ideal_generator_shares_one_law_per_fiber():
    # Grouping the first-block coins by their law hashes one law per
    # fiber, not one per coin: the key's own uniform law on that fiber.
    fam = uniform_random_family(4, 2, num_keys=2, seed=3)
    gt = ideal_online(fam)
    for h in fam:
        laws = {}
        for r in range(2**h.n):
            law = gt.block_law(h, (r,))
            assert laws.setdefault(h(r), law) is law is h.fiber_laws[h(r)]
        assert len(laws) == len(h.fibers)


def test_ideal_accessible_entropy_equals_n():
    # H(h(U)) + E_y log|h^-1(y)| telescopes to n, by enumeration.
    for fam in builtin_families(3, num_keys=2, seed=6):
        assert accessible_entropy(ideal_online(fam)) == pytest.approx(fam.n, abs=1e-9)


def test_honest_generator_outputs_diagonal():
    fam = parity_family()
    adv = RewindingAdversary(honest_online(fam), fam)
    d = adv.exact_distribution(fam.functions[0]).joint()
    assert all(x1 == x2 for (x1, x2) in d.support())


def test_lazy_generator_point_mass_per_key():
    fam = constant_family(3, 2, num_keys=3, seed=2)
    adv = RewindingAdversary(lazy_online(fam), fam)
    for h in fam:
        assert adv.exact_distribution(h).support_size() == 1


def test_exact_laws_match_per_tape_reference():
    # The game reads each law an adversary supplies; here every such law
    # meets one ``run`` per tape.
    toys = [parity_family(), identity_family(3), constant_family(2, 1, num_keys=1)]
    fams = toys + [fam for n in (1, 2, 3, 4) for seed in (0, 1)
                   for fam in builtin_families(n, num_keys=2, seed=seed)]
    for fam in fams:
        gens = consistent_suite(fam) + [lopsided_online(fam), overlapping_online(fam)]
        advs = [ColAdversary()] + [RewindingAdversary(gt, fam) for gt in gens]
        # Its pairs can leave the fiber of x1.
        advs.append(RewindingAdversary(mismatched_online(fam), fam, _checked=True))
        for adv in advs:
            for h in fam:
                law = adversary_distribution(adv, h)
                assert law == per_tape_distribution(adv, h), (fam.name, adv.name)


def test_game_calls_no_block_once_the_block_terms_built_the_law():
    # _first_block_kl builds the rewound law of each key; the game then
    # reads that law and runs no block of the generator.
    fam = uniform_random_family(4, 3, num_keys=2, seed=4)
    gt = honest_online(fam)
    adv = RewindingAdversary(gt, fam)
    _first_block_kl(adv, fam.n - accessible_entropy(gt))
    calls = 0
    block_fn = gt.block_fn

    def counting_block(z, coins):
        nonlocal calls
        calls += 1
        return block_fn(z, coins)

    gt.block_fn = counting_block
    dcrh_distance(fam, adv)
    assert calls == 0


def test_block_terms_build_each_first_marginal_once(monkeypatch):
    # Both divergence terms read the X1 marginal and the X2 conditionals of
    # each key's rewound law off its blocks: one law and one marginal per
    # key, not one per term, and no pair of the law is materialized.
    fam = uniform_random_family(3, 2, num_keys=3, seed=5)
    gt = honest_online(fam)
    adv = RewindingAdversary(gt, fam)
    gap = fam.n - accessible_entropy(gt)
    laws = 0
    rewound = RewindingAdversary._rewound_law

    def counting_law(self, h):
        nonlocal laws
        laws += 1
        return rewound(self, h)

    def no_pairs(*args):
        raise AssertionError("pairs materialized")

    monkeypatch.setattr(RewindingAdversary, "_rewound_law", counting_law)
    monkeypatch.setattr(BlockLaw, "joint", no_pairs)
    monkeypatch.setattr(JointDist, "marginal_and_conditionals", no_pairs)
    _first_block_kl(adv, gap)
    _second_block_kl(adv, gap)
    assert laws == len(fam)
    for h in fam:
        law = adv.exact_distribution(h)
        assert law.marginal_and_conditionals()[0] is law.marginal_and_conditionals()[0]
    monkeypatch.undo()
    for h in fam:
        first = adv.exact_distribution(h).marginal_and_conditionals()[0]
        assert list(first.counts) == list(ref_row_pass(ref_rewound_law(gt, h))[0].counts)


def test_collision_rate_is_one_for_consistent_suite():
    fam = uniform_random_family(3, 2, num_keys=2, seed=8)
    for gt in consistent_suite(fam):
        assert collision_rate(RewindingAdversary(gt, fam)) == 1


# ------------------------------------------------------------- per-term bounds

def test_first_block_kl_ideal_is_zero():
    fam = uniform_random_family(3, 2, num_keys=2, seed=1)
    assert kl1_check(ideal_online(fam), fam) == pytest.approx(0, abs=1e-9)


def test_first_block_kl_honest_on_constant_is_zero():
    fam = constant_family(3, 3, num_keys=2, seed=4)
    assert kl1_check(honest_online(fam), fam) == pytest.approx(0, abs=1e-9)


def test_first_block_kl_lazy_identity_equals_gap():
    fam = identity_family(3)
    gt = lazy_online(fam)
    gap = fam.n - accessible_entropy(gt)
    assert gap == pytest.approx(3, abs=1e-9)
    assert _first_block_kl(RewindingAdversary(gt, fam), gap) == pytest.approx(3, abs=1e-9)


def test_first_block_kl_routes_disagreeing_raise(monkeypatch):
    # With every entropy read as 0 the entropy route is n, while the ideal
    # generator's direct divergence from uniform is 0.
    fam = uniform_random_family(3, 2, num_keys=2, seed=1)
    monkeypatch.setattr(entropy_gap, "shannon_entropy", lambda d: 0.0)
    with pytest.raises(AssertionError, match="first-block KL routes disagree"):
        kl1_check(ideal_online(fam), fam)


def test_second_block_kl_ideal_is_zero():
    fam = uniform_random_family(3, 2, num_keys=2, seed=3)
    assert kl2_check(ideal_online(fam), fam) == pytest.approx(0, abs=1e-9)


def test_second_block_kl_honest_parity_one_bit():
    assert kl2_check(honest_online(parity_family()), parity_family()) == pytest.approx(1, abs=1e-9)


def test_second_block_kl_routes_disagreeing_raise(monkeypatch):
    # With every entropy read as 0 the entropy route is E log2 |fiber| > 0,
    # while the ideal generator's direct divergence is 0.
    fam = uniform_random_family(3, 2, num_keys=2, seed=3)
    monkeypatch.setattr(entropy_gap, "shannon_entropy", lambda d: 0.0)
    with pytest.raises(AssertionError, match="second-block KL routes disagree"):
        kl2_check(ideal_online(fam), fam)


def test_second_block_kl_identity_always_zero():
    fam = identity_family(3)
    for gt in consistent_suite(fam):
        assert kl2_check(gt, fam) == pytest.approx(0, abs=1e-9)


# ------------------------------------------------------------------ gap reports

def test_gap_report_ideal_all_zero():
    for fam in builtin_families(3, num_keys=2, seed=7):
        rep = gap_bound_report(ideal_online(fam), fam)
        assert rep.gap == pytest.approx(0, abs=1e-9)
        assert rep.distance <= 1e-9
        assert rep.bound == pytest.approx(0, abs=1e-6)


def test_gap_report_lazy_on_constant_n3():
    # Oracle: Col(constant) is uniform over all 64 pairs; the lazy adversary
    # is a point mass, so TV = (1/2)(|1 - 1/64| + 63/64) = 63/64.
    fam = HashFamily("const0", [HashFunction(n=3, m=3, table=(0,) * 8, key=0)])
    adv = RewindingAdversary(lazy_online(fam), fam)
    d = adv.exact_distribution(fam.functions[0]).joint()
    col = col_distribution(fam.functions[0]).joint()
    direct = sum(abs(d.prob((a, b)) - col.prob((a, b)))
                 for a in range(8) for b in range(8)) / 2
    assert direct == Fraction(63, 64)

    rep = gap_bound_report(lazy_online(fam), fam)
    assert rep.gap == pytest.approx(3, abs=1e-9)
    assert rep.distance == pytest.approx(63 / 64, abs=1e-12)
    assert rep.bound >= rep.distance


def test_gap_report_sweep_small():
    for n in (2, 3, 4):
        for fam in builtin_families(n, num_keys=2, seed=n + 1):
            for gt in consistent_suite(fam):
                rep = gap_bound_report(gt, fam, tol=1e-6)
                assert rep.headline_ok


def test_threshold_arithmetic():
    # With q = 4 p^2, a gap at or below 1/q forces the bound to at most
    # 2 sqrt(1/q) = 1/p.
    fam = identity_family(3)
    rep = gap_bound_report(ideal_online(fam), fam)
    # Zero gap: any positive threshold passes, including very tight ones.
    for p_inv in (0.01, 0.5):
        assert rep.gap <= p_inv**2 / 4
        assert rep.bound <= p_inv + TOL
    rep_lazy = gap_bound_report(lazy_online(fam), fam)
    # Gap 3 is far above 1/q for p_inv = 0.5, so the implication is vacuous.
    assert rep_lazy.gap > 0.5**2 / 4
    assert rep_lazy.bound <= 2 * math.sqrt(rep_lazy.gap) + TOL


def test_csv_row_format():
    fam = identity_family(2)
    rep = gap_bound_report(honest_online(fam), fam)
    row = rep.csv_row()
    assert row.startswith("identity[n=2],honest,2,")
    assert len(row.split(",")) == 8
