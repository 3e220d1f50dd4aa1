"""Entropy accounting for block and online generators."""

from collections import Counter

import pytest

from dcrlab import generators
from dcrlab.generators import (
    BlockGenerator,
    GeneratorError,
    OnlineGenerator,
    _sample_entropy_of,
    accessible_entropy,
    check_consistent,
    online_support,
    real_entropy,
)
from dcrlab.entropy_gap import consistent_suite
from dcrlab.hashfam import builtin_families
from dcrlab.probkit import Dist

from reference_laws import lopsided_online, overlapping_online, ref_accessible_entropy

PARITY = (0, 1, 1, 0)  # truth table of 2-bit parity


def identity_generator(seed_bits: int) -> BlockGenerator:
    """One block: G(z, x) = x."""
    return BlockGenerator("identity", (0,), seed_bits, (seed_bits,), lambda z, x: (x,))


def constant_generator(seed_bits: int, out_bits: int = 1) -> BlockGenerator:
    return BlockGenerator("constant", (0,), seed_bits, (out_bits,), lambda z, x: (0,))


def xor_generator(bits: int) -> BlockGenerator:
    """One block: G(z, x) = x xor z with matching parameter and seed length."""
    return BlockGenerator("xor-mask", tuple(range(2**bits)), bits, (bits,),
                          lambda z, x: (z ^ x,))


def coin_echo_online(m_blocks: int, coin_bits: int = 1) -> OnlineGenerator:
    """Emits its own fresh coins: y_i = r_i."""
    return OnlineGenerator("coin-echo", (0,), (2**coin_bits,) * m_blocks,
                           lambda z, coins: coins[-1])


def silent_online(m_blocks: int, coin_bits: int = 1) -> OnlineGenerator:
    """Ignores its coins entirely: y_i = 0."""
    return OnlineGenerator("silent", (0,), (2**coin_bits,) * m_blocks,
                           lambda z, coins: 0)


def parity_two_block() -> BlockGenerator:
    """G(z, x) = (parity(x), x) with a single trivial parameter."""
    return BlockGenerator("parity-2block", (0,), 2, (1, 2),
                          lambda z, x: (PARITY[x], x))


def honest_wrap_parity() -> OnlineGenerator:
    """Draws x with the first block's coins, emits parity(x) then x."""
    return OnlineGenerator(
        "honest-parity", (0,), (4, 1),
        lambda z, coins: PARITY[coins[0]] if len(coins) == 1 else coins[0])


# ------------------------------------------------------------------ real entropy

def test_real_sample_entropy_identity():
    sample_entropy = _sample_entropy_of(identity_generator(3), 0)
    for x in range(8):
        assert sample_entropy((x,)) == pytest.approx(3, abs=1e-12)


def test_real_sample_entropy_constant():
    assert _sample_entropy_of(constant_generator(3), 0)((0,)) == 0.0


def test_real_sample_entropy_parity_prefix():
    sample_entropy = _sample_entropy_of(parity_two_block(), 0)
    # First block carries 1 bit; the seed given parity 0 carries 1 more.
    assert sample_entropy((0,)) == pytest.approx(1, abs=1e-12)
    assert sample_entropy((0, 0)) == pytest.approx(2, abs=1e-12)


def test_real_entropy_toy_generators():
    assert real_entropy(identity_generator(4)) == pytest.approx(4, abs=1e-12)
    assert real_entropy(constant_generator(4)) == pytest.approx(0, abs=1e-12)
    assert real_entropy(xor_generator(3)) == pytest.approx(3, abs=1e-12)
    assert real_entropy(parity_two_block()) == pytest.approx(2, abs=1e-12)


def test_real_entropy_routes_disagreeing_raise(monkeypatch):
    # With every sample-entropy term read as 0 the sample route is 0, while
    # the conditional route of the identity generator is 4.
    monkeypatch.setattr(generators, "_log2_ratio", lambda c, d: 0.0)
    with pytest.raises(AssertionError, match="real-entropy routes disagree"):
        real_entropy(identity_generator(4))


# ------------------------------------------------------------ accessible entropy

def test_accessible_entropy_three_generators():
    assert accessible_entropy(silent_online(3)) == pytest.approx(0, abs=1e-12)
    assert accessible_entropy(coin_echo_online(3)) == pytest.approx(3, abs=1e-12)
    assert accessible_entropy(honest_wrap_parity()) == pytest.approx(1, abs=1e-12)


def test_accessible_entropy_matches_the_materialized_joint_route():
    # The conditional route streams the terms of the (block, context) joint
    # law in that law's order, so it is cond_entropy of the stored law to
    # the last bit.
    gens = [silent_online(3), coin_echo_online(3), honest_wrap_parity()]
    for n in (2, 3, 4, 5):
        for fam in builtin_families(n, num_keys=2, seed=n):
            gens += consistent_suite(fam) + [lopsided_online(fam), overlapping_online(fam)]
    for gt in gens:
        assert accessible_entropy(gt) == ref_accessible_entropy(gt), gt.name


def test_accessible_entropy_routes_disagreeing_raise(monkeypatch):
    # With every per-block sample entropy read as 0 the expectation route
    # is 0, while the conditional route of the coin echo is 3.
    monkeypatch.setattr(generators, "shannon_entropy", lambda law: 0.0)
    with pytest.raises(AssertionError, match="accessible-entropy routes disagree"):
        accessible_entropy(coin_echo_online(3))


# ------------------------------------------------------------------- consistency

def test_honest_wrap_is_consistent():
    assert check_consistent(honest_wrap_parity(), parity_two_block())


def test_wrong_length_block_inconsistent():
    gt = OnlineGenerator("cheat-length", (0,), (4, 1),
                         lambda z, coins: PARITY[coins[0]] if len(coins) == 1 else coins[0] + 4)
    g = parity_two_block()
    assert not check_consistent(gt, g)


def test_mismatched_pair_found_by_enumeration():
    # Emits (y, x) with parity(x) != y on exactly one coin value.
    def block(z, coins):
        if len(coins) == 1:
            return PARITY[coins[0]]
        return coins[0] ^ 1 if coins[0] == 0 else coins[0]

    gt = OnlineGenerator("mismatch", (0,), (4, 1), block)
    g = parity_two_block()
    assert not check_consistent(gt, g)
    bad = [t for t in online_support(gt, 0) if t not in g.support(0)]
    assert bad == [(0, 1)]


def test_accessible_at_most_real_for_consistent_suite():
    g = parity_two_block()
    suite = [honest_wrap_parity(), silent_wrap_parity()]
    for gt in suite:
        assert check_consistent(gt, g)
        assert accessible_entropy(gt) <= real_entropy(g) + 1e-9


def silent_wrap_parity() -> OnlineGenerator:
    """Always outputs the (parity(0), 0) execution; consistent, zero access."""
    return OnlineGenerator("silent-parity", (0,), (1, 1),
                           lambda z, coins: PARITY[0] if len(coins) == 1 else 0)


# ----------------------------------------------------------------------- errors

def test_out_of_range_block_raises():
    g = BlockGenerator("bad", (0,), 1, (1,), lambda z, x: (2,))
    with pytest.raises(GeneratorError):
        g.run(0, 0)


def test_law_requires_enumerable_coin_space():
    # The refusal is not memoized: every call raises.
    gt = OnlineGenerator("huge", (0,), (2**40,), lambda z, coins: 0)
    for _ in range(2):
        with pytest.raises(GeneratorError):
            gt.block_law(0, ())


# ------------------------------------------------------------------ law memo

def test_block_law_is_derived_once_per_prefix():
    # Block two is (z + r1 + r2) mod 2 over three coins: 2/3 vs 1/3 laws.
    gt = OnlineGenerator("sum-mod-2", (0, 1), (2, 3), lambda z, coins: (z + sum(coins)) % 2)
    for z in gt.param_space:
        for prefix in ((), (0,), (1,)):
            law = gt.block_law(z, prefix)
            assert gt.block_law(z, list(prefix)) is law
            space = gt.coin_spaces[len(prefix)]
            fresh = Counter(gt.block(z, prefix + (r,)) for r in range(space))
            assert law == Dist(fresh, denominator=space)


def test_analytic_block_law_is_derived_once_per_prefix():
    calls = []

    def law_fn(z, prefix):
        calls.append((z, prefix))
        return Dist.uniform(range(3))

    gt = OnlineGenerator("analytic", (0,), (2**40,), lambda z, coins: 0, law_fn=law_fn)
    assert gt.block_law(0, ()) is gt.block_law(0, ())
    assert calls == [(0, ())]
