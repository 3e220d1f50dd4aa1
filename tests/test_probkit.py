"""Distribution arithmetic: identities, inequalities, metric axioms."""

import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from dcrlab.probkit import (
    Dist,
    JointDist,
    cond_entropy,
    jensen_log2_check,
    kl_chain_rule_check,
    kl_divergence,
    mixture,
    pinsker_check,
    shannon_entropy,
    stat_distance,
)


def test_equal_exact_and_float_laws_hash_equal_after_the_cache():
    # A law's hash is taken once and kept: a second hash, and the hash of
    # an equal law of the other kind, still match the Fraction mapping's.
    exact = Dist({0: 1, 1: 3}, denominator=4)
    floats = Dist({0: 0.25, 1: 0.75})
    first = (hash(exact), hash(floats))
    assert exact == floats
    assert first == (hash(exact), hash(floats))
    assert hash(exact) == hash(floats) == hash(frozenset({0: Fraction(1, 4),
                                                          1: Fraction(3, 4)}.items()))
    assert {exact: "law"}[floats] == "law"
    third = Dist.uniform(range(3))
    assert hash(third) == hash(third) == hash(Dist({x: Fraction(1, 3) for x in range(3)}))
    pairs = JointDist({(0, 0): Fraction(1, 2), (0, 1): Fraction(1, 2)})
    assert hash(pairs) == hash(pairs) == hash(JointDist({(0, 0): 0.5, (0, 1): 0.5}))


def test_distinct_laws_on_one_support_group_without_comparisons(monkeypatch):
    # The hash reads the masses, not only the support: 500 distinct laws on
    # {0, 1} fall in 500 buckets, so grouping them compares no two laws.
    calls = []
    eq = Dist.__eq__
    monkeypatch.setattr(Dist, "__eq__", lambda p, q: calls.append((p, q)) or eq(p, q))
    groups = Counter(Dist({0: k, 1: 1000 - k}, denominator=1000) for k in range(1, 501))
    assert len(groups) == 500
    assert calls == []


def random_dist(rng, size):
    """Float-mode distribution with Dirichlet(1) masses over `size` outcomes."""
    probs = rng.dirichlet(np.ones(size))
    return Dist({x: float(p) for x, p in enumerate(probs)})


def independent_joint(p, q):
    """The joint law of independent draws from ``p`` and ``q``."""
    return JointDist({(x, y): px * qy for x, px in p.items() for y, qy in q.items()})


def random_joint(rng, rows, cols):
    probs = rng.dirichlet(np.ones(rows * cols))
    mass = {(i, j): float(probs[i * cols + j]) for i in range(rows) for j in range(cols)}
    return JointDist(mass)


# ---------------------------------------------------------------- stat distance

def test_stat_distance_identical_is_zero():
    p = Dist.uniform(range(8))
    assert stat_distance(p, p) == 0


def test_stat_distance_disjoint_point_masses():
    p = Dist.point("a")
    q = Dist.point("b")
    assert stat_distance(p, q) == 1


def test_stat_distance_uniform_vs_point():
    dom = ["00", "01", "10", "11"]
    p = Dist.uniform(dom)
    q = Dist.point("00")
    assert stat_distance(p, q) == Fraction(3, 4)


def test_stat_distance_metric_axioms_on_random_triples():
    rng = np.random.default_rng(7734 % 997)
    for _ in range(300):
        size = int(rng.integers(2, 16))
        p, q, r = (random_dist(rng, size) for _ in range(3))
        d_pq = float(stat_distance(p, q))
        d_qp = float(stat_distance(q, p))
        d_pr = float(stat_distance(p, r))
        d_rq = float(stat_distance(r, q))
        assert d_pq >= 0
        assert d_pq == pytest.approx(d_qp, abs=1e-12)
        assert d_pq <= d_pr + d_rq + 1e-12


# -------------------------------------------------------------------- entropies

def test_entropy_uniform_and_point():
    for k in range(5):
        assert shannon_entropy(Dist.uniform(range(2**k))) == pytest.approx(k, abs=1e-12)
    assert shannon_entropy(Dist.point(7)) == 0.0


def test_entropy_three_quarters_frozen():
    # Oracle: direct formula 2 - (3/4) log2 3, evaluated independently and
    # cross-checked against the reversed summation order.
    p = Dist({0: Fraction(3, 4), 1: Fraction(1, 4)})
    expected = 2.0 - 0.75 * math.log2(3.0)
    assert expected == pytest.approx(0.8112781244591329, abs=1e-15)
    forward = shannon_entropy(p)
    backward = sum(
        float(px) * math.log2(1.0 / float(px)) for _, px in reversed(list(p.items()))
    )
    assert forward == pytest.approx(expected, abs=1e-12)
    assert backward == pytest.approx(expected, abs=1e-12)


def test_entropy_bounds_and_max_at_uniform():
    rng = np.random.default_rng(5)
    for _ in range(200):
        size = int(rng.integers(2, 32))
        p = random_dist(rng, size)
        h = shannon_entropy(p)
        assert -1e-12 <= h <= math.log2(size) + 1e-12
    assert shannon_entropy(Dist.uniform(range(12))) == pytest.approx(math.log2(12), abs=1e-12)


def test_cond_entropy_independent_equals_marginal():
    p = Dist({0: Fraction(1, 3), 1: Fraction(2, 3)})
    q = Dist.uniform(range(4))
    j = independent_joint(p, q)
    assert cond_entropy(j) == pytest.approx(shannon_entropy(p), abs=1e-12)


def test_cond_entropy_determined_is_zero():
    j = JointDist({(x, x): Fraction(1, 4) for x in range(4)})
    assert cond_entropy(j) == pytest.approx(0, abs=1e-12)


def test_cond_entropy_two_bits_given_first():
    # X uniform on 2 bits, Y = first bit: H(X|Y) = 1.
    j = JointDist({((a, b), a): Fraction(1, 4) for a in range(2) for b in range(2)})
    assert cond_entropy(j) == pytest.approx(1, abs=1e-12)


def test_cond_entropy_matches_expectation_route():
    rng = np.random.default_rng(11)
    for _ in range(100):
        j = random_joint(rng, int(rng.integers(2, 6)), int(rng.integers(2, 6)))
        y_marg = j.marginal(1)
        flipped = JointDist({(y, x): p for (x, y), p in j.items()})
        given_y = flipped.marginal_and_conditionals()[1]
        via_expectation = sum(
            float(py) * shannon_entropy(given_y[y]) for y, py in y_marg.items()
        )
        assert cond_entropy(j) == pytest.approx(via_expectation, abs=1e-9)


# ------------------------------------------------------------------------- KL

def test_kl_zero_iff_equal():
    p = Dist.uniform(range(8))
    assert kl_divergence(p, p) == 0.0
    q = Dist({x: Fraction(1, 8) + (Fraction(1, 16) if x == 0 else 0) - (Fraction(1, 16) if x == 1 else 0) for x in range(8)})
    assert kl_divergence(p, q) > 0


def test_kl_vs_uniform_identity():
    # D(p || uniform on 2^n) = n - H(p).
    rng = np.random.default_rng(13)
    for n in (2, 3, 4):
        p = random_dist(rng, 2**n)
        u = Dist.uniform(range(2**n))
        assert kl_divergence(p, u) == pytest.approx(n - shannon_entropy(p), abs=1e-9)


def test_kl_support_violation_is_inf():
    p = Dist.point("a")
    q = Dist.point("b")
    assert kl_divergence(p, q) == math.inf


def test_kl_nonnegative_random():
    rng = np.random.default_rng(17)
    for _ in range(500):
        size = int(rng.integers(2, 16))
        p, q = random_dist(rng, size), random_dist(rng, size)
        assert kl_divergence(p, q) >= -1e-9


# ----------------------------------------------------------------- chain rule

def test_chain_rule_equal_dists():
    j = independent_joint(Dist.uniform(range(2)), Dist.uniform(range(3)))
    assert kl_chain_rule_check(j, j) == (0.0, 0.0)


def test_chain_rule_product_case():
    p1 = Dist({0: Fraction(1, 4), 1: Fraction(3, 4)})
    p2 = Dist({0: Fraction(1, 2), 1: Fraction(1, 2)})
    q1 = Dist.uniform(range(2))
    q2 = Dist({0: Fraction(1, 3), 1: Fraction(2, 3)})
    lhs, rhs = kl_chain_rule_check(independent_joint(p1, p2), independent_joint(q1, q2))
    expected = kl_divergence(p1, q1) + kl_divergence(p2, q2)
    assert lhs == pytest.approx(expected, abs=1e-12)
    assert rhs == pytest.approx(expected, abs=1e-12)


def test_chain_rule_random_four_by_four():
    rng = np.random.default_rng(19)
    for _ in range(200):
        pj = random_joint(rng, 4, 4)
        qj = random_joint(rng, 4, 4)
        lhs, rhs = kl_chain_rule_check(pj, qj)
        assert lhs == pytest.approx(rhs, abs=1e-9)


def test_chain_rule_infinite_case():
    pj = JointDist({(0, 0): Fraction(1)})
    qj = JointDist({(1, 1): Fraction(1)})
    assert kl_chain_rule_check(pj, qj) == (math.inf, math.inf)


# -------------------------------------------------------------------- pinsker

def test_pinsker_equal():
    p = Dist.uniform(range(4))
    assert pinsker_check(p, p) == (0.0, 0.0)


def test_pinsker_point_vs_fair_coin():
    p = Dist.point(0)
    q = Dist.uniform([0, 1])
    tv, bound = pinsker_check(p, q)
    assert tv == pytest.approx(0.5, abs=1e-12)
    assert bound == pytest.approx(math.sqrt(math.log(2) / 2), abs=1e-12)
    assert tv <= bound


def test_pinsker_holds_on_random_pairs():
    rng = np.random.default_rng(23)
    for _ in range(1000):
        size = int(rng.integers(2, 17))
        p, q = random_dist(rng, size), random_dist(rng, size)
        tv, bound = pinsker_check(p, q)
        assert tv <= bound + 1e-12


# --------------------------------------------------------------------- jensen

def test_jensen_log2_on_random_positive_samples():
    rng = np.random.default_rng(29)
    for _ in range(500):
        vals = rng.uniform(0.01, 50.0, size=int(rng.integers(2, 12)))
        e_log, log_e = jensen_log2_check(vals)
        assert e_log <= log_e + 1e-12


@pytest.mark.parametrize("vals", [[1.0, math.nan], [math.nan], [2.0, 0.0], [3.0, -1.0],
                                  [np.float64("nan"), 1.0]])
def test_jensen_log2_rejects_samples_not_positive(vals):
    with pytest.raises(ValueError, match="samples must be positive"):
        jensen_log2_check(vals)


def test_jensen_log2_rejects_empty_input():
    with pytest.raises(ValueError, match="no samples"):
        jensen_log2_check([])


# ------------------------------------------------------------------- plumbing

def test_mixture_of_two_points():
    p = mixture([(Fraction(1, 2), Dist.point(0)),
                 (Fraction(1, 2), Dist.point(1))])
    assert p == Dist.uniform([0, 1])


def test_mixture_rejects_negative_weight_exact_route():
    # Without the check, these weights give the valid law {0: 1/4, 1: 3/4}.
    with pytest.raises(ValueError, match="negative mixture weight -1/2"):
        mixture([(Fraction(3, 2), Dist.uniform([0, 1])), (Fraction(-1, 2), Dist.point(0))])


def test_mixture_rejects_negative_weight_float_route():
    with pytest.raises(ValueError, match="negative mixture weight -0.5"):
        mixture([(1.5, Dist.uniform([0, 1])), (-0.5, Dist.point(0))])
    with pytest.raises(ValueError, match="negative mixture weight"):
        mixture([(1.5, Dist({0: 0.5, 1: 0.5})), (-0.5, Dist({0: 1.0}))])


def test_float_mixture_is_validated():
    p, q = Dist({0: 0.25, 1: 0.75}), Dist({1: 0.5, 2: 0.5})
    with pytest.raises(ValueError, match="masses sum to"):
        mixture([(0.5 + 1e-6, p), (0.5, q)])
    mixed = mixture([(0.5, p), (0.5, q)])
    assert not mixed.exact
    assert list(mixed.items()) == [(0, 0.125), (1, 0.625), (2, 0.25)]
    assert all(type(v) is float for _, v in mixed.items())


def test_invalid_masses_rejected():
    with pytest.raises(ValueError):
        Dist({0: Fraction(1, 2)})
    with pytest.raises(ValueError):
        Dist({0: Fraction(3, 2), 1: Fraction(-1, 2)})


def test_float_masses_validated():
    with pytest.raises(ValueError, match="NaN mass at 1"):
        Dist({0: 1.0, 1: float("nan")})
    with pytest.raises(ValueError, match="NaN mass at 'b'"):
        Dist({"a": 0.5, "b": np.float64("nan"), "c": 0.5})
    with pytest.raises(ValueError):
        Dist({0: 1.0, 1: math.inf})
    with pytest.raises(ValueError, match="negative mass"):
        Dist({0: 1.0, 1: -1e-8})
    clipped = Dist({0: 0.5, 1: -1e-10, 2: 0.5})
    assert clipped.support() == (0, 2)
    dropped = Dist({0: 0.25, 1: 0.0, 2: 0.75})
    assert dropped.support() == (0, 2)
    assert list(dropped.items()) == [(0, 0.25), (2, 0.75)]


def test_uniform_names_a_repeated_outcome():
    with pytest.raises(ValueError, match="outcome 0 is repeated"):
        Dist.uniform([0, 0])
    with pytest.raises(ValueError, match="outcome 'b' is repeated"):
        Dist.uniform(["a", "b", "c", "b"])
