"""probkit's results against direct per-outcome references.

Exact laws: the reference keeps one ``Fraction`` per outcome in a plain
dict and computes each quantity the direct way.  Every exact result must
equal the reference's: ``Fraction``s equal, floats bit for bit, and the
same insertion order wherever floats are summed.

Float and mixed exact/float pairs: the reference looks each outcome up
with ``prob``, converts it with ``float`` and takes ``log2_number`` of it,
and the chain rule rescans the joint law once per conditioning value.
probkit's float path must give the same floats bit for bit.
"""

import math
from collections import namedtuple
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcrlab.probkit import (
    Dist,
    JointDist,
    _log2_ratio,
    cond_entropy,
    kl_chain_rule_check,
    kl_divergence,
    mixture,
    shannon_entropy,
    stat_distance,
)

DOMAIN = tuple(range(8))
PAIRS = tuple((x, y) for x in range(3) for y in range(3))


# ------------------------------------------------------------- the reference

def log2_number(x) -> float:
    """log2 of a positive rational or float, exact for powers of two."""
    if x <= 0:
        raise ValueError("log2 of non-positive value")
    if isinstance(x, Fraction):
        n, d = x.numerator, x.denominator
        if n == 1 and d & (d - 1) == 0:
            return -float(d.bit_length() - 1)
        if d == 1 and n & (n - 1) == 0:
            return float(n.bit_length() - 1)
        return math.log2(n) - math.log2(d)
    return math.log2(x)


def ref_law(counts: dict, scale: int = 1) -> dict:
    total = sum(counts.values()) * scale
    return {x: Fraction(c * scale, total) for x, c in counts.items()}


def ref_stat_distance(p: dict, q: dict) -> Fraction:
    return sum((abs(p.get(x, 0) - q.get(x, 0)) for x in set(p) | set(q)), Fraction(0)) / 2


def ref_kl(p: dict, q: dict) -> float:
    total = 0.0
    for x, px in p.items():
        qx = q.get(x, 0)
        if qx <= 0:
            return math.inf
        total += float(px) * log2_number(px / qx)
    return total


def ref_shannon(p: dict) -> float:
    return sum(float(px) * -log2_number(px) for px in p.values())


def ref_marginal(j: dict, coord: int) -> dict:
    out = {}
    for xy, p in j.items():
        out[xy[coord]] = out.get(xy[coord], 0) + p
    return out


def ref_conditional(j: dict, value) -> dict:
    kept = {y: p for (x, y), p in j.items() if x == value}
    total = sum(kept.values())
    return {x: p / total for x, p in kept.items()}


def ref_mixture(components) -> dict:
    mass = {}
    for w, law in components:
        for x, p in law.items():
            mass[x] = mass.get(x, 0) + w * p
    return mass


def same_law(d: Dist, ref: dict) -> bool:
    """Same outcomes in the same order, with equal Fraction masses."""
    return list(d.items()) == list(ref.items()) and all(
        isinstance(p, Fraction) for _, p in d.items())


# ------------------------------------------------------------- strategies

def counts_over(outcomes):
    return st.dictionaries(st.sampled_from(outcomes), st.integers(1, 60),
                           min_size=1, max_size=len(outcomes))


laws = counts_over(DOMAIN)
joints = counts_over(PAIRS)
scales = st.integers(1, 6)


# ------------------------------------------------------------------ tests

@settings(deadline=None)
@given(laws, laws, scales)
def test_stat_distance_matches_reference(pc, qc, scale):
    p = Dist({x: c * scale for x, c in pc.items()}, denominator=sum(pc.values()) * scale)
    q = Dist(qc, denominator=sum(qc.values()))
    got = stat_distance(p, q)
    assert isinstance(got, Fraction)
    assert got == ref_stat_distance(ref_law(pc, scale), ref_law(qc))
    assert stat_distance(p, p) == 0


@settings(deadline=None)
@given(laws, laws)
def test_kl_divergence_matches_reference_bit_for_bit(pc, qc):
    p = Dist(pc, denominator=sum(pc.values()))
    q = Dist(qc, denominator=sum(qc.values()))
    assert kl_divergence(p, q) == ref_kl(ref_law(pc), ref_law(qc))
    fc = {**{x: 1 for x in DOMAIN}, **qc}
    full = Dist(fc, denominator=sum(fc.values()))
    assert kl_divergence(p, full) == ref_kl(ref_law(pc), ref_law(fc))


@settings(deadline=None)
@given(laws, scales)
def test_shannon_entropy_matches_reference_bit_for_bit(pc, scale):
    p = Dist({x: c * scale for x, c in pc.items()}, denominator=sum(pc.values()) * scale)
    ref = ref_law(pc)
    assert same_law(p, ref)
    assert shannon_entropy(p) == ref_shannon(ref)


@settings(deadline=None)
@given(joints, st.sampled_from((0, 1)))
def test_joint_laws_match_reference(jc, coord):
    j = JointDist(jc, denominator=sum(jc.values()))
    ref = ref_law(jc)
    assert same_law(j, ref)
    marginal = ref_marginal(ref, coord)
    assert same_law(j.marginal(coord), marginal)
    conditionals = j.marginal_and_conditionals()[1]
    assert list(conditionals) == list(ref_marginal(ref, 0))
    for value, law in conditionals.items():
        assert same_law(law, ref_conditional(ref, value))
    assert cond_entropy(j) == ref_shannon(ref) - ref_shannon(ref_marginal(ref, 1))


@settings(deadline=None)
@given(joints)
def test_row_pass_first_law_is_the_first_marginal(jc):
    j = JointDist(jc, denominator=sum(jc.values()))
    first, conditionals = j.marginal_and_conditionals()
    assert first == j.marginal(0)
    assert same_law(first, ref_marginal(ref_law(jc), 0))
    assert list(conditionals) == list(first.support())


@settings(deadline=None)
@given(st.lists(st.tuples(st.integers(1, 9), laws), min_size=1, max_size=4))
def test_mixture_matches_reference(parts):
    weight_total = sum(w for w, _ in parts)
    weights = [Fraction(w, weight_total) for w, _ in parts]
    got = mixture([(w, Dist(c, denominator=sum(c.values())))
                   for w, (_, c) in zip(weights, parts)])
    ref = ref_mixture([(w, ref_law(c)) for w, (_, c) in zip(weights, parts)])
    assert same_law(got, ref)
    assert shannon_entropy(got) == ref_shannon(ref)


@settings(deadline=None)
@given(laws, laws, scales)
def test_equality_and_hash_match_reference(pc, qc, scale):
    p = Dist(pc, denominator=sum(pc.values()))
    scaled = Dist({x: c * scale for x, c in pc.items()}, denominator=sum(pc.values()) * scale)
    q = Dist(qc, denominator=sum(qc.values()))
    ref_p, ref_q = ref_law(pc), ref_law(qc)
    assert p == scaled
    assert (p == q) == (ref_p == ref_q)
    assert hash(p) == hash(scaled) == hash(frozenset(ref_p.items()))
    assert hash(q) == hash(frozenset(ref_q.items()))
    as_float = Dist({x: float(v) for x, v in ref_p.items()})
    if all(float(v) == v for v in ref_p.values()):
        assert p == as_float and hash(p) == hash(as_float)


ratio_terms = st.one_of(
    st.integers(1, 1000),
    st.integers(0, 80).map(lambda k: 2**k),
    st.integers(2**64, 2**80),
)


@settings(deadline=None)
@given(ratio_terms, ratio_terms, st.integers(1, 7))
def test_log2_ratio_matches_fraction_log_bit_for_bit(c, d, k):
    # The cases c > d, powers of two on either side and terms above 2^64
    # are all drawn; the common factor k exercises the gcd reduction.
    for n, m in ((c, d), (d, c), (c * k, d * k)):
        assert _log2_ratio(n, m) == log2_number(Fraction(n, m))


@pytest.mark.parametrize("d", [1, 5, 8])
def test_log2_ratio_of_zero_raises(d):
    # 0/d reduces to 0/1, which must not pass for the power of two 2^-1.
    # The memo caches no exception, so a repeat raises too.
    for _ in range(2):
        with pytest.raises(ValueError):
            _log2_ratio(0, d)


def test_log2_ratio_memo_matches_the_unmemoized_log_bit_for_bit():
    # Each argument twice: the first call may fill the memo, the second
    # reads it.  Both must be the unmemoized float, bit for bit.
    terms = list(range(1, 41)) + [2**k for k in (6, 20, 64, 80)] + [3 * 2**70]
    for _ in range(2):
        for n in terms:
            for d in terms:
                assert _log2_ratio(n, d).hex() == _log2_ratio.__wrapped__(n, d).hex()


# ------------------------------------------------------- float and mixed laws

def ref_float_stat_distance(p: Dist, q: Dist) -> float:
    union = set(p.support()) | set(q.support())
    return sum(abs(float(p.prob(x)) - float(q.prob(x))) for x in union) / 2


def ref_float_kl(p: Dist, q: Dist) -> float:
    total = 0.0
    for x, px in p.items():
        qx = q.prob(x)
        if qx <= 0:
            return math.inf
        total += float(px) * log2_number(float(px) / float(qx))
    return total


def ref_float_shannon(p: Dist) -> float:
    return sum(float(px) * -log2_number(px) for _, px in p.items())


def ref_rescan_conditional(j: JointDist, value) -> Dist:
    """Law of the second coordinate given the first == value, by one scan of
    the whole joint law."""
    kept = {y: p for (x, y), p in j.items() if x == value}
    total = sum(kept.values())
    return Dist({y: p / total for y, p in kept.items()})


def ref_kl_of_laws(p: Dist, q: Dist) -> float:
    if p.exact and q.exact:
        return ref_kl(dict(p.items()), dict(q.items()))
    return ref_float_kl(p, q)


def ref_chain_rule(pj: JointDist, qj: JointDist) -> tuple[float, float]:
    lhs = ref_kl_of_laws(pj, qj)
    if math.isinf(lhs):
        return math.inf, math.inf
    p1, q1 = pj.marginal(0), qj.marginal(0)
    rhs = ref_kl_of_laws(p1, q1)
    for x, px in p1.items():
        rhs += float(px) * ref_kl_of_laws(ref_rescan_conditional(pj, x),
                                          ref_rescan_conditional(qj, x))
    return lhs, rhs


def float_masses(rng, outcomes) -> dict:
    """Dirichlet(1) masses, left as ``np.float64``."""
    return dict(zip(outcomes, rng.dirichlet(np.ones(len(outcomes)))))


def exact_counts(rng, outcomes) -> dict:
    return {x: int(c) for x, c in zip(outcomes, rng.integers(1, 50, len(outcomes)))}


def float_law(rng, outcomes) -> Dist:
    return Dist({x: float(p) for x, p in float_masses(rng, outcomes).items()})


def exact_law(rng, outcomes) -> Dist:
    counts = exact_counts(rng, outcomes)
    return Dist(counts, denominator=sum(counts.values()))


def spread(x: int) -> int:
    # Outcomes with scattered hashes, so set and dict orders depend on how
    # each was built, as they do for the lab's tuple outcomes.
    return x * 104729 % 1000003


def random_outcomes(rng, universe: int) -> list:
    """A random subset of the first ``universe`` spread outcomes, in random
    insertion order."""
    size = int(rng.integers(1, universe + 1))
    return [spread(int(x)) for x in rng.permutation(universe)[:size]]


def joint_law(rng, kind: str, rows: int, cols: int) -> JointDist:
    pairs = [(i, j) for i in range(rows) for j in range(cols)]
    if kind == "float":
        return JointDist(float_masses(rng, pairs))
    counts = exact_counts(rng, pairs)
    return JointDist(counts, denominator=sum(counts.values()))


LAW_KINDS = {"float": float_law, "exact": exact_law}
MIXES = [("float", "float"), ("exact", "float"), ("float", "exact")]


@pytest.mark.parametrize("kinds", MIXES, ids="-".join)
def test_float_tv_kl_entropy_match_reference_bit_for_bit(kinds):
    make_p, make_q = (LAW_KINDS[k] for k in kinds)
    rng = np.random.default_rng(2026)
    for _ in range(400):
        universe = int(rng.integers(1, 25))
        p = make_p(rng, random_outcomes(rng, universe))
        q = make_q(rng, random_outcomes(rng, universe))
        assert stat_distance(p, q) == ref_float_stat_distance(p, q)
        assert stat_distance(q, p) == ref_float_stat_distance(q, p)
        assert kl_divergence(p, q) == ref_float_kl(p, q)
        assert kl_divergence(q, p) == ref_float_kl(q, p)
        if not p.exact:
            assert shannon_entropy(p) == ref_float_shannon(p)
        # Over a common support the divergence is finite.
        full = make_q(rng, [spread(x) for x in range(universe)])
        assert kl_divergence(p, full) == ref_float_kl(p, full) < math.inf


@pytest.mark.parametrize("kinds", [*MIXES, ("exact", "exact")], ids="-".join)
def test_chain_rule_matches_rescan_reference_bit_for_bit(kinds):
    rng = np.random.default_rng(2027)
    for _ in range(150):
        rows, cols = (int(v) for v in rng.integers(1, 6, size=2))
        pj, qj = (joint_law(rng, kind, rows, cols) for kind in kinds)
        got = kl_chain_rule_check(pj, qj)
        assert got == ref_chain_rule(pj, qj)
        assert math.isfinite(got[0])


def test_float_row_pass_first_law_is_the_first_marginal_bit_for_bit():
    rng = np.random.default_rng(2028)
    for _ in range(150):
        rows, cols = (int(v) for v in rng.integers(1, 6, size=2))
        j = joint_law(rng, "float", rows, cols)
        first, conditionals = j.marginal_and_conditionals()
        assert not first.exact
        assert list(first.items()) == list(j.marginal(0).items())
        assert list(first.items()) == list(ref_marginal(dict(j.items()), 0).items())
        for x, law in conditionals.items():
            assert list(law.items()) == list(ref_rescan_conditional(j, x).items())


def test_float_kl_and_chain_rule_are_inf_off_support():
    p = Dist({0: 0.25, 1: 0.75})
    q = Dist({1: 0.5, 2: 0.5})
    for a, b in ((p, q), (p, Dist({1: 1, 2: 1}, denominator=2)), (Dist({0: 1, 1: 3}, denominator=4), q)):
        assert kl_divergence(a, b) == ref_float_kl(a, b) == math.inf
    pj = JointDist({(0, 0): 0.5, (0, 1): 0.5})
    qj = JointDist({(0, 0): 0.5, (1, 1): 0.5})
    assert kl_chain_rule_check(pj, qj) == ref_chain_rule(pj, qj) == (math.inf, math.inf)


# ------------------------------------------------------------ the pair check

def ref_is_pair_keyed(keys) -> bool:
    """JointDist's per-key outcome test, one Python-level check per key."""
    for xy in keys:
        if not (isinstance(xy, tuple) and len(xy) == 2):
            return False
    return True


Pair = namedtuple("Pair", "x y")
Triple = namedtuple("Triple", "x y z")

atoms = st.one_of(st.integers(-3, 3), st.text(max_size=3), st.none())
keys = st.one_of(
    atoms,
    st.lists(atoms, max_size=3).map(tuple),
    st.builds(Pair, atoms, atoms),
    st.builds(Triple, atoms, atoms, atoms),
    st.frozensets(atoms, max_size=2),
)


def accepts(mass) -> bool:
    try:
        JointDist(mass)
    except ValueError as err:
        assert str(err) == "JointDist outcomes must be pairs"
        return False
    return True


@pytest.mark.parametrize("key", [0, (1,), (1, 2, 3), "ab", ()], ids=repr)
def test_pair_check_rejects_non_pairs(key):
    with pytest.raises(ValueError, match="JointDist outcomes must be pairs"):
        JointDist({key: 1.0})
    with pytest.raises(ValueError, match="JointDist outcomes must be pairs"):
        JointDist({(0, 0): Fraction(1, 2), key: Fraction(1, 2)})


def test_pair_check_rejects_one_bad_key_in_a_mixed_dict():
    mass = {(i, j): 0.1 for i in range(3) for j in range(3)}
    mass[7] = 0.1
    with pytest.raises(ValueError, match="JointDist outcomes must be pairs"):
        JointDist(mass)


def test_pair_check_accepts_namedtuple_pairs():
    j = JointDist({Pair(0, 0): Fraction(1, 4), Pair(0, 1): Fraction(3, 4)})
    assert j.marginal(0) == Dist.point(0)
    assert j.marginal_and_conditionals()[1][0] == Dist({0: Fraction(1, 4), 1: Fraction(3, 4)})


@settings(deadline=None)
@given(st.lists(keys, min_size=1, max_size=6, unique=True))
def test_pair_check_matches_per_key_reference(key_list):
    mass = {k: Fraction(1, len(key_list)) for k in key_list}
    assert accepts(mass) == ref_is_pair_keyed(mass)
    floats = {k: 1 / len(key_list) for k in key_list}
    assert accepts(floats) == ref_is_pair_keyed(floats)
