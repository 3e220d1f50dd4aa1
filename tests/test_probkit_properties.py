"""Exact laws as integer counts give exactly what Fraction-per-outcome laws give.

The reference below keeps one ``Fraction`` per outcome in a plain dict and
computes each quantity the direct way.  Every exact result must equal the
reference's: ``Fraction``s equal, floats bit for bit, and the same
insertion order wherever floats are summed.
"""

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from dcrlab.probkit import (
    Dist,
    JointDist,
    _log2_ratio,
    cond_entropy,
    kl_divergence,
    log2_number,
    mixture,
    shannon_entropy,
    stat_distance,
)

DOMAIN = tuple(range(8))
PAIRS = tuple((x, y) for x in range(3) for y in range(3))


# ------------------------------------------------------------- the reference

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


def ref_conditional(j: dict, coord: int, value) -> dict:
    kept = {xy[1 - coord]: p for xy, p in j.items() if xy[coord] == value}
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
    q = Dist.from_counts(qc)
    got = stat_distance(p, q)
    assert isinstance(got, Fraction)
    assert got == ref_stat_distance(ref_law(pc, scale), ref_law(qc))
    assert stat_distance(p, p) == 0


@settings(deadline=None)
@given(laws, laws)
def test_kl_divergence_matches_reference_bit_for_bit(pc, qc):
    p = Dist.from_counts(pc)
    q = Dist.from_counts(qc)
    assert kl_divergence(p, q) == ref_kl(ref_law(pc), ref_law(qc))
    full = Dist.from_counts({**{x: 1 for x in DOMAIN}, **qc})
    assert kl_divergence(p, full) == ref_kl(ref_law(pc), ref_law({**{x: 1 for x in DOMAIN}, **qc}))


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
    j = JointDist.from_counts(jc)
    ref = ref_law(jc)
    assert same_law(j, ref)
    marginal = ref_marginal(ref, coord)
    assert same_law(j.marginal(coord), marginal)
    for value in marginal:
        assert same_law(j.conditional(coord, value), ref_conditional(ref, coord, value))
    assert cond_entropy(j) == ref_shannon(ref) - ref_shannon(ref_marginal(ref, 1))


@settings(deadline=None)
@given(st.lists(st.tuples(st.integers(1, 9), laws), min_size=1, max_size=4))
def test_mixture_matches_reference(parts):
    weight_total = sum(w for w, _ in parts)
    weights = [Fraction(w, weight_total) for w, _ in parts]
    got = mixture([(w, Dist.from_counts(c)) for w, (_, c) in zip(weights, parts)])
    ref = ref_mixture([(w, ref_law(c)) for w, (_, c) in zip(weights, parts)])
    assert same_law(got, ref)
    assert shannon_entropy(got) == ref_shannon(ref)


@settings(deadline=None)
@given(laws, laws, scales)
def test_equality_and_hash_match_reference(pc, qc, scale):
    p = Dist.from_counts(pc)
    scaled = Dist.from_counts({x: c * scale for x, c in pc.items()})
    q = Dist.from_counts(qc)
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
