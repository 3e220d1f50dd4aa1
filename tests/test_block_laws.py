"""Pair laws held as product blocks, against their materialized references.

Col(h) and every rewound law of disjoint blocks are ``BlockLaw``s; a
rewound law whose blocks overlap is a ``JointDist``.  Here each one meets
the pair-by-pair law it replaces (``reference_laws``): the same first
marginal in the same insertion order, the same conditional rows, the same
pairs, and the same game values by the per-key and the joint route.
"""

import hashlib

import pytest

from dcrlab import hashfam
from dcrlab.entropy_gap import (
    SWEEP_TOL,
    RewindingAdversary,
    collision_rate,
    consistent_suite,
    gap_bound_report,
    mismatched_online,
)
from dcrlab.hashfam import builtin_families, col_distribution
from dcrlab.probkit import BlockLaw, Dist, JointDist, shannon_entropy, stat_distance

from reference_laws import (
    lopsided_online,
    overlapping_online,
    ref_col_distribution,
    ref_joint_distance,
    ref_rewound_law,
    ref_row_pass,
)


def assert_matches(law: BlockLaw | JointDist, ref):
    """``law`` reads as the materialized ``ref``: marginal, rows and pairs."""
    first, conditionals = law.marginal_and_conditionals()
    ref_first, ref_conditionals = ref_row_pass(ref)
    assert first == ref_first
    assert list(first.counts) == list(ref_first.counts)
    assert list(conditionals) == list(ref_conditionals)
    for x1, cond in conditionals.items():
        assert cond == ref_conditionals[x1]
        assert list(cond.counts) == list(ref_conditionals[x1].counts)
    size = law.support_size() if isinstance(law, BlockLaw) else len(law.support())
    assert size == len(ref.support())
    assert law == ref
    assert shannon_entropy(law) == pytest.approx(shannon_entropy(ref), abs=1e-12)


def assert_game_matches(laws, refs, cols, ref_cols):
    """Per-key TVs and the joint route equal those of the materialized laws."""
    for law, ref, col, ref_col in zip(laws, refs, cols, ref_cols):
        assert stat_distance(law, col) == stat_distance(ref, ref_col)
        assert stat_distance(col, law) == stat_distance(ref, ref_col)
    joint = hashfam._joint_distance(list(zip(laws, cols)))
    assert joint == ref_joint_distance(list(zip(refs, ref_cols)))
    assert joint == sum(stat_distance(ref, ref_col)
                        for ref, ref_col in zip(refs, ref_cols)) / len(refs)


@pytest.mark.parametrize("seed", [3, 11])
@pytest.mark.parametrize("n", range(2, 9))
def test_block_laws_match_materialized_references(n, seed):
    for fam in builtin_families(n, num_keys=2, seed=seed):
        cols = [col_distribution(h) for h in fam]
        ref_cols = [ref_col_distribution(h) for h in fam]
        for col, ref_col in zip(cols, ref_cols):
            assert_matches(col, ref_col)
        for gt in consistent_suite(fam):
            adv = RewindingAdversary(gt, fam)
            laws = [adv.exact_distribution(h) for h in fam]
            refs = [ref_rewound_law(gt, h) for h in fam]
            for law, ref in zip(laws, refs):
                assert isinstance(law, BlockLaw), (fam.name, gt.name)
                assert_matches(law, ref)
            assert_game_matches(laws, refs, cols, ref_cols)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_overlapping_blocks_match_their_materialized_component(n):
    # The mismatched generator's first two coin groups share an outcome, as
    # do the overlapping generator's groups within each fiber of two or
    # more points, so their laws are materialized; the lopsided generator's
    # rows have unequal counts.
    materialized = 0
    for fam in builtin_families(n, num_keys=2, seed=n):
        cols = [col_distribution(h) for h in fam]
        ref_cols = [ref_col_distribution(h) for h in fam]
        advs = [RewindingAdversary(mismatched_online(fam), fam, _checked=True),
                RewindingAdversary(lopsided_online(fam), fam),
                RewindingAdversary(overlapping_online(fam), fam)]
        for adv in advs:
            laws = [adv.exact_distribution(h) for h in fam]
            refs = [ref_rewound_law(adv.gt, h) for h in fam]
            for law, ref in zip(laws, refs):
                materialized += not isinstance(law, BlockLaw)
                assert_matches(law, ref)
            assert_game_matches(laws, refs, cols, ref_cols)
        assert collision_rate(advs[2]) == 1
    assert materialized


def test_overlapping_rewound_numbers_pinned():
    # The gap reports of the overlapping and lopsided generators and the
    # mismatched generator's collision rate, n = 2..6: 75 rows whose
    # sha256 is that of the rows when overlapping blocks were held as
    # mixed rows of a block law.
    rows = []
    for n in range(2, 7):
        for fam in builtin_families(n, num_keys=4, seed=n):
            for gt in (overlapping_online(fam), lopsided_online(fam)):
                rows.append(gap_bound_report(gt, fam, tol=SWEEP_TOL).csv_row())
            adv = RewindingAdversary(mismatched_online(fam), fam, _checked=True)
            rows.append(str(collision_rate(adv)))
    assert len(rows) == 75
    digest = hashlib.sha256("\n".join(rows).encode()).hexdigest()
    assert digest == "740f5357c1973ccd608ae5dad24b5a117f4f74d8ae8c422b555b9aa0ef9ba2e6"


def test_block_law_refuses_shared_outcomes():
    # Blocks {0, 1} and {1, 2} share x1 = 1: no block law holds them.
    a, b = Dist.uniform([0, 1]), Dist.uniform([1, 2])
    with pytest.raises(ValueError, match="blocks share an outcome"):
        BlockLaw([(1, a), (3, b)], denominator=4)


def test_block_law_rejects_bad_weights():
    law = Dist.uniform([0, 1])
    with pytest.raises(ValueError, match="do not sum to 3"):
        BlockLaw([(1, law), (1, Dist.point(5))], denominator=3)
    with pytest.raises(ValueError, match="positive int weights"):
        BlockLaw([(0, law), (2, Dist.point(5))], denominator=2)
    with pytest.raises(ValueError, match="exact laws"):
        BlockLaw([(1, Dist({0: 0.5, 1: 0.5}))], denominator=1)
    with pytest.raises(ValueError, match="needs blocks"):
        BlockLaw([], denominator=0)


def test_float_route_reads_the_pairs_once():
    # A float law against Col(h) runs over the union of the two supports
    # as plain floats: Col's pairs are built on the first such distance
    # and kept for the next.  The law is built here, outside the cache.
    h = builtin_families(4, num_keys=1, seed=2)[3].functions[0]
    col = col_distribution.__wrapped__(h)
    diagonal = JointDist({(x, x): 1 / 16 for x in range(16)})
    assert col._joint is None
    tv = stat_distance(diagonal, col)
    pairs = col._joint
    assert pairs is not None
    assert tv == stat_distance(diagonal, ref_col_distribution(h))
    assert stat_distance(col, diagonal) == tv
    assert col._joint is pairs
