"""Materialized pair laws, kept as references for the block laws.

Each builder here is the pair-by-pair construction the program used
before its pair laws were held as product blocks: Col(h) and the rewound
law as one dict of pairs each, the row pass that splits a joint law into
its first marginal and conditionals, the joint game route as tagged
mixtures, the conditional route of the accessible entropy through one
(block, context) joint law, the float distance over materialized pairs,
and the Monte-Carlo game with one ``run`` call per distinct tape.  The
block laws and the tape runners must equal them, insertion order included
where a float sum reads it.  Two consistent online generators whose
rewound laws the stock suite does not reach close the file.
"""

import math
from collections import Counter
from fractions import Fraction

import numpy as np

from dcrlab.generators import OnlineGenerator
from dcrlab.hashfam import HashFamily, preimage_set, rng_bigint
from dcrlab.probkit import BlockLaw, Dist, JointDist, cond_entropy, mixture, stat_distance


def ref_col_distribution(h) -> JointDist:
    """Col(h) as counts L / |fiber| over 2^n * L with L = ``h.fiber_lcm``."""
    lcm = h.fiber_lcm
    mass = {(x1, x2): count
            for fiber in h.fibers.values()
            for count in (lcm // len(fiber),)
            for x1 in fiber
            for x2 in fiber}
    return JointDist(mass, denominator=2**h.n * lcm)


def ref_rewound_law(gt, h) -> JointDist:
    """The rewound law of ``gt`` on h as the mixture of law (x) law over the
    first-block coin groups, with weight count / v1 each: counts over
    v1 * lcm(law denominators^2)."""
    v1 = gt.coin_spaces[0]
    groups = Counter(gt.block_law(h, (r,)) for r in range(v1))
    lcm = math.lcm(*(law.denominator**2 for law in groups))
    mass: dict[tuple, int] = {}
    for law, count in groups.items():
        scale = count * (lcm // law.denominator**2)
        counts = law.counts.items()
        for x1, c1 in counts:
            w1 = scale * c1
            for x2, c2 in counts:
                key = (x1, x2)
                mass[key] = mass.get(key, 0) + w1 * c2
    return JointDist(mass, denominator=v1 * lcm)


def ref_row_pass(joint: JointDist) -> tuple[Dist, dict]:
    """The first marginal and {x1: conditional law of x2} of an exact joint
    law from one pass over its pairs, rows and totals in first-occurrence
    order."""
    rows: dict = {}
    for (x1, x2), c in joint.counts.items():
        rows.setdefault(x1, {})[x2] = c
    totals = {x1: sum(row.values()) for x1, row in rows.items()}
    conditionals = {x1: Dist(row, denominator=totals[x1]) for x1, row in rows.items()}
    return Dist(totals, denominator=joint.denominator), conditionals


def ref_joint_distance(laws) -> Fraction:
    """The joint route as tagged mixtures: each key's laws re-keyed to
    (key, pair) outcomes, merged by ``mixture`` at weight 1/k, then one TV
    of the two joint laws."""
    def tag(d, idx):
        return Dist({(idx, x): c for x, c in d.counts.items()}, denominator=d.denominator)

    w = Fraction(1, len(laws))
    joint_p = mixture([(w, tag(p, idx)) for idx, (p, _) in enumerate(laws)])
    joint_q = mixture([(w, tag(q, idx)) for idx, (_, q) in enumerate(laws)])
    return stat_distance(joint_p, joint_q)


def ref_accessible_entropy(gt) -> float:
    """sum_i H(Y_i | Z, R_{<i}) as ``cond_entropy`` of the joint law of
    (block, context) with every pair stored, one law per block index."""
    k = len(gt.param_space)
    total = 0.0
    for i in range(gt.m_blocks):
        prefix_list = list(gt.coin_prefixes(i))
        laws = [((zi, prefix), gt.block_law(z, prefix))
                for zi, z in enumerate(gt.param_space) for prefix in prefix_list]
        lcm = math.lcm(*(law.denominator for _, law in laws))
        mass = {(y, context): c * (lcm // law.denominator)
                for context, law in laws for y, c in law.counts.items()}
        total += cond_entropy(JointDist(mass, denominator=k * len(prefix_list) * lcm))
    return total


def ref_float_distance(p, q) -> float:
    """Total variation with a float law: a ``BlockLaw`` materialized as its
    ``joint()``, each exact law as ``count / denominator`` floats, and the
    terms added left to right over ``set(supp p) | set(supp q)``."""
    masses = []
    for d in (p, q):
        d = d.joint() if isinstance(d, BlockLaw) else d
        if d.exact:
            masses.append((d.support(), {x: c / d.denominator for x, c in d.counts.items()}))
        else:
            masses.append((d.support(), dict(d.items())))
    (p_support, pm), (q_support, qm) = masses
    total = 0.0
    for x in set(p_support) | set(q_support):
        total += abs(pm.get(x, 0.0) - qm.get(x, 0.0))
    return total / 2


def ref_monte_carlo_distribution(a, h, samples, rng) -> JointDist:
    """The Monte-Carlo law with one ``a.run`` call per distinct tape: all
    tapes drawn in one call up to a space of 2^63, each distinct tape run
    once in order of first draw and weighted by its multiplicity; larger
    spaces draw and run one tape at a time."""
    space = a.tape_space(h)
    if space <= 2**63:
        tapes, first, reps = np.unique(rng.integers(space, size=samples),
                                       return_index=True, return_counts=True)
        order = np.argsort(first)
        drawn = zip(tapes[order].tolist(), reps[order].tolist())
    else:
        drawn = ((rng_bigint(rng, space), 1) for _ in range(samples))
    counts = {}
    for t, c in drawn:
        out = a.run(h, t)
        counts[out] = counts.get(out, 0) + c
    return JointDist({pair: c / samples for pair, c in counts.items()})


# ------------------------------------------------------------ test generators

def lopsided_online(family: HashFamily) -> OnlineGenerator:
    """Consistent, with block two's three coins landing on a fiber's first
    point once and on its second point twice: rows of unequal counts."""
    def block(h, coins):
        if len(coins) == 1:
            return h(coins[0])
        fiber = preimage_set(h, h(coins[0]))
        return fiber[min(coins[1], 1) % len(fiber)]
    return OnlineGenerator("lopsided", family.functions, (2**family.n, 3), block)


def overlapping_online(family: HashFamily) -> OnlineGenerator:
    """Consistent, with block two on first coin u uniform over {min fiber,
    u}: the coin groups of one fiber all hold its least point, so their
    product blocks overlap."""
    def block(h, coins):
        if len(coins) == 1:
            return h(coins[0])
        return preimage_set(h, h(coins[0]))[0] if coins[1] == 0 else coins[0]
    return OnlineGenerator("overlapping", family.functions, (2**family.n, 2), block)
