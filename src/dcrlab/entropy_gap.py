"""From a hash family to an entropy gap, and back to a collision sampler.

The two-block generator of a family emits (h(x), x) for a uniform seed;
its real entropy is the seed length n.  Any consistent online generator
can be rewound into a collision-searching adversary: run the first block
once to fix y, run the second block twice to get x1, x2 with
h(x1) = h(x2).  The distance of that adversary from the ideal finder is
controlled by the generator's entropy gap through a
Pinsker / chain-rule / Jensen chain, and every link of the chain is
checked numerically here:

    E_h TV(A(h), Col(h))  <=  sqrt(kl1) + sqrt(kl2)  <=  2 sqrt(gap)

with kl1 = E_h D(X1 || uniform), kl2 = E_{h,x1} D(X2|x1 || uniform on the
fiber of x1), and gap = n - accessible entropy.
"""

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from dcrlab.generators import (
    BlockGenerator,
    OnlineGenerator,
    accessible_entropy,
    check_consistent,
    real_entropy,
)
from dcrlab.hashfam import (
    Adversary,
    HashFamily,
    HashFunction,
    dcrh_distance,
    preimage_set,
)
from dcrlab.probkit import (
    BlockLaw,
    Dist,
    JointDist,
    _pair_counts,
    _scaled_blocks,
    kl_divergence,
    shannon_entropy,
)
from dcrlab.reporting import csv_line

TOL = 1e-9
SWEEP_TOL = 1e-6  # tolerance pinned for the full-grid sweep's float chains


class ConsistencyError(ValueError):
    """An online generator was supplied where a consistent one is required."""


@lru_cache(maxsize=64)
def build_two_block_generator(family: HashFamily) -> BlockGenerator:
    """G(h, x) = (h(x), x) with the family's keys as public parameters,
    one per family, so every consistency check and the real entropy share
    its cached output laws."""
    return BlockGenerator(
        f"two-block[{family.name}]",
        family.functions,
        family.n,
        (family.m, family.n),
        lambda h, x: (h(x), x),
    )


@lru_cache(maxsize=64)
def _two_block_real_entropy(family: HashFamily) -> float:
    """H(Y | Z) of the family's two-block generator, once per family."""
    return real_entropy(build_two_block_generator(family))


# ---------------------------------------------------------- online generator zoo

def honest_online(family: HashFamily) -> OnlineGenerator:
    """Runs the generator honestly: x is drawn with the first block's coins."""
    def block(h, coins):
        return h(coins[0]) if len(coins) == 1 else coins[0]
    return OnlineGenerator("honest", family.functions, (2**family.n, 1), block)


def ideal_online(family: HashFamily) -> OnlineGenerator:
    """Brute-force reference generator: y = h(u) for uniform u, then x
    uniform over h^-1(y) via fresh coins.

    The second block's coin range is the lcm of every fiber size in the
    family, so indexing coins mod the fiber size is exactly uniform; its
    conditional laws are also supplied analytically, which keeps the
    accounting exact when the lcm is too large to enumerate.  Every coin
    of one fiber gets the key's own law of that fiber (``h.fiber_laws``),
    so grouping the coins by law hashes one law per fiber.
    """
    v2 = math.lcm(*(h.fiber_lcm for h in family))

    def block(h, coins):
        if len(coins) == 1:
            return h(coins[0])
        fiber = preimage_set(h, h(coins[0]))
        return fiber[coins[1] % len(fiber)]

    def law(h, prefix):
        if not prefix:
            return Dist({y: len(f) for y, f in h.fibers.items()}, denominator=2**h.n)
        return h.fiber_laws[h(prefix[0])]

    return OnlineGenerator("ideal", family.functions, (2**family.n, v2), block,
                           law_fn=law)


def lazy_online(family: HashFamily) -> OnlineGenerator:
    """Fully deterministic: one fixed first block, one fixed preimage."""
    def block(h, coins):
        y0 = h(0)
        return y0 if len(coins) == 1 else min(preimage_set(h, y0))
    return OnlineGenerator("lazy", family.functions, (1, 1), block)


def skewed_online(family: HashFamily) -> OnlineGenerator:
    """Honest on a biased seed: the top bit of x is forced to 0, skewing
    the first block away from the honest law."""
    mask = 2 ** max(family.n - 1, 0) - 1

    def block(h, coins):
        u = coins[0] & mask
        return h(u) if len(coins) == 1 else u

    return OnlineGenerator("skewed1", family.functions, (2**family.n, 1), block)


def mismatched_online(family: HashFamily) -> OnlineGenerator:
    """Honest except on one tape, where the revealed seed is flipped and no
    longer explains the first block; consistency checking must find the
    counterexample by enumeration, and rewinding it can emit non-colliding
    pairs."""
    def block(h, coins):
        if len(coins) == 1:
            return h(coins[0])
        if coins[0] == 0 and coins[1] == 1:
            return coins[0] ^ 1
        return coins[0]
    return OnlineGenerator("mismatched", family.functions, (2**family.n, 2), block)


def consistent_suite(family: HashFamily) -> list[OnlineGenerator]:
    """The stock consistent generators, from zero gap (ideal) to maximal
    (lazy)."""
    return [honest_online(family), ideal_online(family), lazy_online(family),
            skewed_online(family)]


# ------------------------------------------------------------ rewinding adversary

class RewindingAdversary(Adversary):
    """Rewinds an online generator at its second block to emit a collision.

    The tape packs (r, r1, r2): run block one on r, then block two twice on
    the fresh coins r1 and r2.  Consistency of the generator guarantees
    both outputs land in the same fiber.
    """

    def __init__(self, gt: OnlineGenerator, family: HashFamily, *, _checked=False):
        g = build_two_block_generator(family)
        if not _checked and not check_consistent(gt, g):
            raise ConsistencyError(f"{gt.name} is not consistent with {g.name}")
        self.gt = gt
        self.family = family
        self.name = f"rewind[{gt.name}]"
        self._laws: dict[HashFunction, BlockLaw | JointDist] = {}

    def tape_space(self, h: HashFunction) -> int:
        v1, v2 = self.gt.coin_spaces
        return v1 * v2 * v2

    def run(self, h: HashFunction, tape: int):
        v1, v2 = self.gt.coin_spaces
        r, rem = divmod(tape, v2 * v2)
        r1, r2 = divmod(rem, v2)
        x1 = self.gt.block(h, (r, r1))
        x2 = self.gt.block(h, (r, r2))
        return x1, x2

    def exact_distribution(self, h: HashFunction) -> BlockLaw | JointDist:
        """The output law on h, computed once per key and shared by every
        consumer: the first- and second-block divergences and the
        collision game."""
        law = self._laws.get(h)
        if law is None:
            law = self._laws[h] = self._rewound_law(h)
        return law

    def _rewound_law(self, h: HashFunction) -> BlockLaw | JointDist:
        """Group first-block coins by the induced second-block law; the
        output law has one product block law (x) law per group, of weight
        count / v1, or their pairs when two groups' laws share an outcome."""
        v1 = self.gt.coin_spaces[0]
        groups = Counter(self.gt.block_law(h, (r,)) for r in range(v1))
        blocks = [(count, law) for law, count in groups.items()]
        try:
            return BlockLaw(blocks, denominator=v1)
        except ValueError:  # two groups' laws share an outcome
            scaled, den = _scaled_blocks(blocks, v1)
            return JointDist(_pair_counts(scaled), denominator=den)


def collision_rate(adv: RewindingAdversary) -> Fraction:
    """Probability (averaged over keys) that the adversary's pair collides:
    the mass of each x1 times its conditional law's mass on the fiber of
    x1, found once per (conditional law, fiber)."""
    total = Fraction(0)
    for h in adv.family:
        marg, conditionals = adv.exact_distribution(h).marginal_and_conditionals()
        counts = marg.counts
        weights: dict[tuple, int] = {}
        for x1, cond in conditionals.items():
            key = (cond, h(x1))
            weights[key] = weights.get(key, 0) + counts[x1]
        for (cond, y), weight in weights.items():
            inside = sum(c for x2, c in cond.counts.items() if h(x2) == y)
            total += Fraction(weight * inside, marg.denominator * cond.denominator)
    return total / len(adv.family)


# --------------------------------------------------------------- per-term bounds

def _first_block_kl(adv: RewindingAdversary, gap: float) -> float:
    """E_h D(X1 || uniform), which the gap upper-bounds.

    Computed directly as an average divergence and again as
    n - E_h H(X1); the routes must agree to 1e-9 and the value must stay
    at or below the measured entropy gap.
    """
    family = adv.family
    uniform = Dist.uniform(range(2**family.n))
    direct = 0.0
    mean_entropy = 0.0
    for h in family:
        marg = adv.exact_distribution(h).marginal_and_conditionals()[0]
        direct += kl_divergence(marg, uniform) / len(family)
        mean_entropy += shannon_entropy(marg) / len(family)
    via_entropy = family.n - mean_entropy
    if abs(direct - via_entropy) > TOL:
        raise AssertionError(f"first-block KL routes disagree: {direct} vs {via_entropy}")
    if direct > gap + TOL:
        raise AssertionError(f"first-block KL {direct} exceeds gap {gap}")
    return direct


def _second_block_kl(adv: RewindingAdversary, gap: float) -> float:
    """E_{h, x1} D(X2 | x1  ||  uniform over h^-1(h(x1))).

    Computed directly as an average of conditional divergences and again
    as E_h [E_{x1} log2 |h^-1(h(x1))| - (H(X1, X2) - H(X1))]; the routes
    must agree to 1e-9 and the value must stay at or below the measured
    entropy gap.
    """
    family = adv.family
    total = 0.0
    via_entropy = 0.0
    for h in family:
        joint = adv.exact_distribution(h)
        marg, conditionals = joint.marginal_and_conditionals()
        weights, den = marg.counts, marg.denominator
        contribution = 0.0
        log_fiber = 0.0
        divergences: dict[tuple, float] = {}  # one per (conditional law object, fiber)
        for x1, cond in conditionals.items():
            y = h(x1)
            divergence = divergences.get((id(cond), y))
            if divergence is None:
                divergence = divergences[id(cond), y] = kl_divergence(cond, h.fiber_laws[y])
            weight = weights[x1] / den
            contribution += weight * divergence
            log_fiber += weight * math.log2(len(preimage_set(h, y)))
        total += contribution / len(family)
        cond_h = shannon_entropy(joint) - shannon_entropy(marg)
        via_entropy += (log_fiber - cond_h) / len(family)
    if abs(total - via_entropy) > TOL:
        raise AssertionError(f"second-block KL routes disagree: {total} vs {via_entropy}")
    if total > gap + TOL:
        raise AssertionError(f"second-block KL {total} exceeds gap {gap}")
    return total


# ------------------------------------------------------------------- gap report

@dataclass
class GapReport:
    """All measured quantities of the distance-vs-gap chain for one case.

    Invariants (asserted at construction):
      distance <= bound + tol, kl1 <= gap + tol, kl2 <= gap + tol,
      bound <= 2 sqrt(max(gap, 0)) + tol.
    """

    family: str
    generator: str
    n: int
    gap: float
    kl1: float
    kl2: float
    distance: float
    bound: float
    real: float = 0.0
    tol: float = TOL

    def __post_init__(self):
        checks = [
            ("distance <= bound", self.distance <= self.bound + self.tol),
            ("kl1 <= gap", self.kl1 <= self.gap + self.tol),
            ("kl2 <= gap", self.kl2 <= self.gap + self.tol),
            ("bound <= 2 sqrt(gap)",
             self.bound <= 2 * math.sqrt(max(self.gap, 0.0)) + self.tol),
        ]
        failed = [name for name, ok in checks if not ok]
        if failed:
            raise AssertionError(f"gap-report invariants violated: {failed} on {self}")

    @property
    def headline_ok(self) -> bool:
        """distance <= 2 sqrt(gap), the composed statement."""
        return self.distance <= 2 * math.sqrt(max(self.gap, 0.0)) + self.tol

    def csv_row(self) -> str:
        return csv_line([self.family, self.generator, self.n,
                         self.gap, self.kl1, self.kl2, self.distance, self.bound])


GAP_CSV_HEADER = "family,generator,n,gap,kl1,kl2,distance,bound"


def gap_bound_report(gt: OnlineGenerator, family: HashFamily,
                     tol: float = TOL) -> GapReport:
    """Measure every quantity in the chain and assert the four invariants."""
    adv = RewindingAdversary(gt, family)
    raw_gap = family.n - accessible_entropy(gt)
    kl1 = max(_first_block_kl(adv, raw_gap), 0.0)
    kl2 = max(_second_block_kl(adv, raw_gap), 0.0)
    game = dcrh_distance(family, adv)
    return GapReport(
        family=family.name,
        generator=gt.name,
        n=family.n,
        gap=max(raw_gap, 0.0),
        kl1=kl1,
        kl2=kl2,
        distance=game.distance,
        bound=math.sqrt(kl1) + math.sqrt(kl2),
        real=_two_block_real_entropy(family),
        tol=tol,
    )
