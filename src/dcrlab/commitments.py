"""Two-party commitment schemes, their hiding game, and the reduction
from two-message statistically hiding commitments to a hash family whose
random-collision pairs equivocate.

Plaintexts are ell-bit ints, sender coins k-bit ints; a two-message scheme
is (receiver first message, sender commit message) with the canonical
verifier: the decommitment is (plaintext, coins) and verification replays
the commit computation.  The induced hash function on x = (plaintext,
coins) is h(x) = commit(first message, plaintext; coins), so a random
collision of h is exactly a pair of valid openings of one commitment.
That table is the whole commit map, so hiding and the plaintext posterior
are read off it; the equivocation count's verifier replay on every fiber
input is what ties the table to the scheme.
"""

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

from dcrlab.hashfam import ENUM_CAP_HARD, HashFamily, HashFunction, _check_cap
from dcrlab.probkit import Dist, stat_distance

TOL = 1e-9


# ----------------------------------------------------------------- scheme model

class TwoMessageCommitment:
    """Receiver speaks once, sender commits once; canonical verification.

    Concrete schemes supply ``first_message`` (receiver seed -> opaque key
    material) and ``commit_value`` (key material, plaintext, coins ->
    commit message).  Both are total and deterministic, so every game in
    this module can be computed by enumeration.  The input space x =
    (plaintext, coins) is checked against the hard enumeration cap here,
    before a subclass builds any table over it.
    """

    name = "two-message"

    def __init__(self, ell: int, coin_bits: int, message_bits: int,
                 receiver_seeds: Sequence[int]):
        if ell < 1:
            raise ValueError(f"ell must be at least 1, got {ell}")
        if coin_bits < 0:
            raise ValueError(f"coin_bits must be at least 0, got {coin_bits}")
        if not 1 <= message_bits <= 63:  # commit values are drawn as int64
            raise ValueError(f"message_bits must be in 1..63, got {message_bits}")
        _check_cap(ell + coin_bits, ENUM_CAP_HARD)
        self.ell = ell
        self.coin_bits = coin_bits
        self.message_bits = message_bits
        self.receiver_seeds = tuple(receiver_seeds)

    def first_message(self, seed: int):
        raise NotImplementedError

    def commit_value(self, first_msg, plaintext: int, coins: int) -> int:
        raise NotImplementedError

    # -- canonical verifier ----------------------------------------------

    def verify(self, com, decom) -> int | None:
        """Replays the sender computation; returns the plaintext or None."""
        first_msg, commit_msg = com
        plaintext, coins = decom
        if not (0 <= plaintext < 2**self.ell and 0 <= coins < 2**self.coin_bits):
            return None
        if self.commit_value(first_msg, plaintext, coins) != commit_msg:
            return None
        return plaintext


# ----------------------------------------------------------------- toy schemes

class RandomFunctionCommitment(TwoMessageCommitment):
    """The receiver sends the table of a uniformly random function
    f : {0,1}^(ell+k) -> {0,1}^m and the sender answers f(b || r).

    Hiding degrades to a measurable epsilon as m approaches ell + k and is
    strong when k - m is large; binding is only as strong as collision
    finding in a published table, i.e. not at all, which is irrelevant to
    the reduction (it only consumes hiding and the two-message shape).
    """

    def __init__(self, coin_bits: int, message_bits: int, num_seeds: int = 16,
                 seed: int = 0, ell: int = 1):
        super().__init__(ell, coin_bits, message_bits, range(num_seeds))
        self.name = f"random-function[k={coin_bits},m={message_bits},ell={ell}]"
        rng = np.random.default_rng(seed)
        size = 2 ** (ell + coin_bits)
        self._tables = {
            s: tuple(int(v) for v in rng.integers(0, 2**message_bits, size=size))
            for s in self.receiver_seeds
        }

    def first_message(self, seed):
        return self._tables[seed]

    def commit_value(self, first_msg, plaintext, coins):
        return first_msg[(plaintext << self.coin_bits) | coins]


class OpaqueCommitment(TwoMessageCommitment):
    """Ignores the plaintext entirely: commit message = f(r).  Perfectly
    hiding (epsilon exactly 0), useful as the zero-epsilon reference."""

    def __init__(self, coin_bits: int, message_bits: int | None = None,
                 num_seeds: int = 4, seed: int = 0, ell: int = 1):
        message_bits = coin_bits if message_bits is None else message_bits
        super().__init__(ell, coin_bits, message_bits, range(num_seeds))
        self.name = f"opaque[k={coin_bits}]"
        rng = np.random.default_rng(seed)
        self._tables = {
            s: tuple(int(v) for v in rng.integers(0, 2**message_bits, size=2**coin_bits))
            for s in self.receiver_seeds
        }

    def first_message(self, seed):
        return self._tables[seed]

    def commit_value(self, first_msg, plaintext, coins):
        return first_msg[coins]


class ClearTextCommitment(TwoMessageCommitment):
    """Sends (plaintext, coins) in the clear: epsilon = 1, the other
    extreme."""

    def __init__(self, coin_bits: int, ell: int = 1):
        super().__init__(ell, coin_bits, ell + coin_bits, (0,))
        self.name = f"clear-text[k={coin_bits}]"

    def first_message(self, seed):
        return "open-channel"

    def commit_value(self, first_msg, plaintext, coins):
        return (plaintext << self.coin_bits) | coins


# --------------------------------------------------------------------- hiding

@lru_cache(maxsize=None)
def hiding_distance(h: HashFunction, coin_bits: int) -> Fraction:
    """Exact epsilon of the commitment (plaintext || coins) -> h(x), coins in
    the low ``coin_bits``: the largest TV between two plaintexts' commit
    laws, each the value law of its 2^coin_bits-entry slice of the table.
    Shared by the reduction's keys and the promise problem's instances
    (coin_bits = n - 1, the table's two halves)."""
    size = 2**coin_bits
    views = [Dist.from_counts(Counter(h.table[i:i + size]))
             for i in range(0, len(h.table), size)]
    return max((stat_distance(v0, v1) for v0, v1 in itertools.combinations(views, 2)),
               default=Fraction(0))


# ----------------------------------------------------- reduction to hash family

def scheme_to_hash_family(scheme: TwoMessageCommitment) -> HashFamily:
    """h(x) = commit message on x = (plaintext || coins); the key is the
    receiver's first message, sampled over the scheme's seed list."""
    n = scheme.ell + scheme.coin_bits
    openings = [_split(scheme, x) for x in range(2**n)]  # shared by every key
    fns = []
    for seed in scheme.receiver_seeds:
        first = scheme.first_message(seed)
        table = tuple(scheme.commit_value(first, b, r) for b, r in openings)
        fns.append(HashFunction(n=n, m=scheme.message_bits, table=table, key=seed))
    return HashFamily(f"from[{scheme.name}]", fns)


def _split(scheme: TwoMessageCommitment, x: int) -> tuple[int, int]:
    return x >> scheme.coin_bits, x & (2**scheme.coin_bits - 1)


@dataclass
class EquivocationReport:
    """Pr over Col(h) that the two preimages open to distinct plaintexts."""

    rate: float
    epsilon: float
    lower_bound: float


def col_equivocation_rate(scheme: TwoMessageCommitment, h: HashFunction) -> EquivocationReport:
    """Exact Pr_{(x,x') <- Col(h)}[plaintext(x) != plaintext(x')].

    Col(h) puts mass 1 / (2^n |F|) on every ordered pair of a fiber F:
    count L/|F| over 2^n * L with L = ``h.fiber_lcm`` (``hashfam.col_distribution``
    holds it as one uniform product block per fiber).  With
    n_b(F) the number of inputs in F of plaintext b, |F|^2 - sum_b n_b(F)^2
    of those pairs split, so the rate is
    sum_F (L/|F|) (|F|^2 - sum_b n_b(F)^2) / (2^n * L), counted per fiber
    without building the pair law.

    Both halves of every collision must open validly under the canonical
    verifier.  Verification replays the commit computation, so that holds
    for every pair of F iff the commit value is constant on F, i.e. iff
    every input of F opens the commitment of F's first input: one commit
    per fiber and one verify per input.  The hiding bound
    rate >= 1/2 - 2 sqrt(eps) is asserted for bit plaintexts.
    """
    first = scheme.first_message(h.key)
    eps = float(hiding_distance(h, scheme.coin_bits))
    lcm = h.fiber_lcm
    split_count = 0
    valid = True
    for fiber in h.fibers.values():
        com = (first, scheme.commit_value(first, *_split(scheme, fiber[0])))
        per_plain: dict[int, int] = {}
        for x in fiber:
            b, r = _split(scheme, x)
            if scheme.verify(com, (b, r)) is None:
                valid = False
            per_plain[b] = per_plain.get(b, 0) + 1
        size = len(fiber)
        split_count += lcm // size * (size * size - sum(c * c for c in per_plain.values()))
    if not valid:
        raise AssertionError("a Col-supported pair failed to re-open")
    rate = Fraction(split_count, 2**h.n * lcm)
    lower = 0.5 - 2 * math.sqrt(eps)
    if scheme.ell == 1 and float(rate) < lower - TOL:
        raise AssertionError(f"equivocation rate {float(rate)} below 1/2 - 2 sqrt(eps) = {lower}")
    return EquivocationReport(rate=float(rate), epsilon=eps, lower_bound=lower)


@dataclass
class MarkovStepReport:
    """The averaging step: commitments whose posterior plaintext law strays
    from uniform by sqrt(eps) or more carry at most sqrt(eps) mass."""

    heavy_fraction: float
    ok: bool


def markov_step_check(scheme: TwoMessageCommitment, h: HashFunction) -> MarkovStepReport:
    """Exact check of Pr_{c <- C}[ TV(B_c, B) >= sqrt(eps) ] <= sqrt(eps).

    B is the uniform plaintext, C the commit message on uniform (b, r),
    B_c the posterior of b given c: the commitments are h's fibers and
    n_b the count of plaintext b in one.  When eps is exactly zero the
    posterior must equal the prior for every commitment.
    """
    eps = float(hiding_distance(h, scheme.coin_bits))
    root_eps = math.sqrt(eps)
    n_plain = 2**scheme.ell
    total = 2**h.n
    heavy_mass = 0
    all_uniform = True
    for fiber in h.fibers.values():
        counts = Counter(x >> scheme.coin_bits for x in fiber)
        mass = len(fiber)
        # TV(B_c, B) = 1/2 sum_b |n_b / N - 2^-ell|, on integers.
        num = sum(abs(counts[b] * n_plain - mass) for b in range(n_plain))
        if num != 0:
            all_uniform = False
        if eps > 0 and num / (2 * mass * n_plain) >= root_eps:
            heavy_mass += mass
    heavy = Fraction(heavy_mass, total)
    ok = all_uniform if eps == 0 else float(heavy) <= root_eps + TOL
    return MarkovStepReport(heavy_fraction=float(heavy), ok=ok)


@dataclass
class StringRateReport:
    """Pr over Col(h) that the two preimages carry the same plaintext."""

    collision_rate: float
    epsilon: float
    upper_bound: float


def string_variant_rate(scheme: TwoMessageCommitment, h: HashFunction) -> StringRateReport:
    """For ell-bit plaintexts: Pr[b = b'] <= 2^-ell + 2 sqrt(eps)."""
    rep = col_equivocation_rate(scheme, h)
    same = 1.0 - rep.rate
    upper = 2.0**-scheme.ell + 2 * math.sqrt(rep.epsilon)
    if same > upper + TOL:
        raise AssertionError(f"same-plaintext rate {same} above 2^-ell + 2 sqrt(eps) = {upper}")
    return StringRateReport(collision_rate=same, epsilon=rep.epsilon, upper_bound=upper)
